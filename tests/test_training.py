"""Exact and sampled training loops."""

import numpy as np
import pytest

from divset import (
    Criterion,
    DiversityConfig,
    DiversityKind,
    ExactTrainConfig,
    FtlMode,
    SampleTrainConfig,
    StrategyConfig,
    StrategyKind,
    best_response,
    build_chain,
    deterministic_policy,
    diversity_score,
    expected_features,
    occupancy,
    policy_value,
    rollout,
    train_exact,
    train_sampled,
)
from divset.training import _sample_from_cdf

from helpers import random_mdp

_REPULSIVE = DiversityConfig(kind=DiversityKind.REPULSIVE)
_DOMINO = StrategyConfig(kind=StrategyKind.DOMINO_LAGRANGIAN, alpha=0.9)


def test_single_policy_training_recovers_the_optimum():
    mdp = build_chain(5, end_reward=1.0)
    cfg = ExactTrainConfig(outer_iterations=5, seed=0)
    pset, trace = train_exact(mdp, 1, _REPULSIVE, StrategyConfig(kind=StrategyKind.NO_DIVERSITY), cfg)
    v = policy_value(mdp, occupancy(mdp, pset.policies[0], Criterion.AVERAGE))
    assert v == pytest.approx(1.0, abs=1e-9)
    assert len(trace) == 6  # one per iteration plus the final evaluation


def test_exact_trainer_seeds_the_estimates_with_true_initial_statistics():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng, 4, 3, 2)
    cfg = ExactTrainConfig(outer_iterations=1, seed=7)
    pset, trace = train_exact(mdp, 3, _REPULSIVE, _DOMINO, cfg)
    # recompute the initial policies' exact features from the same seed
    init = np.random.default_rng(7)
    from divset import init_set

    fresh = init_set(3, 2, 4, 3, policy_init="random", rng=init)
    psis = np.stack(
        [
            expected_features(mdp, occupancy(mdp, p, Criterion.AVERAGE))
            for p in fresh.policies
        ]
    )
    # the first record's estimate-based diversity equals the exact one:
    # the running averages start at the measured statistics, not at a prior
    assert trace[0].diversity_mean == pytest.approx(diversity_score(psis), abs=1e-12)
    assert trace[0].diversity_mean == pytest.approx(
        trace[0].diversity_mean_exact, abs=1e-12
    )


def test_exact_trainer_is_deterministic_given_the_seed():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, 4, 3, 2)
    cfg = ExactTrainConfig(outer_iterations=10, seed=3)
    a, _ = train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg)
    b, _ = train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.avg_psi, b.avg_psi)
    assert np.array_equal(a.policies, b.policies)


def test_diversity_training_separates_members():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng, 5, 3, 2)
    cfg = ExactTrainConfig(outer_iterations=40, seed=0)
    _, trace_none = train_exact(
        mdp, 2, _REPULSIVE, StrategyConfig(kind=StrategyKind.NO_DIVERSITY), cfg
    )
    _, trace_pure = train_exact(
        mdp, 2, _REPULSIVE, StrategyConfig(kind=StrategyKind.MULTI_OBJECTIVE, c_e=0.0), cfg
    )
    _, trace_dom = train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg)
    # without a diversity reward both members collapse onto the optimum
    assert trace_none[-1].diversity_mean_exact == pytest.approx(0.0, abs=1e-12)
    # a pure diversity member separates in the final greedy iterate
    assert trace_pure[-1].diversity_mean_exact > 1e-3
    # the constrained method separates in its reported running statistics
    # while the tight constraint keeps the final iterates near the optimum
    assert trace_dom[-1].diversity_mean > 1e-3


def test_anchor_constraint_reference_is_the_exact_optimum():
    mdp = build_chain(5, end_reward=2.0)
    cfg = ExactTrainConfig(outer_iterations=3, seed=0)
    pset, _ = train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg)
    assert pset.vstar_estimate == pytest.approx(2.0, abs=1e-9)


def test_full_average_mode_tracks_running_means():
    mdp = build_chain(4, end_reward=1.0)
    cfg = ExactTrainConfig(
        outer_iterations=3, seed=0, ftl_mode=FtlMode.FULL_AVERAGE, policy_init="uniform"
    )
    pset, trace = train_exact(mdp, 1, _REPULSIVE, StrategyConfig(kind=StrategyKind.NO_DIVERSITY), cfg)
    values = [rec.extrinsic_values[0] for rec in trace[:-1]]
    assert pset.avg_value[0] == pytest.approx(np.mean(values), abs=1e-12)


def test_trace_records_expose_weights_and_objective():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, 4, 2, 2)
    cfg = ExactTrainConfig(outer_iterations=4, seed=1)
    _, trace = train_exact(mdp, 3, _REPULSIVE, _DOMINO, cfg)
    for rec in trace:
        assert rec.sigma_mu[0] == 1.0
        assert rec.extrinsic_values.shape == (3,)
        assert np.isfinite(rec.objective_value)
        assert rec.diversity_mean >= 0.0


def test_generalized_trace_objective_is_l0_times_the_summed_distances():
    # at a = 0, p_r = -1 the generalized potential is f(l) = l0 l, so the
    # reported objective is l0 n times the mean nearest-neighbour distance
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, 4, 2, 2)
    l0 = 0.45
    cfg = DiversityConfig(
        kind=DiversityKind.GENERALIZED, contact_distance=l0,
        attractive_coeff=0.0, repulsive_power=-1.0, attractive_power=3.0,
    )
    _, trace = train_exact(mdp, 3, cfg, _DOMINO, ExactTrainConfig(outer_iterations=4, seed=1))
    for rec in trace:
        assert rec.objective_value == pytest.approx(l0 * 3 * rec.diversity_mean, rel=1e-12)


def test_rollout_follows_the_dynamics():
    mdp = build_chain(5, end_reward=1.0)
    always_right = deterministic_policy(np.full(5, 1, dtype=int), 3)
    traj = rollout(mdp, always_right, horizon=12, rng=np.random.default_rng(0))
    assert traj.states.shape == (12,)
    assert np.all(np.diff(traj.states) >= 0)  # moving right never goes back
    assert np.array_equal(traj.rewards, mdp.reward[traj.states, traj.actions])
    assert np.array_equal(traj.features, mdp.features[traj.states * 3 + traj.actions])
    assert np.array_equal(traj.next_states[:-1], traj.states[1:])


def test_draws_past_a_rounded_cdf_land_on_the_last_positive_outcome():
    cdf = np.array([0.3, 0.6, 0.6])  # total mass short of 1, last outcome impossible
    assert _sample_from_cdf(cdf, 0.0) == 0
    assert _sample_from_cdf(cdf, 0.3) == 1
    assert _sample_from_cdf(cdf, 0.6) == 1
    assert _sample_from_cdf(cdf, 0.99) == 1


def test_sampled_trainer_is_deterministic_and_records_on_schedule():
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng, 4, 3, 2)
    cfg = SampleTrainConfig(total_episodes=30, episode_length=20, eval_every=10, seed=5)
    a, trace = train_sampled(mdp, 2, _REPULSIVE, _DOMINO, cfg)
    b, _ = train_sampled(mdp, 2, _REPULSIVE, _DOMINO, cfg)
    assert [rec.iteration for rec in trace] == [10, 20, 30]
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.policies, b.policies)
    assert np.all(a.policies > 0.0)  # softmax policies stay stochastic


def test_sampled_trainer_learns_a_simple_task():
    mdp = build_chain(4, end_reward=1.0)
    cfg = SampleTrainConfig(total_episodes=400, episode_length=60, seed=0)
    pset, _ = train_sampled(
        mdp, 1, _REPULSIVE, StrategyConfig(kind=StrategyKind.NO_DIVERSITY), cfg
    )
    v = policy_value(mdp, occupancy(mdp, pset.policies[0], Criterion.AVERAGE))
    assert v > 0.7  # most of the stationary mass reaches the rewarded end


def test_sampled_vstar_estimate_tracks_the_anchor():
    rng = np.random.default_rng(6)
    mdp = random_mdp(rng, 4, 3, 2)
    cfg = SampleTrainConfig(total_episodes=25, episode_length=20, seed=2)
    pset, _ = train_sampled(mdp, 2, _REPULSIVE, _DOMINO, cfg)
    assert pset.vstar_estimate == pytest.approx(float(pset.avg_value[0]), abs=0.0)


def test_exact_reductions_match_the_plain_best_response():
    mdp = build_chain(5, end_reward=1.0)
    pi_star = best_response(mdp, mdp.reward, Criterion.AVERAGE)
    v_star = policy_value(mdp, occupancy(mdp, pi_star, Criterion.AVERAGE))
    cfg = ExactTrainConfig(outer_iterations=10, seed=0)
    for strategy in (
        StrategyConfig(kind=StrategyKind.MULTI_OBJECTIVE, c_e=1.0),
        StrategyConfig(kind=StrategyKind.SMERL, c_d=0.0),
        StrategyConfig(kind=StrategyKind.NO_DIVERSITY),
    ):
        pset, _ = train_exact(mdp, 2, _REPULSIVE, strategy, cfg)
        for pol in pset.policies:
            v = policy_value(mdp, occupancy(mdp, pol, Criterion.AVERAGE))
            assert v == pytest.approx(v_star, abs=1e-9)
