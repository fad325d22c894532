"""Exact and sampled training loops."""

import dataclasses
import itertools
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from divset import (
    AdamState,
    Always,
    Criterion,
    DiversityConfig,
    DiversityKind,
    ExactTrainConfig,
    FeatureKind,
    FtlMode,
    MovingAverageConfig,
    Periodic,
    PerturbedMdp,
    SampleTrainConfig,
    StrategyConfig,
    StrategyKind,
    TabularMdp,
    TrainingDivergedError,
    best_response,
    build_chain,
    build_gridworld,
    deterministic_policy,
    diversity_objective,
    diversity_score,
    expected_features,
    four_rooms_spec,
    init_set,
    lagrange_step_adam,
    load_config,
    occupancy,
    policy_value,
    sample_episodes,
    train_exact,
    train_sampled,
    update_moving_averages,
    weights,
)
import divset.training

from helpers import KERNEL_CASES, member_reward, random_mdp

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_REPULSIVE = DiversityConfig(kind=DiversityKind.REPULSIVE)
_DOMINO = StrategyConfig(kind=StrategyKind.DOMINO_LAGRANGIAN, alpha=0.9)


def test_single_policy_training_recovers_the_optimum():
    mdp = build_chain(5, end_reward=1.0)
    cfg = ExactTrainConfig(outer_iterations=5)
    no_diversity = StrategyConfig(kind=StrategyKind.NO_DIVERSITY)
    [(pset, trace)] = train_exact(mdp, 1, _REPULSIVE, no_diversity, cfg, [0])
    v = policy_value(mdp, occupancy(mdp, pset.policies[0], Criterion.AVERAGE))
    assert v == pytest.approx(1.0, abs=1e-9)
    assert len(trace) == 6  # one per iteration plus the final evaluation


def test_exact_trainer_seeds_the_estimates_with_true_initial_statistics():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng, 4, 3, 2)
    cfg = ExactTrainConfig(outer_iterations=1)
    [(pset, trace)] = train_exact(mdp, 3, _REPULSIVE, _DOMINO, cfg, [7])
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
    cfg = ExactTrainConfig(outer_iterations=10)
    [(a, _)] = train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg, [3])
    [(b, _)] = train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg, [3])
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.avg_psi, b.avg_psi)
    assert np.array_equal(a.policies, b.policies)


def test_diversity_training_separates_members():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng, 5, 3, 2)
    cfg = ExactTrainConfig(outer_iterations=40)
    [(_, trace_none)] = train_exact(
        mdp, 2, _REPULSIVE, StrategyConfig(kind=StrategyKind.NO_DIVERSITY), cfg, [0]
    )
    [(_, trace_pure)] = train_exact(
        mdp, 2, _REPULSIVE, StrategyConfig(kind=StrategyKind.MULTI_OBJECTIVE, c_e=0.0), cfg, [0]
    )
    [(_, trace_dom)] = train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg, [0])
    # without a diversity reward both members collapse onto the optimum
    assert trace_none[-1].diversity_mean_exact == pytest.approx(0.0, abs=1e-12)
    # a pure diversity member separates in the final greedy iterate
    assert trace_pure[-1].diversity_mean_exact > 1e-3
    # the constrained method separates in its reported running statistics
    # while the tight constraint keeps the final iterates near the optimum
    assert trace_dom[-1].diversity_mean > 1e-3


def test_anchor_constraint_reference_is_the_exact_optimum():
    mdp = build_chain(5, end_reward=2.0)
    cfg = ExactTrainConfig(outer_iterations=3)
    [(pset, _)] = train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg, [0])
    assert pset.vstar_estimate == pytest.approx(2.0, abs=1e-9)


def test_full_average_mode_tracks_running_means():
    mdp = build_chain(4, end_reward=1.0)

    def train(iterations):
        cfg = ExactTrainConfig(
            outer_iterations=iterations, ftl_mode=FtlMode.FULL_AVERAGE, policy_init="uniform"
        )
        return train_exact(mdp, 2, _REPULSIVE, _DOMINO, cfg, [0])[0]

    pset, trace = train(3)
    values = np.stack([rec.extrinsic_values for rec in trace[:-1]])
    assert np.allclose(pset.avg_value, values.mean(axis=0), rtol=0.0, atol=1e-12)
    # iteration k measures the policies that k outer iterations return
    psis = [
        [expected_features(mdp, occupancy(mdp, policy, Criterion.AVERAGE)) for policy in policies]
        for policies in (train(k)[0].policies for k in range(3))
    ]
    assert np.allclose(pset.avg_psi, np.mean(psis, axis=0), rtol=0.0, atol=1e-12)


def test_trace_records_expose_weights_and_objective():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, 4, 2, 2)
    cfg = ExactTrainConfig(outer_iterations=4)
    [(_, trace)] = train_exact(mdp, 3, _REPULSIVE, _DOMINO, cfg, [1])
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
    [(_, trace)] = train_exact(mdp, 3, cfg, _DOMINO, ExactTrainConfig(outer_iterations=4), [1])
    for rec in trace:
        assert rec.objective_value == pytest.approx(l0 * 3 * rec.diversity_mean, rel=1e-12)


def _assert_same_training(got, expected):
    """Bit-for-bit equality of two (pset, trace) results."""
    (pset_a, trace_a), (pset_b, trace_b) = got, expected
    for name in ("policies", "mu", "avg_value", "avg_psi"):
        assert getattr(pset_a, name).tobytes() == getattr(pset_b, name).tobytes(), name
    assert repr(pset_a.vstar_estimate) == repr(pset_b.vstar_estimate)
    assert len(trace_a) == len(trace_b)
    for rec_a, rec_b in zip(trace_a, trace_b):
        for field in dataclasses.fields(rec_a):
            a, b = getattr(rec_a, field.name), getattr(rec_b, field.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), (rec_a.iteration, field.name)
            else:
                assert repr(a) == repr(b), (rec_a.iteration, field.name)


def _spy_on_warm_starts(monkeypatch, check=None) -> list[int]:
    """Wrap the trainer's best_response; returns a list that gets, per call
    after a group's first, how many members start from a policy other than
    the one the last call gave them. check, if given, sees each call's
    arguments and result."""
    real, moved, last = divset.training.best_response, [], []

    def spy(mdp, basis, coefficients, criterion, start=None, evaluations=None):
        result = real(mdp, basis, coefficients, criterion, start, evaluations)
        if start is None:  # each group's optimum comes first
            last.clear()
            return result
        if last:
            moved.append(int(np.any(start != last[0], axis=(1, 2)).sum()))
        last[:] = [result[0]]
        if check is not None:
            check(mdp, basis, coefficients, criterion, result)
        return result

    monkeypatch.setattr(divset.training, "best_response", spy)
    return moved


@pytest.mark.parametrize(
    "case, unichain",
    [
        ("four_rooms", True),
        ("chain", False),
        ("chain_full_average", False),
        ("chain_discounted", False),
    ],
)
def test_lockstep_training_equals_one_set_at_a_time(case, unichain, monkeypatch):
    if case == "four_rooms":
        mdp = build_gridworld(four_rooms_spec())
    else:
        mdp = build_chain(5, end_reward=1.0)
    # best responses with class detection skipped, or run every round
    assert bool(mdp.reach_under_every_policy.all()) == unichain
    # long enough that some member starts from another policy of its set
    cfg = ExactTrainConfig(outer_iterations=25)
    if case == "chain_full_average":
        cfg = dataclasses.replace(cfg, ftl_mode=FtlMode.FULL_AVERAGE)
    elif case == "chain_discounted":
        cfg = dataclasses.replace(cfg, criterion=Criterion.DISCOUNTED)
    seeds = [3, 0, 11]
    moved = _spy_on_warm_starts(monkeypatch)
    together = train_exact(mdp, 3, _REPULSIVE, _DOMINO, cfg, seeds)
    assert sum(moved) > 0
    assert len(together) == len(seeds)
    for got, seed in zip(together, seeds):
        _assert_same_training(got, *train_exact(mdp, 3, _REPULSIVE, _DOMINO, cfg, [seed]))


@pytest.mark.parametrize("case", ["four rooms", "one-hot four rooms", "chain", "discounted chain"])
def test_warm_started_best_responses_are_still_best_responses(monkeypatch, case):
    # a member may start from another policy of its set; Howard from there
    # must reach the value that a cold start (no start) reaches
    cfg = ExactTrainConfig(outer_iterations=12)
    if case == "four rooms":
        mdp = build_gridworld(four_rooms_spec())
    elif case == "one-hot four rooms":  # the member-by-member path
        mdp = build_gridworld(
            dataclasses.replace(four_rooms_spec(), feature_kind=FeatureKind.ONE_HOT_STATE)
        )
    else:  # several closed classes
        mdp = build_chain(5, end_reward=1.0)
        if case == "discounted chain":
            cfg = dataclasses.replace(cfg, criterion=Criterion.DISCOUNTED)
    in_basis = divset.training._basis_pays(mdp.num_states, mdp.feature_dim)
    assert in_basis == (case != "one-hot four rooms")

    def own_values(mdp, gains, coefficients):
        return np.einsum("s,nsk,nk->n", mdp.initial_dist, gains, coefficients)

    def check(mdp, basis, coefficients, criterion, result):
        _, (cold, _) = best_response(mdp, basis, coefficients, criterion)
        warm = own_values(mdp, result[1][0], coefficients)
        expected = own_values(mdp, cold, coefficients)
        assert np.all(np.abs(warm - expected) <= 1e-12 * np.abs(expected))

    moved = _spy_on_warm_starts(monkeypatch, check)
    strategy = StrategyConfig(kind=StrategyKind.DOMINO_LAGRANGIAN, alpha=0.9)
    train_exact(mdp, 4, KERNEL_CASES[3], strategy, cfg, [1])
    assert len(moved) == cfg.outer_iterations - 1 and sum(moved) > 0


def test_exact_trainer_solves_occupancies_only_for_the_optimum_and_the_initial_set(monkeypatch):
    # after the stochastic initial set every value and psi is read from the
    # best responses' evaluations in the reward basis
    mdp = build_chain(9, end_reward=1.0)
    assert divset.training._basis_pays(mdp.num_states, mdp.feature_dim)
    n, calls = 3, []
    real_occupancy = divset.training.occupancy

    def counting_occupancy(mdp, policies, criterion):
        calls.append(policies.shape[:-2])
        return real_occupancy(mdp, policies, criterion)

    monkeypatch.setattr(divset.training, "occupancy", counting_occupancy)
    for criterion, iterations in itertools.product(Criterion, (1, 4, 12)):
        calls.clear()
        cfg = ExactTrainConfig(outer_iterations=iterations, criterion=criterion)
        [(pset, trace)] = train_exact(mdp, n, _REPULSIVE, _DOMINO, cfg, [2])
        assert calls == [(), (n,)]  # the optimum, then the initial set
        occs = real_occupancy(mdp, pset.policies, criterion)
        fresh_values = policy_value(mdp, occs)
        assert np.all(np.abs(trace[-1].extrinsic_values - fresh_values) <= 1e-12)
        fresh_score = diversity_score(expected_features(mdp, occs))
        assert abs(trace[-1].diversity_mean_exact - fresh_score) <= 1e-12


@pytest.mark.parametrize("features", [FeatureKind.XY_COORDINATES, FeatureKind.ONE_HOT_STATE])
def test_exact_trainer_trains_the_same_sets_in_the_basis_and_member_by_member(monkeypatch, features):
    # the trainer evaluates in the d + 1 column reward basis only while d <= S / 4;
    # past that each member's own reward is one column and occupancies are solved
    mdp = build_gridworld(dataclasses.replace(four_rooms_spec(), feature_kind=features))
    uses_basis = divset.training._basis_pays(mdp.num_states, mdp.feature_dim)
    assert uses_basis == (features == FeatureKind.XY_COORDINATES)
    cfg = ExactTrainConfig(outer_iterations=8)
    runs = []
    for basis in (True, False):
        monkeypatch.setattr(divset.training, "_basis_pays", lambda S, d: basis)
        runs.append(train_exact(mdp, 4, _REPULSIVE, _DOMINO, cfg, [3, 4]))
    for (in_basis, trace_basis), (alone, trace_alone) in zip(*runs):
        assert np.array_equal(in_basis.policies, alone.policies)
        for a, b in zip(trace_basis, trace_alone):
            assert np.all(np.abs(a.extrinsic_values - b.extrinsic_values) <= 1e-12)
            assert abs(a.diversity_mean_exact - b.diversity_mean_exact) <= 1e-12


def test_rollout_follows_the_dynamics():
    mdp = build_chain(5, end_reward=1.0)
    always_right = deterministic_policy(np.full(5, 1, dtype=int), 3)
    path, actions, rewards = sample_episodes(mdp, always_right, 12, [np.random.default_rng(0)])
    assert (path.shape, actions.shape, rewards.shape) == ((1, 13), (1, 12), (1, 12))
    states = path[0, :-1]
    assert np.all(np.diff(path[0]) >= 0)  # moving right never goes back
    assert np.array_equal(actions[0], np.full(12, 1))
    assert np.array_equal(rewards[0], mdp.reward[states, actions[0]])


def _dense_rollout(mdp, policy, horizon, rng):
    """Reference rollout: np.searchsorted on the dense cumulative rows."""

    def sample(cdf_row, u):
        k = int(np.searchsorted(cdf_row, u, side="right"))
        if k < len(cdf_row):
            return k
        return int(np.searchsorted(cdf_row, cdf_row[-1], side="left"))

    A = mdp.num_actions
    if isinstance(mdp, PerturbedMdp):
        schedule, fallback = mdp.schedule, mdp.unperturbed
    else:
        schedule, fallback = Always(), mdp
    active = [schedule.active(t) for t in range(horizon)]
    transition_cdfs = (np.cumsum(fallback.transition, axis=2), np.cumsum(mdp.transition, axis=2))
    policy_cdf = np.cumsum(policy, axis=1)
    draws = rng.random(2 * horizon + 1)
    s = sample(np.cumsum(mdp.initial_dist), draws[0])
    states = np.empty(horizon, dtype=int)
    actions = np.empty(horizon, dtype=int)
    next_states = np.empty(horizon, dtype=int)
    for t in range(horizon):
        a = sample(policy_cdf[s], draws[2 * t + 1])
        s_next = sample(transition_cdfs[active[t]][s, a], draws[2 * t + 2])
        states[t], actions[t], next_states[t] = s, a, s_next
        s = s_next
    rewards = np.where(active, mdp.reward[states, actions], fallback.reward[states, actions])
    return states, actions, rewards, mdp.features[states * A + actions], next_states


def _sparse(rng, rows, width):
    """Random rows on the simplex with about half their entries exactly zero."""
    p = rng.dirichlet(np.ones(width), size=rows) * (rng.random((rows, width)) < 0.5)
    p[np.arange(rows), rng.integers(width, size=rows)] += 0.1  # no empty row
    return p / p.sum(axis=1, keepdims=True)


def _assert_matches_the_dense_rollout(mdp, policy, generator, path, actions, rewards):
    """One episode of sample_episodes, its (T + 1,) path and (T,) actions and
    rewards, equals _dense_rollout of policy on the same generator."""
    ref = _dense_rollout(mdp, policy, len(actions), generator)
    states = path[:-1]
    got = (states, actions, rewards, mdp.features[states * mdp.num_actions + actions], path[1:])
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)


def test_rollout_matches_the_dense_searchsorted_rollout():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        S, A = 7, 3
        base = random_mdp(rng, S, A, 2)
        base = dataclasses.replace(
            base,
            transition=_sparse(rng, S * A, S).reshape(S, A, S),
            initial_dist=_sparse(rng, 1, S)[0],
        )
        perturbed = dict(
            transition=_sparse(rng, S * A, S).reshape(S, A, S),
            reward=rng.uniform(-1.0, 0.0, size=(S, A)),
            features=base.features,
            discount=base.discount,
            initial_dist=base.initial_dist,
            unperturbed=base,
        )
        policy = _sparse(rng, S, A)
        per_episode = _sparse(rng, 10 * S, A).reshape(10, S, A)
        for mdp in (
            base,
            PerturbedMdp(**perturbed),
            PerturbedMdp(**perturbed, schedule=Periodic(period=4, duration=2, start=1)),
        ):
            # each episode alone, then the ten in one call with a policy per
            # episode, then the ten in one call sharing one policy
            for e in range(10):
                got = sample_episodes(mdp, policy, 40, [np.random.default_rng([seed, e])])
                ref_rng = np.random.default_rng([seed, e])
                _assert_matches_the_dense_rollout(mdp, policy, ref_rng, *(a[0] for a in got))
            for policies in (per_episode, policy):
                rngs = [np.random.default_rng([seed, e]) for e in range(10)]
                path, actions, rewards = sample_episodes(mdp, policies, 40, rngs)
                assert path.shape == (10, 41)
                for e in range(10):
                    own = policies[e] if policies.ndim == 3 else policies
                    ref_rng = np.random.default_rng([seed, e])
                    _assert_matches_the_dense_rollout(
                        mdp, own, ref_rng, path[e], actions[e], rewards[e]
                    )


def test_sample_episodes_needs_one_policy_per_episode():
    mdp = build_chain(3)
    policies = np.full((2, 3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="got 2 policies for 3 episodes"):
        sample_episodes(mdp, policies, 4, [np.random.default_rng(e) for e in range(3)])


def test_sample_episodes_of_no_generator_are_empty():
    mdp = build_chain(3)
    for policies in (np.full((3, 3), 1.0 / 3.0), np.full((0, 3, 3), 1.0 / 3.0)):
        path, actions, rewards = sample_episodes(mdp, policies, 4, [])
        assert path.shape == (0, 5) and actions.shape == rewards.shape == (0, 4)


def test_sample_episodes_keeps_one_episode_of_lists_alive():
    # 20 episodes of 10,000 four-rooms steps: the returned arrays take 4.8 MB;
    # holding every episode's Python lists until the end peaked at 10.6 MB
    mdp = build_gridworld(four_rooms_spec())
    uniform = np.full((mdp.num_states, mdp.num_actions), 1.0 / mdp.num_actions)
    rngs = [np.random.default_rng(e) for e in range(20)]
    mdp.transition_cdf, mdp.initial_cdf  # built once per MDP, not part of the call
    tracemalloc.start()
    try:
        out = sample_episodes(mdp, uniform, 10_000, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in out)
    # the returned arrays, one (E, T) temporary for the pair indices, and
    # 2 MB for one episode's draws and lists (about 1 MB)
    assert peak < returned + out[1].nbytes + 2_000_000


def _one_row_mdp(row):
    """An MDP that starts in state 0 and whose every (s, a) has the given next-state row."""
    S = len(row)
    return TabularMdp(
        transition=np.tile(row, (S, 1, 1)),
        reward=np.zeros((S, 1)),
        features=np.zeros((S, 1)),
        discount=0.9,
        initial_dist=np.eye(S)[0],
    )


class _FixedDraws:
    """Stands in for a Generator: hands out the given uniform draws."""

    def __init__(self, draws):
        self.draws = np.array(draws)

    def random(self, size):
        assert size == len(self.draws)
        return self.draws


def test_draws_past_a_rounded_cdf_land_on_the_last_positive_outcome():
    # total mass short of 1, last outcome impossible: the entry that
    # reaches the total is +inf, so a draw at or past 0.6 lands on outcome 1
    cum, outcomes = _one_row_mdp(np.array([0.3, 0.3, 0.0])).transition_cdf[0]
    assert (cum, outcomes) == ([0.3, np.inf], [0, 1])
    assert [outcomes[bisect_right(cum, u)] for u in (0.0, 0.3, 0.6, 0.99)] == [0, 1, 1, 1]
    # the same on a dense row, as policy rows are sampled: one state, three
    # actions, and the action draws 0.0, 0.3, 0.6 and 0.99
    mdp = TabularMdp(
        transition=np.ones((1, 3, 1)),
        reward=np.zeros((1, 3)),
        features=np.zeros((3, 1)),
        discount=0.9,
        initial_dist=np.ones(1),
    )
    draws = [0.0, 0.0, 0.0, 0.3, 0.0, 0.6, 0.0, 0.99, 0.0]
    _, actions, _ = sample_episodes(mdp, np.array([[0.3, 0.3, 0.0]]), 4, [_FixedDraws(draws)])
    assert actions.tolist() == [[0, 1, 1, 1]]


def test_a_positive_tail_absorbed_by_rounding_is_never_drawn():
    # 0.6 + 1e-18 rounds to 0.6: outcome 2 has positive probability but no
    # mass in the sums, so a draw past the sums lands on outcome 1
    mdp = _one_row_mdp(np.array([0.3, 0.3, 1e-18, 0.0]))
    cum, outcomes = mdp.transition_cdf[0]
    assert (cum, outcomes) == ([0.3, np.inf, np.inf], [0, 1, 2])
    assert outcomes[bisect_right(cum, 0.7)] == 1
    path, _, _ = sample_episodes(mdp, np.ones((4, 1)), 1, [_FixedDraws([0.0, 0.5, 0.7])])
    assert path[:, :-1].tolist() == [[0]]
    assert path[:, 1:].tolist() == [[1]]


def _softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _plain_nstep_returns(rewards, values, state_seq, gamma, n):
    T = len(rewards)
    G = np.zeros(T)
    gpow = 1.0
    for k in range(min(n, T)):
        G[: T - k] += gpow * rewards[k:]
        gpow *= gamma
    n_eff = np.minimum(n, T - np.arange(T))
    boot = np.minimum(np.arange(T) + n, T)
    G += gamma**n_eff * values[state_seq[boot]]
    return G


def _plain_train_sampled(mdp, n, diversity_cfg, strategy_cfg, cfg, seed):
    """Reference sampled trainer: the dense searchsorted rollout, one
    critic table, one n-step return and one bincount per reward stream,
    and the diversity reward gathered from its full (S, A) matrix."""
    S, A, d = mdp.num_states, mdp.num_actions, mdp.feature_dim
    T = cfg.episode_length
    rng = np.random.default_rng(seed)
    logits = np.zeros((n, S, A))
    v_e = np.zeros((n, S))
    v_d = np.zeros((n, S))
    pset = init_set(n, d, S, A, policy_init="uniform")
    adam = AdamState.zeros(max(n - 1, 1))
    records = []

    def record(it):
        psis = [expected_features(mdp, occupancy(mdp, p, Criterion.AVERAGE)) for p in pset.policies]
        records.append(
            divset.training.TraceRecord(
                iteration=it,
                extrinsic_values=pset.avg_value.copy(),
                sigma_mu=pset.extrinsic_weights(),
                diversity_mean=diversity_score(pset.avg_psi),
                diversity_mean_exact=diversity_score(np.stack(psis)),
                objective_value=diversity_objective(pset.avg_psi, diversity_cfg),
            )
        )

    for ep in range(cfg.total_episodes):
        z = int(rng.integers(n))
        probs = _softmax(logits[z])
        states, actions, rewards, features, next_states = _dense_rollout(mdp, probs, T, rng)
        r_d_mat = np.zeros((S, A))
        if z > 0:
            r_d_mat = member_reward(mdp.features_sa, pset.avg_psi, z, diversity_cfg)
        r_d = r_d_mat[states, actions]
        state_seq = np.append(states, next_states[-1])
        targ_e = _plain_nstep_returns(rewards, v_e[z], state_seq, mdp.discount, cfg.n_step)
        targ_d = _plain_nstep_returns(r_d, v_d[z], state_seq, mdp.discount, cfg.n_step)
        w_e, w_d = weights(strategy_cfg, pset)[z]
        adv = w_e * (targ_e - v_e[z][states]) + w_d * (targ_d - v_d[z][states])

        pi_visited = probs[states]
        row_cells = (states[:, None] * A + np.arange(A)).ravel()
        cells = [states * A + actions, row_cells]
        terms = [adv, (-adv[:, None] * pi_visited).ravel()]
        if cfg.entropy_weight > 0.0:
            logp = np.log(np.clip(pi_visited, 1e-30, None))
            ent = -(pi_visited * logp).sum(axis=1)
            cells.append(row_cells)
            terms.append((-cfg.entropy_weight * pi_visited * (logp + ent[:, None])).ravel())
        grad = np.bincount(np.concatenate(cells), np.concatenate(terms), minlength=S * A)
        logits[z] += cfg.policy_lr * grad.reshape(S, A) / T

        tcnt = np.bincount(states, minlength=S)
        mask = tcnt > 0
        for table, targets in ((v_e[z], targ_e), (v_d[z], targ_d)):
            tsum = np.bincount(states, targets, minlength=S)
            table[mask] += cfg.value_lr * (tsum[mask] / tcnt[mask] - table[mask])

        update_moving_averages(pset, z, rewards.mean(), features.mean(axis=0), cfg.moving_average)
        pset.vstar_estimate = float(pset.avg_value[0])
        if strategy_cfg.kind == StrategyKind.DOMINO_LAGRANGIAN and n > 1:
            lagrange_step_adam(pset, strategy_cfg.alpha, cfg.lagrange_lr, adam)
        if (ep + 1) % cfg.eval_every == 0 or ep + 1 == cfg.total_episodes:
            pset.policies = _softmax(logits)
            record(ep + 1)
    pset.policies = _softmax(logits)
    return pset, records


def _sampled_oracle_cases():
    four_rooms = load_config(CONFIG_DIR / "four_rooms_qd.json")
    grid, _ = four_rooms.environment.build()
    chain = build_chain(5, end_reward=1.0)
    # dense 12-dimensional features: a per-pair reward from another BLAS
    # call than the full matrix's would differ in low bits here
    dense = random_mdp(np.random.default_rng(11), 6, 3, 12)
    small = random_mdp(np.random.default_rng(12), 5, 4, 3)
    smerl = StrategyConfig(kind=StrategyKind.SMERL, alpha=0.8, c_d=0.5)
    no_entropy = SampleTrainConfig(
        total_episodes=80, episode_length=23, eval_every=30, entropy_weight=0.0, n_step=7,
        moving_average=MovingAverageConfig(0.8, 0.7),
    )
    return {
        "four rooms": (
            grid, 5, four_rooms.diversity, four_rooms.strategy,
            SampleTrainConfig(total_episodes=60, episode_length=100, eval_every=25), 3,
        ),
        "slip-free chain": (
            chain, 1, _REPULSIVE, _DOMINO,
            SampleTrainConfig(total_episodes=40, episode_length=30, eval_every=15), 1,
        ),
        "no entropy": (dense, 3, _REPULSIVE, _DOMINO, no_entropy, 2),
        "smerl": (
            small, 3, KERNEL_CASES[1], smerl,
            SampleTrainConfig(total_episodes=80, episode_length=9, eval_every=40), 4,
        ),
    }


@pytest.mark.parametrize("case", ["four rooms", "slip-free chain", "no entropy", "smerl"])
def test_sampled_trainer_matches_the_plain_reference_bit_for_bit(case):
    *args, seed = _sampled_oracle_cases()[case]
    [(got, got_trace)] = train_sampled(*args, [seed])
    want, want_trace = _plain_train_sampled(*args, seed)
    for field in ("policies", "mu", "avg_value", "avg_psi", "vstar_estimate"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field
    assert len(got_trace) == len(want_trace)
    for g, w in zip(got_trace, want_trace):
        for field in dataclasses.fields(divset.training.TraceRecord):
            a, b = getattr(g, field.name), getattr(w, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (g.iteration, field.name)


@pytest.mark.parametrize("case", ["four rooms", "slip-free chain", "no entropy", "smerl"])
def test_sampled_lockstep_group_equals_each_seed_alone(case, monkeypatch):
    mdp, n, dcfg, scfg, cfg, seed = _sampled_oracle_cases()[case]
    seeds = [seed, 0, 17]
    together = train_sampled(mdp, n, dcfg, scfg, cfg, seeds)
    assert len(together) == len(seeds)
    for got, one in zip(together, seeds):
        _assert_same_training(got, *train_sampled(mdp, n, dcfg, scfg, cfg, [one]))
        _assert_same_training(got, _plain_train_sampled(mdp, n, dcfg, scfg, cfg, one))
    # past the member cap the sets train in groups of 2 and 1, with the same bytes
    groups = []
    real_group = divset.training._train_sampled_group

    def recording_group(mdp, n, dcfg, scfg, cfg, group):
        groups.append(len(group))
        return real_group(mdp, n, dcfg, scfg, cfg, group)

    monkeypatch.setattr(divset.training, "_LOCKSTEP_MEMBERS", 2 * n)
    monkeypatch.setattr(divset.training, "_train_sampled_group", recording_group)
    for got, want in zip(train_sampled(mdp, n, dcfg, scfg, cfg, seeds), together):
        _assert_same_training(got, want)
    assert groups == [2, 1]


def test_sampled_trainer_is_deterministic_and_records_on_schedule():
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng, 4, 3, 2)
    cfg = SampleTrainConfig(total_episodes=30, episode_length=20, eval_every=10)
    [(a, trace)] = train_sampled(mdp, 2, _REPULSIVE, _DOMINO, cfg, [5])
    [(b, _)] = train_sampled(mdp, 2, _REPULSIVE, _DOMINO, cfg, [5])
    assert [rec.iteration for rec in trace] == [10, 20, 30]
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.policies, b.policies)
    assert np.all(a.policies > 0.0)  # softmax policies stay stochastic


def test_sampled_trainer_learns_a_simple_task():
    mdp = build_chain(4, end_reward=1.0)
    cfg = SampleTrainConfig(total_episodes=400, episode_length=60)
    [(pset, _)] = train_sampled(
        mdp, 1, _REPULSIVE, StrategyConfig(kind=StrategyKind.NO_DIVERSITY), cfg, [0]
    )
    v = policy_value(mdp, occupancy(mdp, pset.policies[0], Criterion.AVERAGE))
    assert v > 0.7  # most of the stationary mass reaches the rewarded end


def test_sampled_vstar_estimate_tracks_the_anchor():
    rng = np.random.default_rng(6)
    mdp = random_mdp(rng, 4, 3, 2)
    cfg = SampleTrainConfig(total_episodes=25, episode_length=20)
    [(pset, _)] = train_sampled(mdp, 2, _REPULSIVE, _DOMINO, cfg, [2])
    assert pset.vstar_estimate == pytest.approx(float(pset.avg_value[0]), abs=0.0)


def test_a_non_finite_learner_table_raises_training_diverged():
    mdp = build_chain(4, end_reward=1.0)
    cfg = SampleTrainConfig(total_episodes=20, episode_length=10, policy_lr=1e308)
    # the overflow warnings are the point here, not an error
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError, match="after episode"):
            train_sampled(mdp, 2, _REPULSIVE, _DOMINO, cfg, [0])
        with pytest.raises(TrainingDivergedError, match="after episode"):
            train_sampled(mdp, 2, _REPULSIVE, _DOMINO, cfg, range(3))


def test_exact_reductions_match_the_plain_best_response():
    mdp = build_chain(5, end_reward=1.0)
    pi_star, _ = best_response(mdp, mdp.reward[..., None], np.ones((1, 1)), Criterion.AVERAGE)
    v_star = policy_value(mdp, occupancy(mdp, pi_star[0], Criterion.AVERAGE))
    cfg = ExactTrainConfig(outer_iterations=10)
    for strategy in (
        StrategyConfig(kind=StrategyKind.MULTI_OBJECTIVE, c_e=1.0),
        StrategyConfig(kind=StrategyKind.SMERL, c_d=0.0),
        StrategyConfig(kind=StrategyKind.NO_DIVERSITY),
    ):
        [(pset, _)] = train_exact(mdp, 2, _REPULSIVE, strategy, cfg, [0])
        for pol in pset.policies:
            v = policy_value(mdp, occupancy(mdp, pol, Criterion.AVERAGE))
            assert v == pytest.approx(v_star, abs=1e-9)
