"""Occupancies, values, and best responses."""

import numpy as np
import pytest

from divset import (
    Criterion,
    InvalidMdpError,
    NonUnichainError,
    TabularMdp,
    best_response,
    build_chain,
    deterministic_policy,
    discounted_occupancy,
    expected_features,
    occupancy,
    policy_transition_matrix,
    policy_value,
    stationary_distribution,
    validate_mdp,
)
from divset.envs import FeatureKind

from helpers import deterministic_action_tables, random_mdp


def test_validate_rejects_bad_row_sums():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng, 3, 2, 1)
    P = mdp.transition.copy()
    P[1, 0, :] *= 0.5
    bad = TabularMdp(P, mdp.reward, mdp.features, mdp.discount, mdp.initial_dist)
    with pytest.raises(InvalidMdpError, match=r"row \(1, 0\)"):
        validate_mdp(bad)


def test_validate_rejects_negative_probability():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, 3, 2, 1)
    P = mdp.transition.copy()
    P[2, 1, 0] -= 0.2
    P[2, 1, 1] += 0.2
    bad = TabularMdp(P, mdp.reward, mdp.features, mdp.discount, mdp.initial_dist)
    with pytest.raises(InvalidMdpError, match="negative"):
        validate_mdp(bad)


def test_validate_rejects_shape_and_range_errors():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng, 3, 2, 2)
    with pytest.raises(InvalidMdpError, match="reward"):
        validate_mdp(TabularMdp(mdp.transition, np.zeros((3, 3)), mdp.features, 0.9, mdp.initial_dist))
    with pytest.raises(InvalidMdpError, match="features"):
        validate_mdp(TabularMdp(mdp.transition, mdp.reward, np.zeros((5, 2)), 0.9, mdp.initial_dist))
    with pytest.raises(InvalidMdpError, match="discount"):
        validate_mdp(TabularMdp(mdp.transition, mdp.reward, mdp.features, 1.0, mdp.initial_dist))
    with pytest.raises(InvalidMdpError, match="initial_dist"):
        validate_mdp(TabularMdp(mdp.transition, mdp.reward, mdp.features, 0.9, np.full(3, 0.5)))


def test_stationary_distribution_is_a_fixed_point():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mdp = random_mdp(rng, int(rng.integers(2, 8)), int(rng.integers(2, 4)), 2)
        pol = rng.dirichlet(np.ones(mdp.num_actions), size=mdp.num_states)
        occ = stationary_distribution(mdp, pol)
        assert occ.shape == (mdp.num_states * mdp.num_actions,)
        assert occ.min() >= 0.0
        assert abs(occ.sum() - 1.0) < 1e-12
        rho = occ.reshape(mdp.num_states, -1).sum(axis=1)
        P_pi = policy_transition_matrix(mdp, pol)
        assert np.max(np.abs(rho @ P_pi - rho)) < 1e-9
        # d factorises as rho(s) pi(a | s)
        assert np.allclose(occ.reshape(mdp.num_states, -1), rho[:, None] * pol)


def test_discounted_occupancy_satisfies_flow_conservation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mdp = random_mdp(rng, int(rng.integers(2, 8)), int(rng.integers(2, 4)), 2)
        pol = rng.dirichlet(np.ones(mdp.num_actions), size=mdp.num_states)
        occ = discounted_occupancy(mdp, pol)
        assert occ.shape == (mdp.num_states * mdp.num_actions,)
        assert abs(occ.sum() - 1.0) < 1e-12
        m = occ.reshape(mdp.num_states, -1).sum(axis=1)
        P_pi = policy_transition_matrix(mdp, pol)
        resid = m - ((1.0 - mdp.discount) * mdp.initial_dist + mdp.discount * P_pi.T @ m)
        assert np.max(np.abs(resid)) < 1e-12


def test_discounted_value_matches_bellman_solve():
    # <r, d> against the direct (I - gamma P_pi)^{-1} evaluation from d0
    rng = np.random.default_rng(5)
    for _ in range(10):
        mdp = random_mdp(rng, 5, 3, 1)
        pol = rng.dirichlet(np.ones(3), size=5)
        v_occ = policy_value(mdp, discounted_occupancy(mdp, pol))
        P_pi = policy_transition_matrix(mdp, pol)
        r_pi = (pol * mdp.reward).sum(axis=1)
        v_s = np.linalg.solve(np.eye(5) - mdp.discount * P_pi, r_pi)
        assert abs(v_occ - (1.0 - mdp.discount) * mdp.initial_dist @ v_s) < 1e-12


def test_one_hot_expected_features_equal_the_state_marginal():
    mdp = build_chain(5, FeatureKind.ONE_HOT_STATE)
    rng = np.random.default_rng(6)
    pol = rng.dirichlet(np.ones(3), size=5)
    occ = discounted_occupancy(mdp, pol)
    assert np.allclose(expected_features(mdp, occ), occ.reshape(5, 3).sum(axis=1), atol=1e-12)


def test_best_response_dominates_random_policies():
    rng = np.random.default_rng(8)
    for criterion in (Criterion.DISCOUNTED, Criterion.AVERAGE):
        mdp = random_mdp(rng, 5, 3, 1)
        pol = best_response(mdp, mdp.reward, criterion)
        v_star = policy_value(mdp, occupancy(mdp, pol, criterion))
        for _ in range(25):
            other = rng.dirichlet(np.ones(3), size=5)
            v = policy_value(mdp, occupancy(mdp, other, criterion))
            assert v <= v_star + 1e-9


def test_best_response_breaks_ties_to_the_lowest_action():
    rng = np.random.default_rng(9)
    mdp = random_mdp(rng, 4, 3, 1)
    for criterion in (Criterion.DISCOUNTED, Criterion.AVERAGE):
        pol = best_response(mdp, np.zeros((4, 3)), criterion)
        assert np.array_equal(pol, deterministic_policy(np.zeros(4, dtype=int), 3))


def test_best_response_value_does_not_depend_on_the_start():
    rng = np.random.default_rng(10)
    for criterion in (Criterion.DISCOUNTED, Criterion.AVERAGE):
        mdp = random_mdp(rng, 6, 3, 1)
        cold = policy_value(mdp, occupancy(mdp, best_response(mdp, mdp.reward, criterion), criterion))
        for _ in range(20):
            start = rng.dirichlet(np.ones(3), size=6)
            pol = best_response(mdp, mdp.reward, criterion, start)
            assert abs(policy_value(mdp, occupancy(mdp, pol, criterion)) - cold) < 1e-12


def _cesaro_gain(mdp: TabularMdp, actions: np.ndarray) -> np.ndarray:
    """Per-state gain of a deterministic policy on a deterministic MDP.

    After S steps every path is on its cycle, and a cycle of at most S
    states repeats exactly over lcm(1..S) steps, so the Cesaro average of
    P_pi^t r_pi over that window is the gain, without smoothing the
    recurrent classes together as occupancy does.
    """
    S = mdp.num_states
    P_pi = mdp.transition[np.arange(S), actions]
    x = np.linalg.matrix_power(P_pi, S) @ mdp.reward[np.arange(S), actions]
    window = np.lcm.reduce(np.arange(1, S + 1))
    total = np.zeros(S)
    for _ in range(window):
        total += x
        x = P_pi @ x
    return total / window


def test_best_response_is_gain_optimal_from_every_multichain_start():
    # the slip-free chain: "stay" everywhere makes every state its own class
    mdp = build_chain(5, end_reward=1.0)
    tables = deterministic_action_tables(5, 3)
    best = np.max([_cesaro_gain(mdp, row) for row in tables], axis=0)
    for row in tables:
        pol = best_response(mdp, mdp.reward, Criterion.AVERAGE, deterministic_policy(row, 3))
        gain = _cesaro_gain(mdp, np.argmax(pol, axis=1))
        assert np.max(np.abs(gain - best)) < 1e-12, row


def test_disconnected_chain_raises_non_unichain():
    # two absorbing states under every action: no unique stationary distribution
    P = np.zeros((2, 2, 2))
    P[0, :, 0] = 1.0
    P[1, :, 1] = 1.0
    mdp = TabularMdp(P, np.zeros((2, 2)), np.zeros((4, 1)), 0.9, np.array([0.5, 0.5]))
    with pytest.warns(RuntimeWarning, match="stationary"):
        with pytest.raises(NonUnichainError):
            stationary_distribution(mdp, np.full((2, 2), 0.5))
