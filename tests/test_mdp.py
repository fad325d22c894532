"""Occupancies, values, and best responses."""

import dataclasses

import numpy as np
import pytest

import divset.mdp
from divset import (
    Criterion,
    InvalidMdpError,
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
from divset.envs import FeatureKind, build_gridworld, four_rooms_spec
from divset.mdp import _closed_classes, _gain_and_bias

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
    P_pi^t r_pi over that window is the gain.
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


def _scalar_improve(actions, q, allowed=True):
    current = q[np.arange(len(q)), actions][:, None]
    better = allowed & (q > current + 1e-12 * np.abs(q).max())
    return np.where(better.any(axis=1), np.argmax(better, axis=1), actions)


def _scalar_best_response(mdp, reward, criterion, start=None):
    """Oracle: the one-reward Howard iteration that the stacked solver
    replaced, with its multichain evaluation for every MDP. Returns actions."""
    S = mdp.num_states
    P = mdp.transition
    states = np.arange(S)
    actions = np.argmax(reward if start is None else start, axis=1)
    while True:
        P_pi, r_pi = P[states, actions], reward[states, actions]
        if criterion == Criterion.DISCOUNTED:
            v = np.linalg.solve(np.eye(S) - mdp.discount * P_pi, r_pi)
            improved = _scalar_improve(actions, reward + mdp.discount * (P @ v))
        else:
            cls = _closed_classes(P_pi, mdp.reach_under_every_policy)
            g, h = _gain_and_bias(P_pi, r_pi, cls)
            gain_q = P @ g
            improved = _scalar_improve(actions, gain_q)
            if np.array_equal(improved, actions):
                slack = 1e-12 * np.abs(gain_q).max()
                keeps_gain = gain_q >= gain_q[states, actions][:, None] - slack
                improved = _scalar_improve(actions, reward + P @ h, keeps_gain)
        if np.array_equal(improved, actions):
            return actions
        actions = improved


def _assert_matches_the_scalar_oracle(mdp, rewards, criterion, starts=None):
    got = best_response(mdp, rewards, criterion, starts)
    assert got.shape == rewards.shape
    for i in range(len(rewards)):
        start = None if starts is None else starts[i]
        expected = _scalar_best_response(mdp, rewards[i], criterion, start)
        assert np.array_equal(got[i], deterministic_policy(expected, mdp.num_actions)), i


@pytest.mark.parametrize("n", [1, 5, 10])
def test_stacked_best_response_matches_the_scalar_oracle_on_four_rooms(n):
    mdp = build_gridworld(four_rooms_spec())
    assert mdp.reach_under_every_policy.all()  # the unichain fast path
    rng = np.random.default_rng(n)
    shape = (n, mdp.num_states, mdp.num_actions)
    rewards = mdp.reward + rng.normal(0.0, 0.3, size=shape)
    _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.AVERAGE)
    starts = rng.dirichlet(np.ones(mdp.num_actions), size=shape[:2])
    _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.AVERAGE, starts)
    # each member's switch rule is relative to its own largest |q|
    scales = 10.0 ** np.linspace(-6.0, 6.0, n)[:, None, None]
    _assert_matches_the_scalar_oracle(mdp, scales * rewards, Criterion.AVERAGE, starts)


def test_stacked_best_response_matches_the_scalar_oracle_on_multichain_starts():
    # all 243 deterministic starts of the slip-free chain in one stack
    mdp = build_chain(5, end_reward=1.0)
    assert not mdp.reach_under_every_policy.all()  # the multichain path
    starts = deterministic_policy(deterministic_action_tables(5, 3), 3)
    rng = np.random.default_rng(11)
    for rewards in (np.tile(mdp.reward, (len(starts), 1, 1)), rng.normal(size=starts.shape)):
        _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.AVERAGE, starts)


def test_stacked_best_response_matches_the_scalar_oracle_when_discounted():
    rng = np.random.default_rng(12)
    for mdp in (build_gridworld(four_rooms_spec()), build_chain(5, end_reward=1.0)):
        shape = (6, mdp.num_states, mdp.num_actions)
        rewards = rng.normal(size=shape)
        _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.DISCOUNTED)
        starts = rng.dirichlet(np.ones(mdp.num_actions), size=shape[:2])
        _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.DISCOUNTED, starts)


def test_best_response_keeps_the_shape_of_one_reward_and_rejects_others():
    mdp = build_chain(5, end_reward=1.0)
    for criterion in Criterion:
        pol = best_response(mdp, mdp.reward, criterion)
        assert pol.shape == (5, 3)
        expected = _scalar_best_response(mdp, mdp.reward, criterion)
        assert np.array_equal(pol, deterministic_policy(expected, 3))
        assert best_response(mdp, mdp.reward[None], criterion).shape == (1, 5, 3)
    for bad in (np.zeros(15), np.zeros((5, 4)), np.zeros((2, 4, 3)), np.zeros((1, 2, 5, 3))):
        with pytest.raises(ValueError, match="reward"):
            best_response(mdp, bad, Criterion.AVERAGE)
    with pytest.raises(ValueError, match="start"):
        best_response(mdp, np.zeros((2, 5, 3)), Criterion.AVERAGE, np.zeros((5, 3)))


def _multichain_chain_mdps():
    """The slip-free chain (its own uniform d0, and a random one) with all its
    deterministic policies: "stay" everywhere makes every state its own class."""
    mdp = build_chain(5, end_reward=1.0)
    d0 = np.random.default_rng(13).dirichlet(np.ones(5))
    tables = deterministic_action_tables(5, 3)
    return (mdp, dataclasses.replace(mdp, initial_dist=d0)), tables


def test_average_value_is_the_gain_from_d0_for_every_multichain_policy():
    mdps, tables = _multichain_chain_mdps()
    states = np.arange(5)
    for mdp in mdps:
        for row in tables:
            occ = occupancy(mdp, deterministic_policy(row, 3), Criterion.AVERAGE)
            P_pi, r_pi = mdp.transition[states, row], mdp.reward[states, row]
            g, _ = _gain_and_bias(P_pi, r_pi, _closed_classes(P_pi, mdp.reach_under_every_policy))
            assert abs(policy_value(mdp, occ) - mdp.initial_dist @ g) < 1e-12, row


def test_average_state_marginal_is_the_cesaro_limit_for_every_multichain_policy():
    # as in _cesaro_gain: after S steps every path is on its cycle, and the
    # cycles repeat exactly over lcm(1..S) steps
    mdps, tables = _multichain_chain_mdps()
    window = np.lcm.reduce(np.arange(1, 6))
    for mdp in mdps:
        for row in tables:
            occ = occupancy(mdp, deterministic_policy(row, 3), Criterion.AVERAGE)
            P_pi = mdp.transition[np.arange(5), row]
            x = mdp.initial_dist @ np.linalg.matrix_power(P_pi, 5)
            total = np.zeros(5)
            for _ in range(window):
                total += x
                x = x @ P_pi
            assert np.max(np.abs(occ.reshape(5, 3).sum(axis=1) - total / window)) < 1e-12, row


def test_each_closed_class_gets_the_d0_mass_that_ends_up_in_it():
    # states 0 and 1 absorb under every action; state 2 is transient: action
    # 0 stays with probability 0.5 or moves to 0, action 1 moves to 1
    P = np.zeros((3, 2, 3))
    P[0, :, 0] = 1.0
    P[1, :, 1] = 1.0
    P[2, 0, [0, 2]] = 0.5
    P[2, 1, 1] = 1.0
    d0 = np.array([0.2, 0.3, 0.5])
    mdp = TabularMdp(P, np.zeros((3, 2)), np.zeros((6, 1)), 0.9, d0)
    policy = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]])
    # from state 2, a step stays w.p. 1/8 and leaves for 0 w.p. 1/8, so
    # state 2's mass goes 1/7 to state 0 and 6/7 to state 1
    rho = np.array([0.2 + 0.5 / 7, 0.3 + 0.5 * 6 / 7, 0.0])
    occ = stationary_distribution(mdp, policy)
    assert np.allclose(occ.reshape(3, 2), rho[:, None] * policy, rtol=0.0, atol=1e-15)


def test_occupancy_on_four_rooms_needs_no_class_detection(monkeypatch):
    def no_closure(*args):
        raise AssertionError("_closed_classes called")

    monkeypatch.setattr(divset.mdp, "_closed_classes", no_closure)
    mdp = build_gridworld(four_rooms_spec())
    rng = np.random.default_rng(14)
    for _ in range(5):
        policy = rng.dirichlet(np.ones(mdp.num_actions), size=mdp.num_states)
        assert abs(occupancy(mdp, policy, Criterion.AVERAGE).sum() - 1.0) < 1e-12
    # the patch is where occupancy looks: the slip-free chain does call it
    with pytest.raises(AssertionError, match="_closed_classes"):
        occupancy(build_chain(5), np.full((5, 3), 1.0 / 3), Criterion.AVERAGE)
