"""Occupancies, values, and best responses."""

import dataclasses
import itertools

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
from divset.mdp import _classes, _closed_classes, _gain_and_bias

from helpers import deterministic_action_tables, random_mdp

ONE = np.ones((1, 1))  # a plain reward's coefficient, as a one-column basis


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
        pol = best_response(mdp, mdp.reward[..., None], ONE, criterion)[0][0]
        v_star = policy_value(mdp, occupancy(mdp, pol, criterion))
        for _ in range(25):
            other = rng.dirichlet(np.ones(3), size=5)
            v = policy_value(mdp, occupancy(mdp, other, criterion))
            assert v <= v_star + 1e-9


def test_best_response_breaks_ties_to_the_lowest_action():
    rng = np.random.default_rng(9)
    mdp = random_mdp(rng, 4, 3, 1)
    for criterion in (Criterion.DISCOUNTED, Criterion.AVERAGE):
        pol = best_response(mdp, np.zeros((4, 3, 1)), ONE, criterion)[0][0]
        assert np.array_equal(pol, deterministic_policy(np.zeros(4, dtype=int), 3))


def test_best_response_value_does_not_depend_on_the_start():
    rng = np.random.default_rng(10)
    for criterion in (Criterion.DISCOUNTED, Criterion.AVERAGE):
        mdp = random_mdp(rng, 6, 3, 1)
        cold = best_response(mdp, mdp.reward[..., None], ONE, criterion)[0][0]
        cold = policy_value(mdp, occupancy(mdp, cold, criterion))
        for _ in range(20):
            start = rng.dirichlet(np.ones(3), size=6)
            pol = best_response(mdp, mdp.reward[..., None], ONE, criterion, start[None])[0][0]
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
        start = deterministic_policy(row, 3)[None]
        pol = best_response(mdp, mdp.reward[..., None], ONE, Criterion.AVERAGE, start)[0][0]
        gain = _cesaro_gain(mdp, np.argmax(pol, axis=1))
        assert np.max(np.abs(gain - best)) < 1e-12, row


def _scalar_improve(actions, q, allowed=True):
    """Howard's greedy rule for one member, one state at a time."""
    slack = 1e-12 * np.abs(q).max()
    improved = actions.copy()
    for s, row in enumerate(q):
        candidates = [a for a in range(len(row)) if np.all(allowed) or allowed[s, a]]
        best = max(candidates, key=lambda a: (row[a], -a))
        if row[best] > row[actions[s]] + slack:
            improved[s] = best
    return improved


def _solve_alone(P_pi, r_pi, cls):
    """_gain_and_bias for one policy, as a stack of one."""
    g, h = _gain_and_bias((np.eye(len(cls)) - P_pi)[None], r_pi[None, :, None], _classes(cls[None]))
    return np.broadcast_to(g, h.shape)[0, :, 0], h[0, :, 0]


def _scalar_best_response(mdp, reward, criterion, start=None):
    """Oracle: the one-reward Howard iteration, with the multichain evaluation
    on every MDP and the gain stage only with several classes. Returns actions."""
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
            g, h = _solve_alone(P_pi, r_pi, cls)
            improved, keeps_gain = actions, True
            # with one class P g is the gain times a row sum: no gain stage
            if np.count_nonzero(cls == states) > 1:
                gain_q = P @ g
                improved = _scalar_improve(actions, gain_q)
                slack = 1e-12 * np.abs(gain_q).max()
                keeps_gain = gain_q >= gain_q[states, actions][:, None] - slack
            if np.array_equal(improved, actions):
                improved = _scalar_improve(actions, reward + P @ h, keeps_gain)
        if np.array_equal(improved, actions):
            return actions
        actions = improved


def _assert_matches_the_scalar_oracle(mdp, rewards, criterion, starts=None):
    got, _ = best_response(mdp, rewards[..., None], np.ones((len(rewards), 1)), criterion, starts)
    assert got.shape == rewards.shape
    for i in range(len(rewards)):
        start = None if starts is None else starts[i]
        expected = _scalar_best_response(mdp, rewards[i], criterion, start)
        assert np.array_equal(got[i], deterministic_policy(expected, mdp.num_actions)), i


@pytest.mark.parametrize("n", [1, 5, 10])
def test_stacked_best_response_matches_the_scalar_oracle_on_four_rooms(n):
    mdp = build_gridworld(four_rooms_spec())
    assert mdp.reach_under_every_policy.all()  # no class detection
    rng = np.random.default_rng(n)
    shape = (n, mdp.num_states, mdp.num_actions)
    rewards = mdp.reward + rng.normal(0.0, 0.3, size=shape)
    _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.AVERAGE)
    starts = rng.dirichlet(np.ones(mdp.num_actions), size=shape[:2])
    _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.AVERAGE, starts)
    # each member's switch rule is relative to its own largest |q|
    scales = 10.0 ** np.linspace(-6.0, 6.0, n)[:, None, None]
    _assert_matches_the_scalar_oracle(mdp, scales * rewards, Criterion.AVERAGE, starts)


def _absorbing_mdp(seed: int) -> TabularMdp:
    """A random 8-state MDP whose rows reach at most two states; state 0
    absorbs under every action and state 1 under action 0: its deterministic
    policies have one or several closed classes and often transient states."""
    rng = np.random.default_rng(seed)
    S, A = 8, 3
    P = np.zeros((S, A, S))
    for s, a in np.ndindex(S, A):
        P[s, a, rng.choice(S, size=2, replace=False)] = rng.dirichlet(np.ones(2))
    P[0], P[1, 0] = np.eye(S)[0], np.eye(S)[1]
    mdp = TabularMdp(P, rng.normal(size=(S, A)), np.eye(S * A), 0.9, np.full(S, 1.0 / S))
    validate_mdp(mdp)
    return mdp


def test_stacked_best_response_matches_the_scalar_oracle_on_multichain_starts():
    # all 243 deterministic starts of the slip-free chain in one stack, then
    # stacks that mix members with one class, with several and with
    # transient states
    chain = build_chain(5, end_reward=1.0)
    inputs = [(chain, deterministic_action_tables(5, 3))]
    rng = np.random.default_rng(11)
    inputs += [(_absorbing_mdp(seed), rng.integers(0, 3, size=(60, 8))) for seed in range(3)]
    for mdp, tables in inputs:
        assert not mdp.reach_under_every_policy.all()  # class detection runs
        states = np.arange(mdp.num_states)
        P_pi, r_pi = mdp.transition[states, tables], mdp.reward[states, tables]
        classes = _classes(_closed_classes(P_pi, mdp.reach_under_every_policy))
        table, members, _, _, transient, several = classes
        assert transient.size and several.size and np.any(np.bincount(members) == 1)
        # the stacked evaluation gives each member the bytes of its own
        g, h = _gain_and_bias(np.eye(len(states)) - P_pi, r_pi[..., None], classes)
        g, h = g[..., 0], h[..., 0]
        for i in range(len(tables)):
            alone = _solve_alone(P_pi[i], r_pi[i], table[i])
            assert g[i].tobytes() == alone[0].tobytes() and h[i].tobytes() == alone[1].tobytes()
        starts = deterministic_policy(tables, mdp.num_actions)
        for rewards in (np.tile(mdp.reward, (len(starts), 1, 1)), rng.normal(size=starts.shape)):
            for criterion in Criterion:
                _assert_matches_the_scalar_oracle(mdp, rewards, criterion, starts)


def test_stacked_best_response_matches_the_scalar_oracle_when_discounted():
    rng = np.random.default_rng(12)
    for mdp in (build_gridworld(four_rooms_spec()), build_chain(5, end_reward=1.0)):
        shape = (6, mdp.num_states, mdp.num_actions)
        rewards = rng.normal(size=shape)
        _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.DISCOUNTED)
        starts = rng.dirichlet(np.ones(mdp.num_actions), size=shape[:2])
        _assert_matches_the_scalar_oracle(mdp, rewards, Criterion.DISCOUNTED, starts)


def test_best_response_takes_a_plain_reward_as_a_one_column_basis_and_rejects_bad_shapes():
    mdp = build_chain(5, end_reward=1.0)
    for criterion in Criterion:
        pol, (gains, biases) = best_response(mdp, mdp.reward[..., None], ONE, criterion)
        assert pol.shape == (1, 5, 3) and gains.shape == biases.shape == (1, 5, 1)
        expected = _scalar_best_response(mdp, mdp.reward, criterion)
        assert np.array_equal(pol[0], deterministic_policy(expected, 3))
    for bad in (np.zeros((5, 3)), np.zeros((5, 4, 1)), np.zeros((2, 4, 3, 1)), np.zeros((1, 2, 5, 3, 1))):
        with pytest.raises(ValueError, match="basis"):
            best_response(mdp, bad, ONE, Criterion.AVERAGE)
    for basis, coefficients in (
        (np.zeros((5, 3, 2)), ONE),
        (np.zeros((2, 5, 3, 1)), np.ones((3, 1))),
        (np.zeros((5, 3, 1)), np.ones(1)),
    ):
        with pytest.raises(ValueError, match="coefficients"):
            best_response(mdp, basis, coefficients, Criterion.AVERAGE)
    two = np.ones((2, 1))
    with pytest.raises(ValueError, match="start"):
        best_response(mdp, np.zeros((5, 3, 1)), two, Criterion.AVERAGE, np.zeros((5, 3)))
    evaluations = (np.zeros((2, 5, 1)), np.zeros((2, 5, 1)))
    with pytest.raises(ValueError, match="evaluations"):
        best_response(mdp, np.zeros((5, 3, 1)), two, Criterion.AVERAGE, evaluations=evaluations)
    with pytest.raises(ValueError, match="evaluations"):
        starts = np.zeros((2, 5, 3))
        best_response(mdp, np.zeros((5, 3, 1)), two, Criterion.AVERAGE, starts, evaluations[:1] * 3)


def _reward_basis(mdp: TabularMdp) -> np.ndarray:
    """The exact trainer's basis: the extrinsic reward, then the feature columns."""
    return np.concatenate([mdp.reward[..., None], mdp.features_sa], axis=2)


def _assert_evaluations_give_values_and_features(mdp, criterion, policies, evaluations):
    """d0 . gains of each column is the policy's value, then its expected
    features, as occupancy gives them, within a relative 1e-12 per column."""
    occs = occupancy(mdp, policies, criterion)
    expected = np.column_stack([policy_value(mdp, occs), expected_features(mdp, occs)])
    measured = mdp.initial_dist @ evaluations[0]
    scale = np.abs(expected).max(axis=0)
    assert np.all(np.abs(measured - expected) <= 1e-12 * scale)


def test_basis_evaluations_give_values_and_features_and_replace_the_first_round():
    rng = np.random.default_rng(16)
    chain = build_chain(5, end_reward=1.0)
    dense = random_mdp(rng, 12, 3, 8)
    for mdp in (build_gridworld(four_rooms_spec()), dense, chain, _absorbing_mdp(0)):
        S, A = mdp.num_states, mdp.num_actions
        basis = _reward_basis(mdp)
        K = basis.shape[-1]
        # on the multichain MDPs the evaluated policies have one or several
        # closed classes and transient states: a zero reward keeps every start
        starts = [(rng.dirichlet(np.ones(A), size=(6, S)), False)]
        if not mdp.reach_under_every_policy.all():
            tables = deterministic_action_tables(S, A) if mdp is chain else rng.integers(0, A, (40, S))
            starts.append((deterministic_policy(tables, A), True))
        for criterion, (start, keep) in itertools.product(Criterion, starts):
            n = len(start)
            coefficients = np.zeros((n, K)) if keep else rng.normal(size=(n, K))
            policies, evaluations = best_response(mdp, basis, coefficients, criterion, start)
            if keep:
                assert np.array_equal(policies, start)
            _assert_evaluations_give_values_and_features(mdp, criterion, policies, evaluations)
            # the next call from these policies, with and without their evaluations
            coefficients = rng.normal(size=(n, K))
            given = best_response(mdp, basis, coefficients, criterion, policies, evaluations)
            solved = best_response(mdp, basis, coefficients, criterion, policies)
            assert np.array_equal(given[0], solved[0])
            for a, b in zip(given[1], solved[1]):
                assert a.tobytes() == b.tobytes()
            _assert_evaluations_give_values_and_features(mdp, criterion, *given)


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
            g, _ = _solve_alone(P_pi, r_pi, _closed_classes(P_pi, mdp.reach_under_every_policy))
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


def _assert_rows_have_the_bytes_of_single_calls(mdp: TabularMdp, policies: np.ndarray) -> None:
    """Row i of the stacked occupancy, value and features of an (..., S, A)
    stack has the bytes of the single-policy calls on its policy."""
    S, A, d = mdp.num_states, mdp.num_actions, mdp.feature_dim
    batch = policies.shape[:-2]
    for criterion in Criterion:
        occs = occupancy(mdp, policies, criterion)
        values, psis = policy_value(mdp, occs), expected_features(mdp, occs)
        assert (occs.shape, values.shape, psis.shape) == ((*batch, S * A), batch, (*batch, d))
        rows = occs.reshape(-1, S * A), values.ravel(), psis.reshape(-1, d)
        for policy, occ, value, psi in zip(policies.reshape(-1, S, A), *rows):
            alone = occupancy(mdp, policy, criterion)
            assert occ.tobytes() == alone.tobytes()
            assert isinstance(policy_value(mdp, alone), float)
            assert value.tobytes() == np.float64(policy_value(mdp, alone)).tobytes()
            assert psi.tobytes() == expected_features(mdp, alone).tobytes()


def test_stacked_evaluation_gives_each_policy_the_bytes_of_its_own_call():
    rng = np.random.default_rng(15)
    chain = build_chain(5, end_reward=1.0)
    mdps = [build_gridworld(four_rooms_spec()), chain]
    mdps += [_absorbing_mdp(seed) for seed in range(3)]
    mdps += [random_mdp(rng, 6, 3, 4) for _ in range(3)]
    for mdp in mdps:
        S, A = mdp.num_states, mdp.num_actions
        stochastic = rng.dirichlet(np.ones(A), size=(2, 5, S))
        tables = deterministic_action_tables(S, A) if mdp is chain else rng.integers(0, A, (20, S))
        # members with one class, with several and with transient states in one stack
        mixed = np.concatenate([deterministic_policy(tables, A), stochastic[0]])
        for policies in (stochastic, stochastic[1], mixed, mixed[:0]):  # 4-D, 3-D and empty
            _assert_rows_have_the_bytes_of_single_calls(mdp, policies)


def test_occupancy_on_four_rooms_needs_no_class_detection(monkeypatch):
    def no_closure(*args):
        raise AssertionError("_closed_classes called")

    monkeypatch.setattr(divset.mdp, "_closed_classes", no_closure)
    mdp = build_gridworld(four_rooms_spec())
    rng = np.random.default_rng(14)
    for _ in range(5):
        policy = rng.dirichlet(np.ones(mdp.num_actions), size=mdp.num_states)
        assert abs(occupancy(mdp, policy, Criterion.AVERAGE).sum() - 1.0) < 1e-12
    shape = (6, mdp.num_states, mdp.num_actions)
    for criterion in Criterion:
        rewards = mdp.reward + rng.normal(0.0, 0.3, size=shape)
        best_response(mdp, rewards[..., None], np.ones((len(rewards), 1)), criterion)
    # the patch is where occupancy and best_response look: the slip-free
    # chain does call it
    with pytest.raises(AssertionError, match="_closed_classes"):
        occupancy(build_chain(5), np.full((5, 3), 1.0 / 3), Criterion.AVERAGE)
    with pytest.raises(AssertionError, match="_closed_classes"):
        best_response(build_chain(5), build_chain(5).reward[..., None], ONE, Criterion.AVERAGE)


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = np.linalg.solve

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_one_class_has_no_gain_stage_to_trip_on_row_sum_rounding():
    # state 1 absorbs with reward 0.5; from state 0, action 0 moves there
    # with reward 1 and action 1 with reward 0 and "probability" 1 + 1e-10,
    # a row sum that validation allows. P g is then larger for action 1 by
    # the rounding alone, but h(0) is 1.0 larger for action 0.
    P = np.zeros((2, 2, 2))
    P[:, :, 1] = [[1.0, 1.0 + 1e-10], [1.0, 1.0]]
    mdp = TabularMdp(P, np.array([[1.0, 0.0], [0.5, 0.5]]), np.eye(4), 0.9, np.array([1.0, 0.0]))
    validate_mdp(mdp)
    start = deterministic_policy(np.zeros(2, dtype=int), 2)
    pol = best_response(mdp, mdp.reward[..., None], ONE, Criterion.AVERAGE, start[None])[0][0]
    assert np.array_equal(np.argmax(pol, axis=1), [0, 0])


def test_howard_moves_a_state_to_its_best_action_in_one_round(monkeypatch):
    # one state, three self-loops: the lowest improving action (1) would
    # need a third evaluation, the best action (2) needs two
    mdp = TabularMdp(np.ones((1, 3, 1)), np.array([[0.0, 1.0, 2.0]]), np.eye(3), 0.9, np.ones(1))
    start = deterministic_policy(np.zeros(1, dtype=int), 3)
    calls = _count_solves(monkeypatch)
    pol = best_response(mdp, mdp.reward[..., None], ONE, Criterion.AVERAGE, start[None])[0][0]
    assert np.array_equal(pol, deterministic_policy(np.array([2]), 3))
    assert len(calls) == 2


def test_howard_moves_a_state_to_its_best_gain_in_one_round_on_a_multichain_mdp(monkeypatch):
    # state 0 stays, or moves to absorbing state 1 (gain 1) or 2 (gain 2)
    P = np.zeros((3, 3, 3))
    P[0, np.arange(3), np.arange(3)] = 1.0
    P[1, :, 1] = 1.0
    P[2, :, 2] = 1.0
    reward = np.repeat(np.arange(3.0)[:, None], 3, axis=1)
    mdp = TabularMdp(P, reward, np.eye(9), 0.9, np.full(3, 1.0 / 3))
    assert not mdp.reach_under_every_policy.all()  # class detection runs
    start = deterministic_policy(np.zeros(3, dtype=int), 3)
    calls = _count_solves(monkeypatch)
    pol = best_response(mdp, mdp.reward[..., None], ONE, Criterion.AVERAGE, start[None])[0][0]
    assert np.array_equal(np.argmax(pol, axis=1), [2, 0, 0])
    # one solve with every state recurrent, then three with state 0
    # transient; moving to action 1 first would cost three more
    assert len(calls) == 4
