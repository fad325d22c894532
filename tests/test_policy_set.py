"""Policy-set state, moving averages, and the Lagrange player."""

import copy

import numpy as np
import pytest

from divset import (
    AdamState,
    MovingAverageConfig,
    StrategyConfig,
    StrategyKind,
    init_set,
    lagrange_step,
    lagrange_step_adam,
    policy_set_from_json,
    policy_set_to_json,
    update_moving_averages,
    weights,
)
from divset.policy_set import MU_BOUND, sigmoid


def test_init_set_state():
    pset = init_set(3, 4, num_states=5, num_actions=2)
    assert pset.n == 3
    assert np.array_equal(pset.mu, np.zeros(3))
    assert np.array_equal(pset.avg_value, np.zeros(3))
    assert np.array_equal(pset.avg_psi, np.full((3, 4), 0.25))
    assert pset.vstar_estimate == 0.0
    assert np.array_equal(pset.policies, np.full((3, 5, 2), 0.5))


def test_init_set_random_needs_rng_and_differs_per_seed():
    with pytest.raises(ValueError, match="rng"):
        init_set(2, 1, 3, 2, policy_init="random")
    a = init_set(2, 1, 3, 2, policy_init="random", rng=np.random.default_rng(0))
    b = init_set(2, 1, 3, 2, policy_init="random", rng=np.random.default_rng(1))
    assert not np.array_equal(a.policies[0], b.policies[0])
    # one draw for the set makes the same draws as one per member in turn
    rng = np.random.default_rng(0)
    assert np.array_equal(a.policies, [rng.dirichlet(np.ones(2), size=3) for _ in range(2)])
    with pytest.raises(ValueError, match="policy_init"):
        init_set(2, 1, 3, 2, policy_init="sorted")


def test_anchor_weight_is_pinned_regardless_of_mu():
    pset = init_set(2, 1, 2, 2)
    pset.mu[0] = -50.0
    assert pset.extrinsic_weights()[0] == 1.0
    assert pset.extrinsic_weights()[1] == pytest.approx(0.5)


def test_moving_average_update_formula():
    pset = init_set(2, 2, 2, 2)
    pset.avg_value[1] = 2.0
    pset.avg_psi[1] = np.array([0.0, 1.0])
    cfg = MovingAverageConfig(value_decay=0.9, feature_decay=0.5)
    update_moving_averages(pset, 1, 1.0, np.array([2.0, 1.0]), cfg)
    # decay * old + (1 - decay) * measured, per statistic
    assert pset.avg_value[1] == pytest.approx(0.9 * 2.0 + 0.1 * 1.0)
    assert np.allclose(pset.avg_psi[1], [0.5 * 0.0 + 0.5 * 2.0, 0.5 * 1.0 + 0.5 * 1.0])
    # one call over several members updates each row as a call of its own would
    both = copy.deepcopy(pset)
    values, psis = np.array([3.0, -1.0]), np.array([[1.0, 0.0], [0.0, 4.0]])
    update_moving_averages(both, np.arange(2), values, psis, cfg)
    for i in range(2):
        update_moving_averages(pset, i, values[i], psis[i], cfg)
    assert np.array_equal(both.avg_value, pset.avg_value)
    assert np.array_equal(both.avg_psi, pset.avg_psi)


def test_lagrange_step_signs_follow_the_constraint_residual():
    pset = init_set(3, 1, 2, 2)
    pset.vstar_estimate = 1.0
    pset.avg_value[:] = [1.0, 0.8, 1.0]  # member 1 below 0.9 v*, member 2 above
    mu_before = pset.mu.copy()
    lagrange_step(pset, alpha=0.9, lr=0.5)
    assert pset.mu[0] == mu_before[0]
    assert pset.mu[1] > mu_before[1]
    assert pset.mu[2] < mu_before[2]


def test_lagrange_step_projects_onto_the_mu_box():
    pset = init_set(2, 1, 2, 2)
    pset.vstar_estimate = 1.0
    pset.avg_value[:] = [1.0, 0.0]
    lagrange_step(pset, alpha=1.0, lr=1e6)
    assert pset.mu[1] == MU_BOUND
    pset.avg_value[1] = 100.0
    lagrange_step(pset, alpha=0.0, lr=1e6)
    assert pset.mu[1] == -MU_BOUND


def test_sigmoid_and_the_mu_box_clip_as_np_clip_does():
    x = np.array([-np.inf, -1e3, -60.0, -59.5, -4.5, -4.0, -0.0, 0.0, 3.9, 4.0, 60.0, 1e3, np.inf])
    want = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
    assert sigmoid(x).tobytes() == want.tobytes()
    assert [sigmoid(v) for v in x] == want.tolist()
    assert np.isnan(sigmoid(np.nan))
    # with lr = 0 the step leaves every finite mu as it is, then projects it
    finite = x[np.isfinite(x)]
    pset = init_set(len(finite) + 1, 1, 2, 2)
    pset.mu[1:] = finite
    lagrange_step(pset, alpha=0.5, lr=0.0)
    assert pset.mu[1:].tobytes() == np.clip(finite, -MU_BOUND, MU_BOUND).tobytes()


def test_adam_step_matches_the_gradient_sign_and_projects():
    pset = init_set(3, 1, 2, 2)
    pset.vstar_estimate = 1.0
    pset.avg_value[:] = [1.0, 0.8, 1.0]
    state = AdamState.zeros(2)
    lagrange_step_adam(pset, alpha=0.9, lr=0.1, state=state)
    assert pset.mu[0] == 0.0
    assert pset.mu[1] > 0.0
    assert pset.mu[2] < 0.0
    assert state.t == 1
    for _ in range(500):
        lagrange_step_adam(pset, alpha=0.9, lr=1.0, state=state)
    assert abs(pset.mu[1]) <= MU_BOUND and abs(pset.mu[2]) <= MU_BOUND


def test_one_stacked_step_equals_the_per_set_steps_bit_for_bit():
    rng = np.random.default_rng(8)
    sets, n, d = 4, 5, 3
    psets = [init_set(n, d, 2, 2) for _ in range(sets)]
    for pset in psets:
        pset.mu[:] = rng.normal(scale=3.0, size=n)
        pset.avg_value[:] = rng.uniform(size=n)
        pset.avg_psi[:] = rng.uniform(size=(n, d))
        pset.vstar_estimate = float(pset.avg_value[0])
    stack = init_set(n, d, 2, 2)
    stack.mu, stack.avg_value, stack.avg_psi = (
        np.stack([getattr(p, f) for p in psets]) for f in ("mu", "avg_value", "avg_psi")
    )
    stack.vstar_estimate = stack.avg_value[:, :1]  # a view: each set's anchor v~
    states = [AdamState.zeros(n - 1) for _ in range(sets)]
    stacked_state = AdamState.zeros((sets, n - 1))
    cfg = MovingAverageConfig(value_decay=0.7, feature_decay=0.9)
    for _ in range(30):
        members = rng.integers(n, size=sets)
        values, psis = rng.uniform(size=sets), rng.uniform(size=(sets, d))
        update_moving_averages(stack, (np.arange(sets), members), values, psis, cfg)
        lagrange_step_adam(stack, 0.9, 0.3, stacked_state)
        lagrange_step(stack, 0.8, 0.7)
        for g, pset in enumerate(psets):
            update_moving_averages(pset, int(members[g]), values[g], psis[g], cfg)
            pset.vstar_estimate = float(pset.avg_value[0])
            lagrange_step_adam(pset, 0.9, 0.3, states[g])
            lagrange_step(pset, 0.8, 0.7)
    assert stacked_state.t == 30
    for g, pset in enumerate(psets):
        assert stack.mu[g].tobytes() == pset.mu.tobytes()
        assert stack.avg_value[g].tobytes() == pset.avg_value.tobytes()
        assert stack.avg_psi[g].tobytes() == pset.avg_psi.tobytes()
        assert stacked_state.m[g].tobytes() == states[g].m.tobytes()
        assert stacked_state.v[g].tobytes() == states[g].v.tobytes()
    # the projection was exercised, and the anchors' mu never moved
    assert np.all(np.abs(stack.mu[:, 1:]) <= MU_BOUND) and np.any(np.abs(stack.mu) == MU_BOUND)
    assert np.any(np.abs(stack.mu[:, 0]) > MU_BOUND)
    # the weights table of the stack is each set's own, for every strategy.
    # Set 0's member 1 sits exactly at alpha v~_1, which satisfies the strict
    # Smerl test, and its member 2 just below it, which violates it.
    at = 0.9 * stack.avg_value[0, 0]
    stack.avg_value[0, 1:3] = psets[0].avg_value[1:3] = [at, np.nextafter(at, -np.inf)]
    for kind in StrategyKind:
        strategy = StrategyConfig(kind=kind, alpha=0.9, c_d=0.25, c_e=0.3)
        table = weights(strategy, stack)
        assert table.shape == (sets, n, 2)
        for g, pset in enumerate(psets):
            assert table[g].tobytes() == weights(strategy, pset).tobytes(), (kind, g)
        if kind == StrategyKind.SMERL:
            assert table[0, 1:3].tolist() == [[1.0, 0.25], [1.0, 0.0]]
        elif kind == StrategyKind.REVERSE_SMERL:
            assert table[0, 1:3].tolist() == [[0.0, 0.25], [1.0, 0.25]]


def test_policy_set_json_round_trip():
    rng = np.random.default_rng(3)
    pset = init_set(2, 3, 4, 2, policy_init="random", rng=rng)
    pset.mu[1] = -1.25
    pset.avg_value[:] = [0.5, 0.25]
    pset.avg_psi[:] = rng.uniform(size=(2, 3))
    pset.vstar_estimate = 0.75
    back = policy_set_from_json(policy_set_to_json(pset))
    assert back.n == pset.n
    assert np.array_equal(back.mu, pset.mu)
    assert np.array_equal(back.avg_value, pset.avg_value)
    assert np.array_equal(back.avg_psi, pset.avg_psi)
    assert back.vstar_estimate == pset.vstar_estimate
    assert np.array_equal(back.policies, pset.policies)
