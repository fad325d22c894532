"""Diversity objectives, rewards, and their gradient identity."""

import dataclasses
import warnings

import numpy as np
import pytest

from divset import (
    DiversityConfig,
    DiversityKind,
    RewardScaling,
    diversity_objective,
    diversity_score,
    reward_table,
)
from divset.diversity import _nearest

from helpers import KERNEL_CASES, member_reward, own_objective_term

_REPULSIVE = DiversityConfig(kind=DiversityKind.REPULSIVE)


def test_nearest_index_picks_closest_and_breaks_ties_low():
    # with identity features the repulsive reward is psi^i - psi^j itself
    identity = np.eye(2).reshape(1, 2, 2)
    psis = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    reward = member_reward(identity, psis, 0, _REPULSIVE)
    assert np.array_equal(reward, [[0.0, -1.0]])  # nearest is member 2, at distance 1
    # equidistant neighbours resolve to the lowest index: member 1 at +1,
    # not member 2 at -1, so the reward pushes member 0 down
    tied = np.array([[0.0], [1.0], [-1.0]])
    assert member_reward(np.ones((1, 1, 1)), tied, 0, _REPULSIVE)[0, 0] < 0.0


def test_repulsive_objective_hand_value():
    psis = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
    # nearest-neighbour distances are 1, 1, 3
    assert diversity_objective(psis, _REPULSIVE) == pytest.approx(0.5 * (1 + 1 + 9))


def test_vdw_objective_peaks_at_the_contact_distance():
    l0 = 2.0
    cfg = DiversityConfig(kind=DiversityKind.VAN_DER_WAALS, contact_distance=l0)
    values = {
        l: diversity_objective(np.array([[0.0], [l]]), cfg) for l in np.linspace(0.2, 4.0, 39)
    }
    at_l0 = diversity_objective(np.array([[0.0], [l0]]), cfg)
    assert all(at_l0 >= v - 1e-12 for v in values.values())
    # closed form at the peak: 0.3 l0^2 per member, two members
    assert at_l0 == pytest.approx(2 * (0.5 * l0**2 - 0.2 * l0**2))


def test_diversity_objective_is_the_sum_of_the_oracle_terms():
    rng = np.random.default_rng(4)
    for cfg in KERNEL_CASES:
        for _ in range(5):
            n, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            psis = rng.uniform(-1.0, 1.0, size=(n, d))
            oracle = sum(own_objective_term(psis, i, cfg) for i in range(n))
            assert diversity_objective(psis, cfg) == pytest.approx(oracle, rel=1e-12, abs=1e-15)
        assert diversity_objective(np.ones((1, 2)), cfg) == 0.0


def test_reward_is_the_gradient_of_the_own_objective_term():
    # psi_i = Phi^T d_i, so the reward matrix must equal the finite-difference
    # gradient of member i's nearest-neighbour term with respect to d_i
    rng = np.random.default_rng(0)
    for cfg in KERNEL_CASES:
        for _ in range(10):
            S, A, d, n = 3, 2, int(rng.integers(1, 4)), int(rng.integers(2, 5))
            phi = rng.uniform(0.0, 1.0, size=(S * A, d))
            ds = rng.dirichlet(np.ones(S * A), size=n)
            psis = ds @ phi
            i = int(rng.integers(n))
            reward = member_reward(phi.reshape(S, A, d), psis, i, cfg).ravel()
            eps = 1e-6
            grad = np.empty(S * A)
            for k in range(S * A):
                dp, dm = ds[i].copy(), ds[i].copy()
                dp[k] += eps
                dm[k] -= eps
                up = own_objective_term(np.vstack([psis[:i], dp @ phi, psis[i + 1:]]), i, cfg)
                dn = own_objective_term(np.vstack([psis[:i], dm @ phi, psis[i + 1:]]), i, cfg)
                grad[k] = (up - dn) / (2 * eps)
            assert np.max(np.abs(reward - grad)) < 1e-5 * max(1.0, np.max(np.abs(grad)))


def test_coincident_members_get_a_zero_reward():
    phi = np.arange(12, dtype=float).reshape(12, 1)
    psis = np.array([[0.3], [0.3], [0.9]])
    for kind in DiversityKind:
        cfg = DiversityConfig(kind=kind, contact_distance=1.0, repulsive_power=-1.0)
        reward = member_reward(phi.reshape(4, 3, 1), psis, 0, cfg)
        assert np.array_equal(reward, np.zeros((4, 3)))
        assert np.all(np.isfinite(reward))


def test_reward_table_gives_every_members_reward_factors():
    # one nearest-neighbour pass gives each member's c(l_i), scaled as the
    # config says, and psi_i - psi_j; the score and objective take the same pass
    rng = np.random.default_rng(3)
    psis = rng.uniform(size=(5, 4))
    psis[3] = psis[1]  # a coincident pair: both factors c are zero
    for cfg in KERNEL_CASES:
        nearest = _nearest(psis)
        c, diff = reward_table(psis, cfg, nearest)
        assert c.shape == (5,) and diff.shape == (5, 4)
        assert c[1] == c[3] == 0.0 and not diff[1].any() and not diff[3].any()
        for i in range(5):
            assert np.array_equal(diff[i], psis[i] - psis[nearest[0][i]])
        unscaled, _ = reward_table(psis, dataclasses.replace(cfg, scaling=RewardScaling.PAPER_EXACT))
        if cfg.scaling == RewardScaling.APPENDIX_CODE:
            unscaled = unscaled / psis.shape[1]
        assert c.tobytes() == unscaled.tobytes()
        distinct = psis[:3]  # the log kernel's potential is -inf at l = 0
        nearest = _nearest(distinct)
        assert diversity_score(distinct, nearest) == diversity_score(distinct)
        assert diversity_objective(distinct, cfg, nearest) == diversity_objective(distinct, cfg)


@pytest.mark.parametrize(("n", "d"), [(2, 1), (5, 4), (7, 17), (10, 33)])
def test_stacked_reward_table_gives_each_set_the_bits_of_its_own_call(n, d):
    rng = np.random.default_rng(n * d)
    stack = rng.uniform(size=(2, 3, n, d))
    stack[0, 1, n - 1] = stack[0, 1, 0]  # a coincident pair in one set
    index, dists = _nearest(stack)
    assert index.shape == dists.shape == (2, 3, n)
    for cfg in KERNEL_CASES:
        c, diff = reward_table(stack, cfg)
        assert c.shape == (2, 3, n) and diff.shape == stack.shape
        for g in np.ndindex(2, 3):
            own_index, own_dists = _nearest(stack[g])
            assert np.array_equal(index[g], own_index) and dists[g].tobytes() == own_dists.tobytes()
            own_c, own_diff = reward_table(stack[g], cfg)
            assert c[g].tobytes() == own_c.tobytes() and diff[g].tobytes() == own_diff.tobytes()


def test_coincident_members_give_a_finite_generalized_objective():
    cfg = DiversityConfig(
        kind=DiversityKind.GENERALIZED, contact_distance=0.5,
        attractive_coeff=0.0, repulsive_power=-1.0, attractive_power=3.0,
    )
    psis = np.array([[0.3], [0.3], [0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = diversity_objective(psis, cfg)
    # f(l) = l0 l at a = 0, p_r = -1; the distances are 0, 0 and 0.6
    assert value == pytest.approx(0.5 * 0.6, rel=1e-12)


def test_appendix_scaling_divides_by_the_feature_dimension():
    rng = np.random.default_rng(1)
    phi = rng.uniform(size=(6, 3))
    psis = rng.uniform(size=(3, 3))
    scaled = DiversityConfig(kind=DiversityKind.REPULSIVE, scaling=RewardScaling.APPENDIX_CODE)
    r1 = member_reward(phi.reshape(2, 3, 3), psis, 1, _REPULSIVE)
    r2 = member_reward(phi.reshape(2, 3, 3), psis, 1, scaled)
    assert np.allclose(r2, r1 / 3.0)
    # the reported objective is scaled alike, so r2 stays its gradient
    assert diversity_objective(psis, scaled) == pytest.approx(
        diversity_objective(psis, _REPULSIVE) / 3.0, rel=1e-12
    )


def test_generalized_kind_reproduces_the_named_coefficients():
    rng = np.random.default_rng(2)
    phi = rng.uniform(size=(6, 2))
    psis = rng.uniform(size=(2, 2))
    phi_sa = phi.reshape(3, 2, 2)
    # a = 0, p_r = 0 gives the constant repulsive coefficient
    flat = DiversityConfig(
        kind=DiversityKind.GENERALIZED, contact_distance=0.7,
        attractive_coeff=0.0, repulsive_power=0.0, attractive_power=3.0,
    )
    assert np.allclose(
        member_reward(phi_sa, psis, 1, flat), member_reward(phi_sa, psis, 1, _REPULSIVE)
    )
    assert diversity_objective(psis, flat) == pytest.approx(
        diversity_objective(psis, _REPULSIVE), rel=1e-12
    )
    # a = 0.5, p_r = 0, p_a = 3 gives half the van der Waals coefficient
    half = DiversityConfig(
        kind=DiversityKind.GENERALIZED, contact_distance=0.7,
        attractive_coeff=0.5, repulsive_power=0.0, attractive_power=3.0,
    )
    vdw = DiversityConfig(kind=DiversityKind.VAN_DER_WAALS, contact_distance=0.7)
    assert np.allclose(
        member_reward(phi_sa, psis, 1, half), 0.5 * member_reward(phi_sa, psis, 1, vdw)
    )
    assert diversity_objective(psis, half) == pytest.approx(
        0.5 * diversity_objective(psis, vdw), rel=1e-12
    )


def test_diversity_score_statistics():
    assert diversity_score(np.array([[0.0], [1.0], [5.0]])) == pytest.approx(2.0)
    assert diversity_score(np.array([[3.0]])) == 0.0


def test_config_validation_rejects_bad_parameters():
    with pytest.raises(ValueError, match="contact_distance"):
        DiversityConfig(kind=DiversityKind.VAN_DER_WAALS, contact_distance=0.0)
    with pytest.raises(ValueError, match="attractive_power"):
        DiversityConfig(
            kind=DiversityKind.GENERALIZED, repulsive_power=3.0, attractive_power=2.0
        )
    with pytest.raises(ValueError, match="attractive_coeff"):
        DiversityConfig(kind=DiversityKind.GENERALIZED, attractive_coeff=1.5)
