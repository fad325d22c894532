"""Reward mixing for the constrained method and its baselines."""

import numpy as np
import pytest

from divset import StrategyConfig, StrategyKind, init_set, weights


def _pset():
    pset = init_set(3, 1, 3, 2)
    pset.vstar_estimate = 1.0
    return pset


def test_every_strategy_gives_the_anchor_pure_extrinsic_reward():
    pset = _pset()
    pset.mu[0] = -50.0  # the anchor's mu is inert
    pset.avg_value[0] = 0.0  # and so is its constraint
    for kind in StrategyKind:
        assert weights(StrategyConfig(kind=kind), pset)[0].tolist() == [1.0, 0.0]


def test_weights_is_a_fresh_n_by_2_table():
    pset = _pset()
    table = weights(StrategyConfig(kind=StrategyKind.DOMINO_LAGRANGIAN), pset)
    assert table.shape == (3, 2)
    table[:] = 7.0
    assert pset.extrinsic_weights().tolist() == [1.0, 0.5, 0.5]


def test_no_diversity_puts_no_weight_on_diversity_for_anyone():
    table = weights(StrategyConfig(kind=StrategyKind.NO_DIVERSITY), _pset())
    assert table.tolist() == [[1.0, 0.0]] * 3


def test_domino_uses_the_sigmoid_mix():
    pset = _pset()
    cfg = StrategyConfig(kind=StrategyKind.DOMINO_LAGRANGIAN)
    assert weights(cfg, pset)[1].tolist() == [0.5, 0.5]
    pset.mu[2] = 50.0  # saturated sigmoid: all weight on extrinsic
    assert np.allclose(weights(cfg, pset)[2], [1.0, 0.0])


def test_smerl_gates_the_diversity_bonus_on_satisfaction():
    pset = _pset()
    cfg = StrategyConfig(kind=StrategyKind.SMERL, alpha=0.9, c_d=0.25)
    pset.avg_value[1] = 0.95  # satisfied: bonus on
    assert weights(cfg, pset)[1].tolist() == [1.0, 0.25]
    pset.avg_value[1] = 0.5  # violated: extrinsic only
    assert weights(cfg, pset)[1].tolist() == [1.0, 0.0]


def test_reverse_smerl_gates_the_extrinsic_reward_on_violation():
    pset = _pset()
    cfg = StrategyConfig(kind=StrategyKind.REVERSE_SMERL, alpha=0.9, c_d=0.25)
    pset.avg_value[1] = 0.5  # violated: extrinsic comes back
    assert weights(cfg, pset)[1].tolist() == [1.0, 0.25]
    pset.avg_value[1] = 0.95  # satisfied: diversity only
    assert weights(cfg, pset)[1].tolist() == [0.0, 0.25]


def test_multi_objective_uses_the_fixed_mixture():
    pset = _pset()
    cfg = StrategyConfig(kind=StrategyKind.MULTI_OBJECTIVE, c_e=0.3)
    assert weights(cfg, pset)[1:].tolist() == [[0.3, 0.7]] * 2
    pure = StrategyConfig(kind=StrategyKind.MULTI_OBJECTIVE, c_e=0.0)
    assert weights(pure, pset)[2].tolist() == [0.0, 1.0]


def test_strategy_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        StrategyConfig(alpha=1.5)
    with pytest.raises(ValueError, match="c_d"):
        StrategyConfig(c_d=-0.1)
    with pytest.raises(ValueError, match="c_e"):
        StrategyConfig(c_e=2.0)
