"""Reward-mixing strategies: the constrained method and its baselines.

Every strategy leaves the anchor (index 0) on the pure extrinsic reward,
so each trained set always contains one plain return-maximiser and the
baselines differ only in how the remaining members trade extrinsic
against diversity reward:

    DominoLagrangian  sigma(mu_i) r_e + (1 - sigma(mu_i)) r_d   (learned mix)
    Smerl             r_e + c_d [v~_i >= alpha v~_1] r_d        (gated bonus)
    ReverseSmerl      [v~_i < alpha v~_1] r_e + c_d r_d         (gated extrinsic)
    MultiObjective    c_e r_e + (1 - c_e) r_d                   (fixed mix)
    NoDiversity       r_e
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .policy_set import PolicySet, constraint_indicator

__all__ = ["StrategyKind", "StrategyConfig", "weights", "mix"]


class StrategyKind(str, Enum):
    DOMINO_LAGRANGIAN = "DominoLagrangian"
    SMERL = "Smerl"
    REVERSE_SMERL = "ReverseSmerl"
    MULTI_OBJECTIVE = "MultiObjective"
    NO_DIVERSITY = "NoDiversity"


@dataclass(frozen=True)
class StrategyConfig:
    kind: StrategyKind = StrategyKind.DOMINO_LAGRANGIAN
    alpha: float = 0.9  # near-optimality ratio for the constraint / gates
    c_d: float = 0.5  # diversity coefficient (Smerl variants)
    c_e: float = 0.7  # extrinsic weight (MultiObjective); diversity gets 1 - c_e

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.c_d < 0.0:
            raise ValueError(f"c_d must be nonnegative, got {self.c_d}")
        if not 0.0 <= self.c_e <= 1.0:
            raise ValueError(f"c_e must be in [0, 1], got {self.c_e}")


def weights(strategy: StrategyConfig, pset: PolicySet, i: int) -> tuple[float, float]:
    """(w_e, w_d): the weights policy i puts on the extrinsic and the
    diversity reward stream."""
    if i == 0 or strategy.kind == StrategyKind.NO_DIVERSITY:
        return 1.0, 0.0
    if strategy.kind == StrategyKind.DOMINO_LAGRANGIAN:
        w = float(pset.extrinsic_weights()[i])
        return w, 1.0 - w
    if strategy.kind == StrategyKind.SMERL:
        violated = constraint_indicator(pset, i, strategy.alpha)
        return 1.0, 0.0 if violated else strategy.c_d
    if strategy.kind == StrategyKind.REVERSE_SMERL:
        violated = constraint_indicator(pset, i, strategy.alpha)
        return (1.0 if violated else 0.0), strategy.c_d
    if strategy.kind == StrategyKind.MULTI_OBJECTIVE:
        return strategy.c_e, 1.0 - strategy.c_e
    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


def mix(
    strategy: StrategyConfig,
    r_e: np.ndarray,
    r_d: np.ndarray,
    pset: PolicySet,
    i: int,
) -> np.ndarray:
    """The reward matrix policy i's best response / learner should see."""
    w_e, w_d = weights(strategy, pset, i)
    return w_e * r_e + w_d * r_d
