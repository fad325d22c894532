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

from .policy_set import PolicySet

__all__ = ["StrategyKind", "StrategyConfig", "weights"]


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


def weights(strategy: StrategyConfig, pset: PolicySet) -> np.ndarray:
    """The (..., n, 2) table of (w_e, w_d): the weights each member puts on
    the extrinsic and the diversity reward stream, for one set or a stacked
    set. The anchor's row is (1, 0); the Smerl gates read the strict
    violation test v~_i < alpha v~_1."""
    kind = strategy.kind
    violated = pset.avg_value < strategy.alpha * pset.vstar_estimate
    if kind == StrategyKind.DOMINO_LAGRANGIAN:
        w_e = pset.extrinsic_weights()
        w_d = 1.0 - w_e
    elif kind == StrategyKind.SMERL:
        w_e, w_d = 1.0, np.where(violated, 0.0, strategy.c_d)
    elif kind == StrategyKind.REVERSE_SMERL:
        w_e, w_d = np.where(violated, 1.0, 0.0), strategy.c_d
    elif kind == StrategyKind.MULTI_OBJECTIVE:
        w_e, w_d = strategy.c_e, 1.0 - strategy.c_e
    elif kind == StrategyKind.NO_DIVERSITY:
        w_e, w_d = 1.0, 0.0
    else:
        raise ValueError(f"unknown strategy kind {kind!r}")
    table = np.empty(pset.avg_value.shape + (2,))
    table[..., 0], table[..., 1] = w_e, w_d
    table[..., 0, :] = (1.0, 0.0)
    return table
