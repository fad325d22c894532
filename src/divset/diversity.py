"""Diversity objectives over sets of expected-feature vectors.

A set of n policies is summarised by its expected features psi^i = Phi^T d^i,
passed around as one (n, d) array. Diversity is measured through
nearest-neighbour distances l_i = min_{j != i} ||psi^i - psi^j||_2. The set
objective is sum_i f(l_i), and each policy is rewarded with the gradient of
its own term f(l_i) with respect to its occupancy. Because psi is linear in
d, that gradient is always of the form

    r_i(s, a) = c(l_i) * phi(s, a) . (psi^i - psi^{j*_i}),    f'(l) = l c(l).

Each kernel is one (f, c) pair, with x = l / l0:

    repulsive       f = 0.5 l^2                                   c = 1
    van der Waals   f = 0.5 l^2 - 0.2 l^5 / l0^3                  c = 1 - x^3
    generalized     f = l0^2 [(1 - a) T(x, p_r) - a T(x, p_a)]    c = (1 - a) x^p_r - a x^p_a

where T(x, p) = x^(p+2) / (p+2), or ln x when p = -2. The van der Waals
form has its per-pair maximum exactly at l = l0 (the contact distance),
giving attraction beyond l0 and repulsion inside it. The generalized family
reproduces repulsive at (a=0, p_r=0) and, at (a=0.5, p_r=0, p_a=3), one half
of van der Waals; at (a=0, p_r=-1) its f is l0 l.

Reward scaling conventions differ between the closed forms above
(RewardScaling.PAPER_EXACT, the default) and a variant that additionally
divides by the feature dimension d (RewardScaling.APPENDIX_CODE). The
variant divides both f and c, so the reward stays the gradient of
the reported term. The two differ by a positive constant factor, which best
responses ignore but gradient-based learners feel through the step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DiversityKind",
    "RewardScaling",
    "DiversityConfig",
    "reward_table",
    "diversity_score",
    "diversity_objective",
]


class DiversityKind(str, Enum):
    REPULSIVE = "Repulsive"
    VAN_DER_WAALS = "VanDerWaals"
    GENERALIZED = "Generalized"


class RewardScaling(str, Enum):
    PAPER_EXACT = "PaperExact"
    APPENDIX_CODE = "AppendixCode"


@dataclass(frozen=True)
class DiversityConfig:
    kind: DiversityKind = DiversityKind.REPULSIVE
    contact_distance: float = 1.0  # l0; only meaningful for VDW / generalized
    attractive_power: float = 3.0
    repulsive_power: float = 0.0
    attractive_coeff: float = 0.5
    scaling: RewardScaling = RewardScaling.PAPER_EXACT

    def __post_init__(self) -> None:
        if self.kind != DiversityKind.REPULSIVE and self.contact_distance <= 0.0:
            raise ValueError(f"contact_distance must be positive, got {self.contact_distance}")
        if self.kind == DiversityKind.GENERALIZED:
            if self.attractive_power <= self.repulsive_power:
                raise ValueError(
                    "attractive_power must exceed repulsive_power "
                    f"({self.attractive_power} <= {self.repulsive_power})"
                )
            if not 0.0 <= self.attractive_coeff <= 1.0:
                raise ValueError(f"attractive_coeff must be in [0, 1], got {self.attractive_coeff}")


def _antiderivative(x: np.ndarray, p: float) -> np.ndarray:
    """T(x, p), whose derivative in x is x^(p+1)."""
    if p == -2.0:
        return np.log(x)
    return x ** (p + 2.0) / (p + 2.0)


def _generalized_f(l: np.ndarray, cfg: DiversityConfig) -> np.ndarray:
    x = l / cfg.contact_distance
    a = cfg.attractive_coeff
    return cfg.contact_distance**2 * (
        (1.0 - a) * _antiderivative(x, cfg.repulsive_power)
        - a * _antiderivative(x, cfg.attractive_power)
    )


def _generalized_c(l: float, cfg: DiversityConfig) -> float:
    x = l / cfg.contact_distance
    a = cfg.attractive_coeff
    return (1.0 - a) * x**cfg.repulsive_power - a * x**cfg.attractive_power


# kind -> (f, c): f maps the array of l_i to the objective terms, c maps one
# l_i (a Python float) to the reward coefficient; f'(l) = l c(l). l**5 is
# spelled out as products: numpy's power loop differs in the last bit between
# its AVX-512 and AVX2 builds, a product does not (l**2 is a product already).
_KERNELS = {
    DiversityKind.REPULSIVE: (lambda l, cfg: 0.5 * l**2, lambda l, cfg: 1.0),
    DiversityKind.VAN_DER_WAALS: (
        lambda l, cfg: 0.5 * l**2 - 0.2 * (l * l * l * l * l) / cfg.contact_distance**3,
        lambda l, cfg: 1.0 - (l / cfg.contact_distance) ** 3,
    ),
    DiversityKind.GENERALIZED: (_generalized_f, _generalized_c),
}


def _nearest(psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's nearest other member (ties: lowest index) and its distance."""
    diff = psis[:, None, :] - psis[None, :, :]
    dists = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    return dists.argmin(axis=1), dists.min(axis=1)


def _scale(
    value: float | np.ndarray, psis: np.ndarray, cfg: DiversityConfig
) -> float | np.ndarray:
    if cfg.scaling == RewardScaling.APPENDIX_CODE:
        return value / psis.shape[1]
    return value


def reward_table(
    psis: np.ndarray, cfg: DiversityConfig, nearest: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every member's reward factors from one nearest-neighbour pass over the (n, d) psis:
    c, with c[i] = c(l_i) under cfg's scaling, and the (n, d) diff, with
    diff[i] = psi^i - psi^{j*_i}. Member i's diversity reward is c[i] * (phi . diff[i]).
    c[i] is zero for a member that coincides with its nearest neighbour (l_i = 0), whose
    reward vanishes; this also guards the negative-power generalized coefficients, which
    diverge at l = 0. nearest, if given, is _nearest(psis), which the set's score and
    objective can share."""
    index, dists = _nearest(psis) if nearest is None else nearest
    _, c = _KERNELS[cfg.kind]
    c_l = np.array([0.0 if l == 0.0 else c(l, cfg) for l in dists.tolist()])
    return _scale(c_l, psis, cfg), psis - psis[index]


def diversity_score(
    psis: np.ndarray, nearest: tuple[np.ndarray, np.ndarray] | None = None
) -> float:
    """Mean nearest-neighbour distance of the (n, d) psis; zero for a singleton.
    nearest, if given, is _nearest(psis)."""
    if len(psis) < 2:
        return 0.0
    return float((_nearest(psis) if nearest is None else nearest)[1].mean())


def diversity_objective(
    psis: np.ndarray, cfg: DiversityConfig, nearest: tuple[np.ndarray, np.ndarray] | None = None
) -> float:
    """sum_i f(l_i) over the (n, d) psis for cfg's kernel; zero for a singleton.
    nearest, if given, is _nearest(psis)."""
    if len(psis) < 2:
        return 0.0
    f, _ = _KERNELS[cfg.kind]
    dists = (_nearest(psis) if nearest is None else nearest)[1]
    return _scale(float(f(dists, cfg).sum()), psis, cfg)
