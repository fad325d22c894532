"""Few-shot robustness evaluation of trained policy sets.

Protocol, per perturbed MDP and per training seed: roll k_select episodes
with every member of the set, pick the member with the highest mean return
(ties to the lowest index; a one-member set picks its member unplayed),
then evaluate the pick for n_eval fresh episodes (kshot_returns). The
figure of merit is the ratio of that evaluation return to the same
protocol applied to a single-policy baseline set (kshot_evaluate, which
plays no episodes, so the baseline is rolled once per perturbed MDP and
shared by every method).

Every episode is played by training.sample_episodes, one call per member
for selection and one per pick for evaluation; an episode's return is the
undiscounted sum of its rewards over the fixed horizon. All episode
streams are derived from (seed, role, train seed, episode[, member]) and
never from the method, so competing methods face identical environment
randomness: the baseline evaluated against itself gives a ratio of
exactly 1. Aggregation across training seeds uses a nested bootstrap
(resample seeds, then episodes within each seed) so both levels of
variance reach the interval. The bootstrap draws its seed indices and its
episode indices from two streams of its own, child_rng(ci seed, "seeds")
and child_rng(ci seed, "episodes"), where the ci seed is
hash64(seed, "ci"). The interval's two ends are percentiles of the finite
resample statistics by numpy's default linear method, computed here
(_percentiles) bit for bit as np.percentile does: np.percentile imports
numpy.ma on its first call, which would cost every kshot run that import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mdp import TabularMdp
from .policy_set import PolicySet
from .seeding import child_rng, hash64
from .training import sample_episodes

__all__ = [
    "KShotConfig",
    "KShotResult",
    "kshot_select",
    "kshot_returns",
    "kshot_evaluate",
]

# resamples drawn and scored at once by the bootstrap; bounds its memory
_BOOTSTRAP_CHUNK = 64


@dataclass(frozen=True)
class KShotConfig:
    k_select: int = 10
    n_eval: int = 40
    horizon: int = 200
    ci_level: float = 0.95
    bootstrap_resamples: int = 2000


@dataclass(frozen=True)
class KShotResult:
    ratio_mean: float  # nan (with flag) when some baseline mean is <= 0
    ci_low: float
    ci_high: float
    abs_return_mean: float
    baseline_return_mean: float
    per_seed_ratios: np.ndarray
    per_seed_returns: np.ndarray  # (seeds, n_eval)
    per_seed_baseline_returns: np.ndarray  # (seeds, n_eval)
    selected_indices: np.ndarray
    baseline_nonpositive: bool


def kshot_select(pset: PolicySet, perturbed: TabularMdp, cfg: KShotConfig, seed: int) -> int:
    """Index of the member with the best mean return over k_select episodes.

    Episode streams depend on (seed, member, episode) only, so the same
    member index sees the same randomness whichever set it belongs to. A
    one-member set, such as the baseline's, plays no episode.
    """
    if pset.n == 1:
        return 0
    means = np.empty(pset.n)
    for i, policy in enumerate(pset.policies):
        rngs = [child_rng(seed, i, e) for e in range(cfg.k_select)]
        means[i] = sample_episodes(perturbed, policy, cfg.horizon, rngs)[2].sum(axis=1).mean()
    return int(np.argmax(means))


def kshot_returns(
    sets: Sequence[PolicySet], perturbed: TabularMdp, cfg: KShotConfig, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Roll the protocol once for one family of per-training-seed sets.

    Returns the selected member per seed, (seeds,), and the pick's n_eval
    evaluation returns per seed, (seeds, n_eval). Episode streams depend on
    (seed, training seed, episode[, member]) only, never on the set, so every
    family rolled with the same seed faces the same environment randomness.
    """
    selected = np.empty(len(sets), dtype=int)
    returns = np.empty((len(sets), cfg.n_eval))
    for t, pset in enumerate(sets):
        selected[t] = kshot_select(pset, perturbed, cfg, hash64(seed, "select", t))
        rngs = [child_rng(seed, "eval", t, e) for e in range(cfg.n_eval)]
        rewards = sample_episodes(perturbed, pset.policies[selected[t]], cfg.horizon, rngs)[2]
        returns[t] = rewards.sum(axis=1)
    return selected, returns


def kshot_evaluate(
    returns: np.ndarray,
    base_returns: np.ndarray,
    selected: np.ndarray,
    cfg: KShotConfig,
    seed: int,
) -> KShotResult:
    """Score a family's evaluation returns against the baseline's.

    returns[t] and base_returns[t] must come from the same training seed
    and the same episode streams (see kshot_returns). The per-seed ratio
    divides matched evaluation means; the CI is a paired nested bootstrap
    of the mean ratio. No episodes are played here.
    """
    if returns.shape != base_returns.shape:
        raise ValueError(
            f"got returns of shape {returns.shape} but baseline returns of shape "
            f"{base_returns.shape}"
        )
    n_seeds = len(returns)
    base_means = base_returns.mean(axis=1)
    nonpositive = bool(np.any(base_means <= 0.0))
    ratios = np.full(n_seeds, np.nan)
    np.divide(returns.mean(axis=1), base_means, out=ratios, where=base_means > 0.0)
    if nonpositive:
        ratio_mean, ci_low, ci_high = float("nan"), float("nan"), float("nan")
    else:
        ratio_mean = float(ratios.mean())
        ci_low, ci_high = _paired_ratio_ci(
            returns, base_returns, cfg.ci_level, cfg.bootstrap_resamples, hash64(seed, "ci")
        )
    return KShotResult(
        ratio_mean=ratio_mean,
        ci_low=ci_low,
        ci_high=ci_high,
        abs_return_mean=float(returns.mean()),
        baseline_return_mean=float(base_returns.mean()),
        per_seed_ratios=ratios,
        per_seed_returns=returns,
        per_seed_baseline_returns=base_returns,
        selected_indices=selected,
        baseline_nonpositive=nonpositive,
    )


def _paired_ratio_ci(
    returns: np.ndarray,
    base_returns: np.ndarray,
    level: float,
    resamples: int,
    seed: int,
) -> tuple[float, float]:
    """Nested bootstrap of the mean per-seed ratio, resampling both sides.

    Each resample draws n_seeds seed indices from child_rng(seed, "seeds"),
    then for every drawn seed n_eval episode indices into returns and n_eval
    into base_returns from child_rng(seed, "episodes"). The resamples are
    drawn and scored _BOOTSTRAP_CHUNK at a time, with one call per stream
    and chunk, so memory does not grow with their number. Bounded draws
    split across calls give the values of one call, so the interval does not
    depend on the chunk size either. A resample whose baseline mean is not
    positive for some drawn seed has a nan statistic and is left out of the
    percentiles; when no resample is left the interval is (nan, nan).
    """
    seed_rng, episode_rng = child_rng(seed, "seeds"), child_rng(seed, "episodes")
    n_seeds, n_eval = returns.shape
    stats = np.empty(resamples)
    for first in range(0, resamples, _BOOTSTRAP_CHUNK):
        size = min(_BOOTSTRAP_CHUNK, resamples - first)
        chosen = seed_rng.integers(n_seeds, size=(size, n_seeds, 1))
        episodes = episode_rng.integers(n_eval, size=(size, n_seeds, 2, n_eval))
        m = returns[chosen, episodes[:, :, 0]].mean(axis=2)
        base = base_returns[chosen, episodes[:, :, 1]].mean(axis=2)
        ratios = np.full((size, n_seeds), np.nan)
        np.divide(m, base, out=ratios, where=base > 0.0)
        stats[first : first + size] = ratios.mean(axis=1)
    finite = stats[np.isfinite(stats)]
    if not finite.size:
        return float("nan"), float("nan")
    lo = (1.0 - level) / 2.0 * 100.0
    low, high = _percentiles(finite, [lo, 100.0 - lo])
    return float(low), float(high)


def _percentiles(values: np.ndarray, q: list[float]) -> np.ndarray:
    """np.percentile(values, q) by its default linear method, bit for bit,
    for finite values and q in [0, 100]; np.percentile itself imports
    numpy.ma on its first call."""
    ordered = np.sort(values)
    index = (len(ordered) - 1) * np.true_divide(q, 100)
    lower = np.floor(index).astype(np.intp)
    a, b = ordered[lower], ordered[np.minimum(lower + 1, len(ordered) - 1)]
    t = index - lower
    # numpy's _lerp: from the nearer end, so a weight of 1 returns b exactly
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
