"""Training loops: exact three-player iteration and sampled actor-critic.

Both trainers implement the same game. Each outer step,

  1. every policy's extrinsic value and expected features are measured
     (exactly, or from a rollout) and folded into the set's running
     estimates v~ / psi~ per the chosen averaging mode;
  2. the cost player turns the current feature estimates into a per-policy
     diversity reward (the gradient of that policy's objective term,
     evaluated at the averaged statistics -- the follow-the-leader view);
  3. the Lagrange player adjusts the extrinsic/diversity mixing weights
     from the constraint residuals v~_i - alpha v~_1;
  4. the policy player improves each policy against its mixed reward --
     an exact best response, or a policy-gradient step.

The exact trainer is deterministic given its seed (randomness only enters
through the initial policies). It trains one set, or several sets that
differ only in seed in lockstep: each outer step's best responses of every
set's members are one stacked solve, and each set's arithmetic is what it
would be alone. A member's occupancy is solved again only when its policy
changed. The sampled trainer is a tabular softmax
actor-critic with one critic per reward stream and n-step advantages,
deterministic given its seed.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .diversity import DiversityConfig, diversity_objective, diversity_reward, diversity_score
from .envs import Always, PerturbedMdp, Schedule
from .mdp import (
    Criterion,
    TabularMdp,
    _cdf_rows,
    best_response,
    expected_features,
    occupancy,
    policy_value,
)
from .policy_set import (
    AdamState,
    MovingAverageConfig,
    PolicySet,
    init_set,
    lagrange_step,
    lagrange_step_adam,
    update_moving_averages,
)
from .strategies import StrategyConfig, StrategyKind, mix, weights

__all__ = [
    "FtlMode",
    "ExactTrainConfig",
    "SampleTrainConfig",
    "TraceRecord",
    "TrainingDivergedError",
    "rollout",
    "train_exact",
    "train_sampled",
]


# most members in one best_response stack when train_exact trains several
# sets in lockstep; it bounds the stack's memory whatever the number of sets
_LOCKSTEP_MEMBERS = 64


class TrainingDivergedError(RuntimeError):
    """A learner table became non-finite."""


class FtlMode(str, Enum):
    # MovingAverage: exponentially decayed statistics (the online recipe).
    # FullAverage: uniform running means of the exact values and features,
    # the averaged iterate whose convergence the follow-the-leader argument speaks about.
    MOVING_AVERAGE = "MovingAverage"
    FULL_AVERAGE = "FullAverage"


@dataclass(frozen=True)
class ExactTrainConfig:
    outer_iterations: int = 200
    criterion: Criterion = Criterion.AVERAGE
    lagrange_lr: float = 1.0
    ftl_mode: FtlMode = FtlMode.MOVING_AVERAGE
    moving_average: MovingAverageConfig = MovingAverageConfig()
    policy_init: str = "random"  # random rows break the initial symmetry
    seed: int = 0


@dataclass(frozen=True)
class SampleTrainConfig:
    total_episodes: int = 2000
    episode_length: int = 200  # fixed-horizon episodes with initial-state resets
    policy_lr: float = 0.5
    value_lr: float = 0.2
    entropy_weight: float = 0.01
    n_step: int = 5
    lagrange_lr: float = 1e-3
    moving_average: MovingAverageConfig = MovingAverageConfig()
    seed: int = 0
    eval_every: int = 100


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    extrinsic_values: np.ndarray  # (n,) exact values (exact mode) or v~ estimates
    sigma_mu: np.ndarray  # (n,) extrinsic mixing weights, anchor pinned to 1
    diversity_mean: float  # nearest-neighbour mean over the psi~ estimates
    diversity_mean_exact: float  # same, over exact expected features
    objective_value: float  # sum_i f(l_i) of the diversity kernel at the psi~ estimates


@dataclass(frozen=True)
class _Trajectory:
    path: np.ndarray  # (T + 1,) the visited states, then the final next state
    states: np.ndarray  # (T,) path[:-1]
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)
    features: np.ndarray  # (T, d)
    next_states: np.ndarray  # (T,) path[1:]


@lru_cache(maxsize=16)
def _active_steps(schedule: Schedule, horizon: int) -> tuple[tuple[bool, ...], np.ndarray]:
    """schedule.active(t) for every step t of an episode, as a tuple for the
    step loop and as a read-only boolean array for selecting rewards; built
    once per (schedule, horizon) and shared by all episodes on that schedule."""
    steps = tuple(schedule.active(t) for t in range(horizon))
    mask = np.array(steps, dtype=bool)
    mask.flags.writeable = False
    return steps, mask


def rollout(
    mdp: TabularMdp, policy: np.ndarray, horizon: int, rng: np.random.Generator
) -> _Trajectory:
    """Sample one fixed-horizon episode from the initial distribution.

    On a perturbed MDP the perturbed transition and reward apply at step t
    iff its schedule is active at t, and the unperturbed ones otherwise.
    Every perturbation keeps the state indexing, so policies trained on the
    unperturbed MDP apply unchanged. Each draw is one bisect_right on an
    inf-tailed cumulative row (_cdf_rows).
    """
    A = mdp.num_actions
    schedule, fallback = Always(), mdp
    if isinstance(mdp, PerturbedMdp):
        schedule, fallback = mdp.schedule, mdp.unperturbed
    active, active_mask = _active_steps(schedule, horizon)
    transition_rows = (fallback.transition_cdf, mdp.transition_cdf)  # by active[t]
    policy_cdf = _cdf_rows(policy).tolist()
    draws = rng.random(2 * horizon + 1).tolist()
    s = bisect_right(mdp.initial_cdf, draws[0])
    visited, chosen = [s], []
    for on, u_action, u_next in zip(active, draws[1::2], draws[2::2]):
        a = bisect_right(policy_cdf[s], u_action)
        cum, outcomes = transition_rows[on][s * A + a]
        chosen.append(a)
        s = outcomes[bisect_right(cum, u_next)]
        visited.append(s)
    path = np.array(visited, dtype=int)
    actions = np.array(chosen, dtype=int)
    pairs = path[:-1] * A + actions  # row-major (s, a) indices
    rewards = mdp.reward.take(pairs)
    if fallback is not mdp:
        rewards = np.where(active_mask, rewards, fallback.reward.take(pairs))
    features = mdp.features.take(pairs, axis=0)
    return _Trajectory(path, path[:-1], actions, rewards, features, path[1:])


def _trace_record(
    iteration: int,
    extrinsic_values: np.ndarray,
    pset: PolicySet,
    exact_psis: np.ndarray,
    diversity_cfg: DiversityConfig,
) -> TraceRecord:
    return TraceRecord(
        iteration=iteration,
        extrinsic_values=extrinsic_values,
        sigma_mu=pset.extrinsic_weights(),
        diversity_mean=diversity_score(pset.avg_psi),
        diversity_mean_exact=diversity_score(exact_psis),
        objective_value=diversity_objective(pset.avg_psi, diversity_cfg),
    )


@dataclass
class _ExactRun:
    """One set's state in the lockstep exact loop."""

    pset: PolicySet
    measured: np.ndarray  # (n, S, A) each member's policy at its last occupancy solve
    occs: list  # per member, that policy's occupancy
    records: list[TraceRecord]


def train_exact(
    mdp: TabularMdp,
    n: int,
    diversity_cfg: DiversityConfig,
    strategy_cfg: StrategyConfig,
    cfg: ExactTrainConfig | Sequence[ExactTrainConfig],
) -> tuple[PolicySet, list[TraceRecord]] | list[tuple[PolicySet, list[TraceRecord]]]:
    """Run the exact three-player loop for cfg.outer_iterations steps.

    cfg is one config, which trains one set and returns its (pset, trace),
    or a sequence of configs that differ only in seed, which trains one set
    per config in lockstep and returns one (pset, trace) per config, in
    order. The sets are trained in groups of at most _LOCKSTEP_MEMBERS
    members (a set larger than that alone). Each set's arithmetic is what
    it would be alone, so grouping changes no output.

    The anchor's constraint reference is the exact optimal extrinsic value
    (computed once; the extrinsic reward never changes). Each outer
    iteration makes one best_response call over the stack of every set's
    members' mixed rewards, each member starting from its current policy.
    A member's occupancy is solved again only when its policy changed since
    its last solve. The returned trace is a list of one record per
    iteration plus a final evaluation record for the policies as returned.
    """
    single = isinstance(cfg, ExactTrainConfig)
    cfgs = [cfg] if single else list(cfg)
    if any(dataclasses.replace(c, seed=0) != dataclasses.replace(cfgs[0], seed=0) for c in cfgs):
        raise ValueError("lockstep exact training needs configs that differ only in seed")
    if n < 1:
        raise ValueError(f"need at least one policy, got n={n}")
    per_group = max(1, _LOCKSTEP_MEMBERS // n)
    results = []
    for first in range(0, len(cfgs), per_group):
        results += _train_exact_group(
            mdp, n, diversity_cfg, strategy_cfg, cfgs[first : first + per_group]
        )
    return results[0] if single else results


def _train_exact_group(
    mdp: TabularMdp,
    n: int,
    diversity_cfg: DiversityConfig,
    strategy_cfg: StrategyConfig,
    cfgs: list[ExactTrainConfig],
) -> list[tuple[PolicySet, list[TraceRecord]]]:
    S, A, d = mdp.num_states, mdp.num_actions, mdp.feature_dim
    shared = cfgs[0]  # every field but the seed
    criterion = shared.criterion
    pi_star = best_response(mdp, mdp.reward, criterion)
    vstar = policy_value(mdp, occupancy(mdp, pi_star, criterion))

    runs = []
    for cfg in cfgs:
        rng = np.random.default_rng(cfg.seed)
        pset = init_set(n, d, S, A, policy_init=cfg.policy_init, rng=rng)
        pset.vstar_estimate = vstar
        # nan policies equal no policy, so the first measure solves every member
        unmeasured = np.full((n, S, A), np.nan)
        runs.append(_ExactRun(pset, unmeasured, [None] * n, []))

    features_sa = mdp.features_sa
    zero_reward = np.zeros_like(mdp.reward)

    def measure(run: _ExactRun) -> tuple[np.ndarray, np.ndarray]:
        for i, policy in enumerate(run.pset.policies):
            if not np.array_equal(policy, run.measured[i]):
                run.occs[i] = occupancy(mdp, policy, criterion)
                run.measured[i] = policy
        values = np.array([policy_value(mdp, o) for o in run.occs])
        psis = np.stack([expected_features(mdp, o) for o in run.occs])
        return values, psis

    # Seed the follow-the-leader state with the initial policies' true
    # statistics. Exact mode has no estimation phase, and starting every
    # feature row at the same prior would make the initial pairwise
    # distances (hence the diversity rewards) vanishingly small, which can
    # lock members onto identical best responses before the multipliers
    # react.
    for run in runs:
        run.pset.avg_value[:], run.pset.avg_psi[:] = measure(run)

    for k in range(shared.outer_iterations):
        mixed = []
        for run in runs:
            pset = run.pset
            values, psis = measure(run)
            if shared.ftl_mode == FtlMode.FULL_AVERAGE:
                # running means over iterations 0..k, started from the
                # initial measure, which equals iteration 0's
                pset.avg_value += (values - pset.avg_value) / (k + 1)
                pset.avg_psi += (psis - pset.avg_psi) / (k + 1)
            else:
                update_moving_averages(pset, np.arange(n), values, psis, shared.moving_average)

            run.records.append(_trace_record(k, values, pset, psis, diversity_cfg))

            rewards_d = [zero_reward]
            rewards_d += [
                diversity_reward(features_sa, pset.avg_psi, i, diversity_cfg) for i in range(1, n)
            ]

            if strategy_cfg.kind == StrategyKind.DOMINO_LAGRANGIAN:
                lagrange_step(pset, strategy_cfg.alpha, shared.lagrange_lr)

            mixed += [mix(strategy_cfg, mdp.reward, rewards_d[i], pset, i) for i in range(n)]

        # every mixed reward is fixed before any member moves, so the best
        # responses of every set's members are one stacked solve
        start = np.concatenate([run.pset.policies for run in runs])
        policies = best_response(mdp, np.stack(mixed), criterion, start)
        for j, run in enumerate(runs):
            run.pset.policies[:] = policies[j * n : (j + 1) * n]

    for run in runs:
        values, psis = measure(run)
        run.records.append(
            _trace_record(shared.outer_iterations, values, run.pset, psis, diversity_cfg)
        )
    return [(run.pset, run.records) for run in runs]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def train_sampled(
    mdp: TabularMdp,
    n: int,
    diversity_cfg: DiversityConfig,
    strategy_cfg: StrategyConfig,
    cfg: SampleTrainConfig,
) -> tuple[PolicySet, list[TraceRecord]]:
    """Tabular softmax actor-critic over latent-indexed policies.

    Per episode one latent z is drawn, one fixed-horizon episode is rolled
    out with policy z, and z's tables get one batched update: n-step
    advantages per reward stream (extrinsic critic and diversity critic),
    combined with the strategy's mixing weights, plus an entropy bonus.
    The diversity reward is rebuilt from the psi~ snapshot each episode.
    """
    S, A, d = mdp.num_states, mdp.num_actions, mdp.feature_dim
    T = cfg.episode_length
    rng = np.random.default_rng(cfg.seed)
    logits = np.zeros((n, S, A))
    critics = np.zeros((n, S, 2))  # per member and state: the extrinsic, the diversity critic
    pset = init_set(n, d, S, A, policy_init="uniform")
    adam = AdamState.zeros(max(n - 1, 1))
    features_sa = mdp.features_sa
    gamma = mdp.discount
    action_cells = np.arange(A)
    streams = np.arange(2)
    # the n-step target of step t, sum_{k<min(n, T-t)} gamma^k r_{t+k}, bootstraps
    # at path[min(t + n, T)], observed even for the truncated tail, with
    # discount gamma^min(n, T - t)
    steps = np.arange(T)
    boot = np.minimum(steps + cfg.n_step, T)
    boot_discount = (gamma ** np.minimum(cfg.n_step, T - steps))[:, None]
    records: list[TraceRecord] = []

    def record(it: int) -> None:
        exact_psis = np.stack(
            [expected_features(mdp, occupancy(mdp, p, Criterion.AVERAGE)) for p in pset.policies]
        )
        records.append(_trace_record(it, pset.avg_value.copy(), pset, exact_psis, diversity_cfg))

    for ep in range(cfg.total_episodes):
        z = int(rng.integers(n))
        probs = _softmax(logits[z])
        traj = rollout(mdp, probs, T, rng)
        states = traj.states
        pairs = states * A + traj.actions  # row-major (s, a) indices

        rewards = np.zeros((T, 2))  # per step: the extrinsic, the diversity reward
        rewards[:, 0] = traj.rewards
        if z > 0:
            r_d = diversity_reward(features_sa, pset.avg_psi, z, diversity_cfg)
            rewards[:, 1] = r_d.take(pairs)

        critic = critics[z]
        targets = np.zeros((T, 2))
        gpow = 1.0
        for k in range(min(cfg.n_step, T)):
            targets[: T - k] += gpow * rewards[k:]
            gpow *= gamma
        targets += boot_discount * critic.take(traj.path.take(boot), axis=0)
        advs = targets - critic.take(states, axis=0)
        w_e, w_d = weights(strategy_cfg, pset, z)
        adv = w_e * advs[:, 0] + w_d * advs[:, 1]

        # one bincount adds the terms to each cell in the order three
        # np.add.at calls would: action terms, -adv * pi rows, entropy rows
        pi_visited = probs.take(states, axis=0)
        row_cells = (states[:, None] * A + action_cells).ravel()
        cells = [pairs, row_cells]
        terms = [adv, (-adv[:, None] * pi_visited).ravel()]
        if cfg.entropy_weight > 0.0:
            logp = np.log(np.maximum(pi_visited, 1e-30))
            ent = -(pi_visited * logp).sum(axis=1)
            cells.append(row_cells)
            terms.append((-cfg.entropy_weight * pi_visited * (logp + ent[:, None])).ravel())
        grad = np.bincount(np.concatenate(cells), np.concatenate(terms), minlength=S * A)
        logits[z] += cfg.policy_lr * grad.reshape(S, A) / T

        # each visited state's critics move toward their mean targets; one
        # bincount sums both streams' targets, each bin in step order
        tcnt = np.bincount(states, minlength=S)
        stream_cells = (2 * states[:, None] + streams).ravel()
        tsum = np.bincount(stream_cells, targets.ravel(), minlength=2 * S).reshape(S, 2)
        mean_targets = tsum / np.maximum(tcnt, 1)[:, None]
        seen = (tcnt > 0)[:, None]
        np.copyto(critic, critic + cfg.value_lr * (mean_targets - critic), where=seen)

        # the episode means, computed as np.mean computes them
        mean_reward, mean_features = traj.rewards.sum() / T, traj.features.sum(axis=0) / T
        update_moving_averages(pset, z, mean_reward, mean_features, cfg.moving_average)
        pset.vstar_estimate = float(pset.avg_value[0])
        if strategy_cfg.kind == StrategyKind.DOMINO_LAGRANGIAN and n > 1:
            lagrange_step_adam(pset, strategy_cfg.alpha, cfg.lagrange_lr, adam)

        if not (np.isfinite(logits[z]).all() and np.isfinite(critic).all()):
            raise TrainingDivergedError(f"non-finite learner table after episode {ep}")

        if (ep + 1) % cfg.eval_every == 0 or ep + 1 == cfg.total_episodes:
            pset.policies = _softmax(logits)
            record(ep + 1)

    pset.policies = _softmax(logits)
    return pset, records
