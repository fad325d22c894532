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
from bisect import bisect_left, bisect_right
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
    # FullAverage: uniform running means of the occupancies, the averaged
    # iterate whose convergence the follow-the-leader argument speaks about.
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
    states: np.ndarray  # (T,)
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)
    features: np.ndarray  # (T, d)
    next_states: np.ndarray  # (T,)


def _sample_from_cdf(cum: list[float], u: float) -> int:
    """Index of the entry of the cumulative row cum whose interval holds u.

    Rounding can leave cum[-1] short of 1. A u at or past it maps to the
    first index that reaches cum[-1]: the last outcome whose probability
    survives in the sums, never a later one that rounding absorbed.
    """
    k = bisect_right(cum, u)
    if k < len(cum):
        return k
    return bisect_left(cum, cum[-1])


@lru_cache(maxsize=16)
def _active_steps(schedule: Schedule, horizon: int) -> tuple[tuple[bool, ...], np.ndarray]:
    """schedule.active(t) for every step t of an episode, as a tuple for the
    step loop and as a read-only boolean array for selecting rewards; built
    once per (schedule, horizon) and shared by all episodes on that schedule."""
    steps = tuple(schedule.active(t) for t in range(horizon))
    mask = np.array(steps, dtype=bool)
    mask.flags.writeable = False
    return steps, mask


def _scheduled_dynamics(mdp: TabularMdp) -> tuple[Schedule, TabularMdp]:
    """mdp's own dynamics apply at the steps the schedule marks active, the
    fallback MDP's at every other step."""
    if isinstance(mdp, PerturbedMdp):
        return mdp.schedule, mdp.unperturbed
    return Always(), mdp


def rollout(
    mdp: TabularMdp, policy: np.ndarray, horizon: int, rng: np.random.Generator
) -> _Trajectory:
    """Sample one fixed-horizon episode from the initial distribution.

    On a perturbed MDP the perturbed transition and reward apply at step t
    iff its schedule is active at t, and the unperturbed ones otherwise.
    Every perturbation keeps the state indexing, so policies trained on the
    unperturbed MDP apply unchanged.
    """
    A = mdp.num_actions
    schedule, fallback = _scheduled_dynamics(mdp)
    active, active_mask = _active_steps(schedule, horizon)
    transition_rows = (fallback.transition_cdf, mdp.transition_cdf)  # by active[t]
    policy_cdf = np.cumsum(policy, axis=1).tolist()
    draws = rng.random(2 * horizon + 1).tolist()
    s = _sample_from_cdf(mdp.initial_cdf, draws[0])
    visited, chosen = [], []
    for t in range(horizon):
        a = _sample_from_cdf(policy_cdf[s], draws[2 * t + 1])
        cum, outcomes = transition_rows[active[t]][s * A + a]
        visited.append(s)
        chosen.append(a)
        s = outcomes[_sample_from_cdf(cum, draws[2 * t + 2])]
    states = np.array(visited, dtype=int)
    actions = np.array(chosen, dtype=int)
    next_states = np.array((visited + [s])[1:], dtype=int)
    rewards = np.where(active_mask, mdp.reward[states, actions], fallback.reward[states, actions])
    features = mdp.features[states * A + actions]
    return _Trajectory(states, actions, rewards, features, next_states)


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
    run_d: np.ndarray  # (n, S * A) running-mean occupancies (FullAverage)
    run_v: np.ndarray  # (n,) running-mean values (FullAverage)
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
        runs.append(_ExactRun(pset, np.zeros((n, S * A)), np.zeros(n), unmeasured, [None] * n, []))

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
                for i in range(n):
                    run.run_d[i] += (run.occs[i] - run.run_d[i]) / (k + 1)
                run.run_v += (values - run.run_v) / (k + 1)
                pset.avg_psi[:] = run.run_d @ mdp.features
                pset.avg_value[:] = run.run_v
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


def _nstep_returns(
    rewards: np.ndarray, values: np.ndarray, state_seq: np.ndarray, gamma: float, n: int
) -> np.ndarray:
    """G_t = sum_{k<min(n, T-t)} gamma^k r_{t+k} + gamma^{min(n, T-t)} V(s_...).

    state_seq has length T+1 (the visited states plus the final next
    state), so the truncated tail always bootstraps at an observed state.
    """
    T = len(rewards)
    G = np.zeros(T)
    gpow = 1.0
    for k in range(min(n, T)):
        G[: T - k] += gpow * rewards[k:]
        gpow *= gamma
    n_eff = np.minimum(n, T - np.arange(T))
    boot = np.minimum(np.arange(T) + n, T)
    G += gamma**n_eff * values[state_seq[boot]]
    return G


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
    rng = np.random.default_rng(cfg.seed)
    logits = np.zeros((n, S, A))
    v_e = np.zeros((n, S))
    v_d = np.zeros((n, S))
    pset = init_set(n, d, S, A, policy_init="uniform")
    adam = AdamState.zeros(max(n - 1, 1))
    features_sa = mdp.features_sa
    gamma = mdp.discount
    records: list[TraceRecord] = []

    def record(it: int) -> None:
        exact_psis = np.stack(
            [expected_features(mdp, occupancy(mdp, p, Criterion.AVERAGE)) for p in pset.policies]
        )
        records.append(_trace_record(it, pset.avg_value.copy(), pset, exact_psis, diversity_cfg))

    for ep in range(cfg.total_episodes):
        z = int(rng.integers(n))
        probs = _softmax(logits[z])
        traj = rollout(mdp, probs, cfg.episode_length, rng)
        T = cfg.episode_length

        if z > 0 and n >= 2:
            r_d_mat = diversity_reward(features_sa, pset.avg_psi, z, diversity_cfg)
        else:
            r_d_mat = np.zeros((S, A))
        r_d_t = r_d_mat[traj.states, traj.actions]

        state_seq = np.append(traj.states, traj.next_states[-1])
        targ_e = _nstep_returns(traj.rewards, v_e[z], state_seq, gamma, cfg.n_step)
        targ_d = _nstep_returns(r_d_t, v_d[z], state_seq, gamma, cfg.n_step)
        adv_e = targ_e - v_e[z][traj.states]
        adv_d = targ_d - v_d[z][traj.states]
        w_e, w_d = weights(strategy_cfg, pset, z)
        adv = w_e * adv_e + w_d * adv_d

        # one bincount adds the terms to each cell in the order three
        # np.add.at calls would: action terms, -adv * pi rows, entropy rows
        pi_visited = probs[traj.states]
        row_cells = (traj.states[:, None] * A + np.arange(A)).ravel()
        cells = [traj.states * A + traj.actions, row_cells]
        terms = [adv, (-adv[:, None] * pi_visited).ravel()]
        if cfg.entropy_weight > 0.0:
            logp = np.log(np.clip(pi_visited, 1e-30, None))
            ent = -(pi_visited * logp).sum(axis=1)
            cells.append(row_cells)
            terms.append((-cfg.entropy_weight * pi_visited * (logp + ent[:, None])).ravel())
        grad = np.bincount(np.concatenate(cells), np.concatenate(terms), minlength=S * A)
        logits[z] += cfg.policy_lr * grad.reshape(S, A) / T

        tcnt = np.bincount(traj.states, minlength=S)
        mask = tcnt > 0
        for table, targets in ((v_e[z], targ_e), (v_d[z], targ_d)):
            tsum = np.bincount(traj.states, targets, minlength=S)
            table[mask] += cfg.value_lr * (tsum[mask] / tcnt[mask] - table[mask])

        update_moving_averages(
            pset, z, traj.rewards.mean(), traj.features.mean(axis=0), cfg.moving_average
        )
        pset.vstar_estimate = float(pset.avg_value[0])
        if strategy_cfg.kind == StrategyKind.DOMINO_LAGRANGIAN and n > 1:
            lagrange_step_adam(pset, strategy_cfg.alpha, cfg.lagrange_lr, adam)

        if not (
            np.all(np.isfinite(logits[z]))
            and np.all(np.isfinite(v_e[z]))
            and np.all(np.isfinite(v_d[z]))
        ):
            raise TrainingDivergedError(f"non-finite learner table after episode {ep}")

        if (ep + 1) % cfg.eval_every == 0 or ep + 1 == cfg.total_episodes:
            pset.policies = _softmax(logits)
            record(ep + 1)

    pset.policies = _softmax(logits)
    return pset, records
