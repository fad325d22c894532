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
through the initial policies). Every member's mixed reward lies in the span
of d + 1 fixed columns, the extrinsic reward and the features, so its best
responses evaluate each policy once, in that basis: each member's value and
expected features are read from its final evaluation. The rewards move
little between iterations, and the next best response is often a policy
the set already holds, so each member's best response starts from the
best of its set's policies of the last two iterations under its new
reward, whose kept evaluation is its first round (_warm_start).
Occupancies are solved only for the optimum and the initial set, unless
d > S / 4, where the extra columns cost more than they save (_basis_pays).
The sampled trainer is a tabular softmax
actor-critic with one critic per reward stream and n-step advantages,
deterministic given its seed.

Both trainers take one config and a list of seeds, and train one set per
seed in lockstep, at most _LOCKSTEP_MEMBERS members at a time. A group is one
stacked PolicySet, so each moving-average, Lagrange and weights step is one
call over every set. Exact: each outer step's best responses of every
set's members are one stacked call. Sampled: each episode, one
sample_episodes call plays every set's episode, each from its own set's
generator, and the updates run once over the sets' stacked tables. Either
way each set's arithmetic is what it would be alone, so lockstep training
changes no output.

sample_episodes is the package's one episode sampler: the sampled trainer
and the few-shot harness (kshot) play every episode through it, on
perturbed and unperturbed MDPs alike.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .diversity import (
    DiversityConfig,
    _nearest,
    diversity_objective,
    diversity_score,
    reward_table,
)
from .envs import Always, PerturbedMdp, Schedule
from .mdp import (
    Criterion,
    TabularMdp,
    _cdf_rows,
    _improve,
    best_response,
    deterministic_policy,
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
from .strategies import StrategyConfig, StrategyKind, weights

__all__ = [
    "FtlMode",
    "ExactTrainConfig",
    "SampleTrainConfig",
    "TraceRecord",
    "TrainingDivergedError",
    "sample_episodes",
    "train_exact",
    "train_sampled",
]


# most members trained in one lockstep group (train_exact's best_response
# stack, train_sampled's tables); it bounds their memory whatever the
# number of sets
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
    eval_every: int = 100


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    extrinsic_values: np.ndarray  # (n,) exact values (exact mode) or v~ estimates
    sigma_mu: np.ndarray  # (n,) extrinsic mixing weights, anchor pinned to 1
    diversity_mean: float  # nearest-neighbour mean over the psi~ estimates
    diversity_mean_exact: float  # same, over exact expected features
    objective_value: float  # sum_i f(l_i) of the diversity kernel at the psi~ estimates


@lru_cache(maxsize=16)
def _active_steps(schedule: Schedule, horizon: int) -> tuple[tuple[bool, ...], np.ndarray]:
    """schedule.active(t) for every step t of an episode, as a tuple for the
    step loop and as a read-only boolean array for selecting rewards; built
    once per (schedule, horizon) and shared by all episodes on that schedule."""
    steps = tuple(schedule.active(t) for t in range(horizon))
    mask = np.array(steps, dtype=bool)
    mask.flags.writeable = False
    return steps, mask


def sample_episodes(
    mdp: TabularMdp, policies: np.ndarray, horizon: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample one fixed-horizon episode per generator from the initial
    distribution; every episode the package plays comes from here.

    policies is one (S, A) policy that every episode follows, or an
    (E, S, A) stack whose row e episode e follows. Returns the (E, T + 1)
    visited states (the start, then each step's next state), the (E, T)
    actions and the (E, T) rewards, for E = len(rngs) and T = horizon.

    Episode e takes 2T + 1 uniform draws from rngs[e] in one call: the
    start, then per step the action and the next state. It draws nothing
    else, so its bytes depend on its own generator only, whatever the other
    episodes of the call. Each draw is one bisect_right on an inf-tailed
    cumulative row (_cdf_rows); each policy's rows are built once per call.

    On a perturbed MDP the perturbed transition and reward apply at step t
    iff its schedule is active at t, and the unperturbed ones otherwise.
    Every perturbation keeps the state indexing, so policies trained on the
    unperturbed MDP apply unchanged.
    """
    if isinstance(mdp, PerturbedMdp):
        fallback, schedule = mdp.unperturbed, mdp.schedule
    else:
        fallback, schedule = mdp, Always()
    active, active_mask = _active_steps(schedule, horizon)
    policy_cdfs = _cdf_rows(policies).tolist()
    if policies.ndim == 2:
        policy_cdfs = [policy_cdfs] * len(rngs)
    elif len(policy_cdfs) != len(rngs):
        raise ValueError(f"got {len(policy_cdfs)} policies for {len(rngs)} episodes")
    A = mdp.num_actions
    initial = mdp.initial_cdf
    transition_rows = (fallback.transition_cdf, mdp.transition_cdf)  # by active[t]
    # each episode's lists go into these as it ends, so one episode's are alive at a time
    path = np.empty((len(rngs), horizon + 1), dtype=int)
    actions = np.empty((len(rngs), horizon), dtype=int)
    for e, (rng, policy_cdf) in enumerate(zip(rngs, policy_cdfs)):
        draws = rng.random(2 * horizon + 1).tolist()
        s = bisect_right(initial, draws[0])
        visited, picks = [s], []
        for on, u_action, u_next in zip(active, draws[1::2], draws[2::2]):
            a = bisect_right(policy_cdf[s], u_action)
            cum, outcomes = transition_rows[on][s * A + a]
            picks.append(a)
            s = outcomes[bisect_right(cum, u_next)]
            visited.append(s)
        path[e], actions[e] = visited, picks
    pairs = path[:, :-1] * A + actions  # row-major (s, a) indices
    rewards = mdp.reward.take(pairs)
    if fallback is not mdp:
        rewards = np.where(active_mask, rewards, fallback.reward.take(pairs))
    return path, actions, rewards


def _trace_record(
    iteration: int,
    extrinsic_values: np.ndarray,
    sigma_mu: np.ndarray,
    avg_psi: np.ndarray,
    exact_psis: np.ndarray,
    diversity_cfg: DiversityConfig,
    nearest: tuple[np.ndarray, np.ndarray] | None = None,
) -> TraceRecord:
    """One set's record from its (n,) values and sigma row and its (n, d)
    psi~ and exact psi rows; nearest, if given, is _nearest(avg_psi)."""
    if nearest is None:
        nearest = _nearest(avg_psi)
    return TraceRecord(
        iteration=iteration,
        extrinsic_values=extrinsic_values,
        sigma_mu=sigma_mu,
        diversity_mean=diversity_score(avg_psi, nearest),
        diversity_mean_exact=diversity_score(exact_psis),
        objective_value=diversity_objective(avg_psi, diversity_cfg, nearest),
    )


# the array fields of a PolicySet, which a stacked set stacks
_FIELDS = ("policies", "mu", "avg_value", "avg_psi")


def _stack(psets: list[PolicySet]) -> PolicySet:
    """The sets as one stacked PolicySet, set axis first in every field."""
    return PolicySet(*(np.stack([getattr(p, f) for p in psets]) for f in _FIELDS))


def _split(
    stack: PolicySet, records: list[list[TraceRecord]]
) -> list[tuple[PolicySet, list[TraceRecord]]]:
    """One (pset, trace) per set of the stack, in order; each pset's arrays
    view the stack's rows, and its vstar_estimate is its own float."""
    vstars = np.broadcast_to(stack.vstar_estimate, (len(records), 1))[:, 0].tolist()
    return [
        (PolicySet(*(getattr(stack, f)[g] for f in _FIELDS), vstar), trace)
        for g, (vstar, trace) in enumerate(zip(vstars, records))
    ]


def train_exact(
    mdp: TabularMdp,
    n: int,
    diversity_cfg: DiversityConfig,
    strategy_cfg: StrategyConfig,
    cfg: ExactTrainConfig,
    seeds: Sequence[int],
) -> list[tuple[PolicySet, list[TraceRecord]]]:
    """Run the exact three-player loop for cfg.outer_iterations steps.

    Trains one set per seed in lockstep and returns one (pset, trace) per
    seed, in order; a seed only draws its set's initial policies. The sets
    are trained in groups of at most _LOCKSTEP_MEMBERS members (a set larger
    than that alone). Each set's arithmetic is what it would be alone, so
    grouping changes no output.

    The anchor's constraint reference is the exact optimal extrinsic value
    (computed once; the extrinsic reward never changes). Each outer
    iteration makes one best_response call over every set's members. Its
    basis is the extrinsic reward and the d feature columns, and member i's
    coefficients are (w_e, w_d c(l_i) (psi_i - psi_j)) from one
    reward_table per set, zero on the anchor's diversity columns. One
    occupancy call measures the initial members; after that each member's
    value and expected features are d0 . gain of its final evaluation's
    columns. With more than S / 4 features each member's own reward is one
    column instead, and one occupancy call after each best_response solves
    the members that moved from their start, if any.

    The first call starts from the initial policies. After that each member
    starts from the policy of largest exact value under its new reward
    among its own set's n current policies and the n it held one iteration
    earlier (the lowest index on ties, current policies first), if that
    beats its own policy by more than Howard's relative slack, and from its
    own policy otherwise; its kept evaluation (in the basis) is the call's
    first round, so a start that is already optimal costs no solve. The
    last two iterations' evaluations, or occupancies, are kept for this.

    The returned trace is a list of one record per iteration plus a final
    evaluation record for the policies as returned.
    """
    return _lockstep(_train_exact_group, mdp, n, diversity_cfg, strategy_cfg, cfg, seeds)


def _lockstep(train_group, mdp, n, diversity_cfg, strategy_cfg, cfg, seeds: Sequence[int]) -> list:
    """One (pset, trace) per seed, in order: train_group trains runs of
    consecutive seeds in lockstep, at most _LOCKSTEP_MEMBERS members in all
    (a set larger than that alone)."""
    if n < 1:
        raise ValueError(f"need at least one policy, got n={n}")
    per_group = max(1, _LOCKSTEP_MEMBERS // n)
    results = []
    for i in range(0, len(seeds), per_group):
        results += train_group(mdp, n, diversity_cfg, strategy_cfg, cfg, seeds[i : i + per_group])
    return results


def _basis_pays(num_states: int, feature_dim: int) -> bool:
    """Whether the exact trainer evaluates in the K = d + 1 column reward basis.

    The basis skips every call's first round and every occupancy solve, about a
    third of the solves, but each solve takes K columns: at S = 68 a stacked
    solve costs 1.13x a one-column solve at K = 3, 1.59x at 17 and 3.9x at 69.
    Exact training (n = 5 and 10, 4 seeds, 15 iterations) in the basis took
    0.95x the member-by-member time at S = 68 and d = 17, 1.14x at d = 34 and
    1.58x at d = 68 (one-hot states); 0.73x at S = 128 and d = 32, 0.98x at
    d = 64; 0.84x at S = 32 and d = 8. So it is used while d <= S / 4.
    """
    return 4 * feature_dim <= num_states


def _warm_start(
    held: list[tuple], rewards: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Each member's start for the next best response, from its own set's
    2n candidates: the n policies the set held after the last best
    response, then the n it held after the one before.

    held is one or two (actions, columns, evaluations), newest first, with
    one row per member (row g * n + i): the (G * n, S) actions, (G * n, X)
    columns in which each policy's value is linear in the reward (d0 .
    gains in the reward basis, or the occupancies) and the basis's
    evaluations, or None. One entry stands for both. rewards is each
    member's (G * n, X) reward in those columns.

    A member starts from the candidate that Howard's rule (mdp._improve)
    picks over its own policy: its best candidate, the lowest index on
    ties, if that beats its own by more than _IMPROVEMENT_RTOL times its
    largest |value|, and its own policy otherwise. Returns the starts'
    actions, columns and evaluations.
    """
    (actions, columns, evaluations), (old_actions, old_columns, old_evaluations) = held[0], held[-1]
    G, X = len(actions) // n, columns.shape[-1]
    candidates = np.concatenate([columns.reshape(G, n, X), old_columns.reshape(G, n, X)], axis=1)
    scores = rewards.reshape(G, n, X) @ candidates.transpose(0, 2, 1)  # (G, n, 2n)
    # Howard's rule on one state whose 2n actions are the candidates
    own = np.tile(np.arange(n), G)
    choice = _improve(own[:, None], scores.reshape(G * n, 1, 2 * n))[:, 0]
    if np.array_equal(choice, own):
        return held[0]
    rows, older = np.arange(G).repeat(n) * n + choice % n, choice >= n

    def pick(new: np.ndarray, old: np.ndarray) -> np.ndarray:
        chosen = new[rows]
        chosen[older] = old[rows[older]]
        return chosen

    if evaluations is not None:
        evaluations = tuple(map(pick, evaluations, old_evaluations))
    return pick(actions, old_actions), pick(columns, old_columns), evaluations


def _train_exact_group(
    mdp: TabularMdp,
    n: int,
    diversity_cfg: DiversityConfig,
    strategy_cfg: StrategyConfig,
    cfg: ExactTrainConfig,
    seeds: Sequence[int],
) -> list[tuple[PolicySet, list[TraceRecord]]]:
    S, A, d = mdp.num_states, mdp.num_actions, mdp.feature_dim
    G, criterion = len(seeds), cfg.criterion
    pi_star, _ = best_response(mdp, mdp.reward[..., None], np.ones((1, 1)), criterion)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stack = _stack([init_set(n, d, S, A, policy_init=cfg.policy_init, rng=rng) for rng in rngs])
    stack.vstar_estimate = policy_value(mdp, occupancy(mdp, pi_star[0], criterion))
    members = stack.policies.reshape(G * n, S, A)  # row g * n + i is set g's member i
    # every member's mixed reward lies in the span of the extrinsic reward and the features
    basis = np.concatenate([mdp.reward[..., None], mdp.features_sa], axis=2)
    in_basis, evaluations = _basis_pays(S, d), None
    occs = occupancy(mdp, members, criterion)  # the stochastic initial set's
    # the candidates of _warm_start: the policies after the last two best responses
    held: list[tuple] = []
    records: list[list[TraceRecord]] = [[] for _ in seeds]

    def measure() -> tuple[np.ndarray, np.ndarray]:
        """Every member's exact value (G, n) and expected features (G, n, d), from occs."""
        return policy_value(mdp, occs).reshape(G, n), expected_features(mdp, occs).reshape(G, n, d)

    def record(iteration: int, values: np.ndarray, psis: np.ndarray) -> list:
        """Append each set's record; return each set's _nearest(avg_psi), which the
        record's score and objective and the set's reward table share."""
        nearest = [_nearest(avg_psi) for avg_psi in stack.avg_psi]
        sets = zip(records, values, stack.extrinsic_weights(), stack.avg_psi, psis, nearest)
        for trace, *arrays, near in sets:
            trace.append(_trace_record(iteration, *arrays, diversity_cfg, near))
        return nearest

    # Seed the follow-the-leader state with the initial policies' true
    # statistics. Exact mode has no estimation phase, and starting every
    # feature row at the same prior would make the initial pairwise
    # distances (hence the diversity rewards) vanishingly small, which can
    # lock members onto identical best responses before the multipliers
    # react.
    values, psis = measure()
    stack.avg_value[:], stack.avg_psi[:] = values, psis

    for k in range(cfg.outer_iterations):
        if cfg.ftl_mode == FtlMode.FULL_AVERAGE:
            # running means over iterations 0..k, started from the initial
            # measure, which equals iteration 0's
            stack.avg_value += (values - stack.avg_value) / (k + 1)
            stack.avg_psi += (psis - stack.avg_psi) / (k + 1)
        else:
            update_moving_averages(stack, ..., values, psis, cfg.moving_average)
        nearest = record(k, values, psis)

        if strategy_cfg.kind == StrategyKind.DOMINO_LAGRANGIAN:
            lagrange_step(stack, strategy_cfg.alpha, cfg.lagrange_lr)
        w = weights(strategy_cfg, stack)
        # member i's reward w_e r_e + w_d c(l_i) phi . (psi_i - psi_j) in the basis;
        # the anchor's diversity columns stay zero
        coefficients = np.zeros((G, n, 1 + d))
        coefficients[..., 0] = w[..., 0]
        for g, (avg_psi, near) in enumerate(zip(stack.avg_psi, nearest)):
            c, diff = reward_table(avg_psi, diversity_cfg, near)
            coefficients[g, 1:, 1:] = w[g, 1:, 1:] * (c[1:, None] * diff[1:])
        coefficients = coefficients.reshape(G * n, 1 + d)
        if in_basis:
            rewards = coefficients
        else:  # each member's own reward as one column
            rewards = coefficients @ basis.reshape(S * A, 1 + d).T
        # the first call starts from the stochastic initial set
        start, columns = members, occs
        if held:
            actions, columns, evaluations = _warm_start(held, rewards, n)
            start = deterministic_policy(actions, A)
        # every reward is fixed before any member moves, so the best
        # responses of every set's members are one stacked call
        if in_basis:
            members[:], evaluations = best_response(
                mdp, basis, coefficients, criterion, start, evaluations
            )
            # d0 . gains: each member's value, then its expected features
            columns = mdp.initial_dist @ evaluations[0]
            measured = columns.reshape(G, n, 1 + d)
            values, psis = measured[..., 0].copy(), measured[..., 1:]
        else:  # the occupancies of the policies that moved from their start are solved
            rewards = rewards.reshape(G * n, S, A, 1)
            policies, _ = best_response(mdp, rewards, np.ones((G * n, 1)), criterion, start)
            changed = np.any(policies != start, axis=(1, 2))
            members[:] = policies
            occs = columns.copy()
            if changed.any():
                occs[changed] = occupancy(mdp, policies[changed], criterion)
            columns = occs
            values, psis = measure()
        held = [(members.argmax(axis=2), columns, evaluations), *held[:1]]

    record(cfg.outer_iterations, values, psis)
    return _split(stack, records)


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
    seeds: Sequence[int],
) -> list[tuple[PolicySet, list[TraceRecord]]]:
    """Tabular softmax actor-critic over latent-indexed policies.

    Per episode one latent z is drawn, one fixed-horizon episode is rolled
    out with policy z, and z's tables get one batched update: n-step
    advantages per reward stream (extrinsic critic and diversity critic),
    combined with the strategy's mixing weights, plus an entropy bonus.
    The diversity reward is rebuilt from the psi~ snapshot each episode.

    Trains one set per seed in lockstep and returns one (pset, trace) per
    seed, in order; each set draws its latents and episodes from its own
    seed's generator. The sets are trained in groups of at most
    _LOCKSTEP_MEMBERS members, as in train_exact. Each episode one
    sample_episodes call plays every set's episode of a group; the updates
    then run once over the group's (sets, ...) stacks. Each set's arithmetic
    is what it would be alone, so grouping changes no output. A group raises
    TrainingDivergedError when any of its sets diverges.
    """
    return _lockstep(_train_sampled_group, mdp, n, diversity_cfg, strategy_cfg, cfg, seeds)


def _train_sampled_group(
    mdp: TabularMdp,
    n: int,
    diversity_cfg: DiversityConfig,
    strategy_cfg: StrategyConfig,
    cfg: SampleTrainConfig,
    seeds: Sequence[int],
) -> list[tuple[PolicySet, list[TraceRecord]]]:
    S, A, d = mdp.num_states, mdp.num_actions, mdp.feature_dim
    G, T = len(seeds), cfg.episode_length
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stack = _stack([init_set(n, d, S, A, policy_init="uniform") for _ in seeds])
    stack.vstar_estimate = stack.avg_value[:, :1]  # a view: each set's anchor v~
    adam = AdamState.zeros((G, max(n - 1, 1)))
    # row g * n + z is set g's member z; the critics per state are the
    # extrinsic, then the diversity critic
    logits = np.zeros((G * n, S, A))
    critics = np.zeros((G * n, S, 2))
    critic_rows = critics.reshape(G * n * S, 2)  # row (g * n + z) * S + s
    features_sa = mdp.features_sa
    gamma = mdp.discount
    sets = np.arange(G)
    action_cells = np.arange(A)
    streams = np.arange(2)
    # the n-step target of step t, sum_{k<min(n, T-t)} gamma^k r_{t+k}, bootstraps
    # at path[min(t + n, T)], observed even for the truncated tail, with
    # discount gamma^min(n, T - t)
    steps = np.arange(T)
    boot = np.minimum(steps + cfg.n_step, T)
    boot_discount = (gamma ** np.minimum(cfg.n_step, T - steps))[:, None]
    records: list[list[TraceRecord]] = [[] for _ in seeds]

    def record(it: int) -> None:
        stack.policies = _softmax(logits).reshape(G, n, S, A)
        exact_psis = expected_features(mdp, occupancy(mdp, stack.policies, Criterion.AVERAGE))
        values, sigma = stack.avg_value.copy(), stack.extrinsic_weights()
        for trace, *arrays in zip(records, values, sigma, stack.avg_psi, exact_psis):
            trace.append(_trace_record(it, *arrays, diversity_cfg))

    for ep in range(cfg.total_episodes):
        zs = [int(rng.integers(n)) for rng in rngs]
        rows = sets * n + zs
        probs = _softmax(logits[rows])
        path, actions, ext_rewards = sample_episodes(mdp, probs, T, rngs)
        states = path[:, :-1]
        pairs = states * A + actions  # row-major (s, a) indices
        set_states = sets[:, None] * S + states  # g * S + s

        rewards = np.zeros((G, T, 2))  # per step: the extrinsic, the diversity reward
        rewards[:, :, 0] = ext_rewards
        for g, z in enumerate(zs):
            if z > 0:
                c, diff = reward_table(stack.avg_psi[g], diversity_cfg)
                if c[z] != 0.0:
                    # each set's own (S, A) product: a stacked or per-pair one
                    # changes low bits for dense features of 8 or more dimensions
                    rewards[g, :, 1] = (c[z] * (features_sa @ diff[z])).take(pairs[g])

        member_states = rows[:, None] * S
        targets = np.zeros((G, T, 2))
        gpow = 1.0
        for k in range(min(cfg.n_step, T)):
            targets[:, : T - k] += gpow * rewards[:, k:]
            gpow *= gamma
        targets += boot_discount * critic_rows.take(member_states + path[:, boot], axis=0)
        advs = targets - critic_rows.take(member_states + states, axis=0)
        w = weights(strategy_cfg, stack)[sets, zs]
        adv = w[:, :1] * advs[..., 0] + w[:, 1:] * advs[..., 1]

        # one bincount adds the terms to each cell in the order three
        # np.add.at calls would: action terms, -adv * pi rows, entropy rows;
        # each set's cells are its own
        pi_visited = probs.reshape(G * S, A).take(set_states, axis=0)
        row_cells = (set_states[..., None] * A + action_cells).ravel()
        cells = [(set_states * A + actions).ravel(), row_cells]
        terms = [adv.ravel(), (-adv[..., None] * pi_visited).ravel()]
        if cfg.entropy_weight > 0.0:
            logp = np.log(np.maximum(pi_visited, 1e-30))
            ent = -(pi_visited * logp).sum(axis=-1)
            cells.append(row_cells)
            terms.append((-cfg.entropy_weight * pi_visited * (logp + ent[..., None])).ravel())
        grad = np.bincount(np.concatenate(cells), np.concatenate(terms), minlength=G * S * A)
        logits[rows] += cfg.policy_lr * grad.reshape(G, S, A) / T

        # each visited state's critics move toward their mean targets; one
        # bincount sums both streams' targets, each bin in step order
        tcnt = np.bincount(set_states.ravel(), minlength=G * S).reshape(G, S, 1)
        stream_cells = (2 * set_states[..., None] + streams).ravel()
        tsum = np.bincount(stream_cells, targets.ravel(), minlength=2 * G * S).reshape(G, S, 2)
        mean_targets = tsum / np.maximum(tcnt, 1)
        critic = critics[rows]
        np.copyto(critic, critic + cfg.value_lr * (mean_targets - critic), where=tcnt > 0)
        critics[rows] = critic

        # the episode means, computed as np.mean computes them
        mean_rewards = ext_rewards.sum(axis=1) / T
        mean_features = mdp.features.take(pairs, axis=0).sum(axis=1) / T
        update_moving_averages(stack, (sets, zs), mean_rewards, mean_features, cfg.moving_average)
        if strategy_cfg.kind == StrategyKind.DOMINO_LAGRANGIAN and n > 1:
            lagrange_step_adam(stack, strategy_cfg.alpha, cfg.lagrange_lr, adam)

        if not (np.isfinite(logits[rows]).all() and np.isfinite(critic).all()):
            raise TrainingDivergedError(f"non-finite learner table after episode {ep}")

        if (ep + 1) % cfg.eval_every == 0 or ep + 1 == cfg.total_episodes:
            record(ep + 1)

    stack.policies = _softmax(logits).reshape(G, n, S, A)
    return _split(stack, records)
