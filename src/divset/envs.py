"""Gridworld / chain constructors and test-time perturbations.

Gridworlds are occupancy-reward tasks: reward is attached to standing on a
cell (the same for every action taken there), so under the average
criterion a policy's value is the reward-weighted fraction of time it
spends on rewarded cells. A GridSpec can pay a base reward on every open
cell, with goal-cell extras stacked on top. Cells are (row, col) pairs;
the four actions are 0=up, 1=down, 2=left, 3=right, and moves into walls
or off the grid leave the state unchanged. With slip probability p the
chosen action is replaced by a uniformly random one with probability p.

Perturbations model test-time degradations. ActionFailure and ActionRemap
act directly on the transition tensor; SlipIncrease, BlockCells and
RewardShift are grid-level edits (they require the GridSpec). All preserve
the state indexing of the original MDP so trained policies remain
applicable. A schedule says at which steps of an episode the perturbed
dynamics apply: Always at every step, Periodic only inside its active
window, with the unperturbed dynamics at every other step.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .mdp import TabularMdp, validate_mdp
from .seeding import child_rng

__all__ = [
    "FeatureKind",
    "GridSpec",
    "PerturbationKind",
    "Always",
    "Periodic",
    "Schedule",
    "Perturbation",
    "PerturbedMdp",
    "UnreachableGoalError",
    "build_gridworld",
    "build_chain",
    "grid_cells",
    "four_rooms_spec",
    "perturb",
]

_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right


class UnreachableGoalError(RuntimeError):
    """A perturbation disconnected every rewarded state from the start."""


class FeatureKind(str, Enum):
    ONE_HOT_STATE = "OneHotState"
    XY_COORDINATES = "XYCoordinates"
    XY_PLUS_GOAL_DISTANCE = "XYPlusGoalDistance"


@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int
    walls: frozenset = frozenset()  # of (row, col)
    goal_cells: dict = field(default_factory=dict)  # (row, col) -> extra reward
    slip_prob: float = 0.0
    feature_kind: FeatureKind = FeatureKind.XY_COORDINATES
    start: tuple | None = None  # None: uniform over open cells
    discount: float = 0.99
    base_reward: float = 0.0  # paid on every open cell, goal extras stack on top


def grid_cells(spec: GridSpec) -> list[tuple[int, int]]:
    """Open cells in row-major order; their positions are the state indices."""
    return [
        (r, c)
        for r in range(spec.height)
        for c in range(spec.width)
        if (r, c) not in spec.walls
    ]


def _check_grid(spec: GridSpec) -> None:
    def inside(cell):
        return 0 <= cell[0] < spec.height and 0 <= cell[1] < spec.width

    if spec.width < 1 or spec.height < 1:
        raise ValueError(f"grid must be at least 1x1, got {spec.width}x{spec.height}")
    if not 0.0 <= spec.slip_prob <= 1.0:
        raise ValueError(f"slip_prob must be in [0, 1], got {spec.slip_prob}")
    if not np.isfinite(spec.base_reward) or spec.base_reward < 0.0:
        raise ValueError(f"base_reward must be finite and >= 0, got {spec.base_reward}")
    for cell in spec.goal_cells:
        if not inside(cell) or cell in spec.walls:
            raise ValueError(f"goal cell {cell} is a wall or out of bounds")
    if spec.start is not None and (not inside(spec.start) or spec.start in spec.walls):
        raise ValueError(f"start cell {spec.start} is a wall or out of bounds")


def _grid_features(spec: GridSpec, cells: list) -> np.ndarray:
    num_actions = len(_DELTAS)
    # coordinates are scaled to the unit square so feature magnitudes stay
    # comparable to per-step rewards regardless of the grid dimensions
    sx = float(max(spec.width - 1, 1))
    sy = float(max(spec.height - 1, 1))
    if spec.feature_kind == FeatureKind.ONE_HOT_STATE:
        per_state = np.eye(len(cells))
    elif spec.feature_kind == FeatureKind.XY_COORDINATES:
        per_state = np.array([[c / sx, r / sy] for r, c in cells])
    elif spec.feature_kind == FeatureKind.XY_PLUS_GOAL_DISTANCE:
        if not spec.goal_cells:
            raise ValueError("XYPlusGoalDistance needs at least one goal cell")
        sd = sx + sy
        dist = [
            min(abs(r - gr) + abs(c - gc) for gr, gc in spec.goal_cells)
            for r, c in cells
        ]
        per_state = np.array(
            [[c / sx, r / sy, d / sd] for (r, c), d in zip(cells, dist)]
        )
    else:
        raise ValueError(f"unknown feature kind {spec.feature_kind!r}")
    # features are state-based; replicate across actions, rows ordered (s, a)
    return np.repeat(per_state, num_actions, axis=0)


def build_gridworld(spec: GridSpec) -> TabularMdp:
    _check_grid(spec)
    cells = grid_cells(spec)
    index = {cell: s for s, cell in enumerate(cells)}
    S, A = len(cells), len(_DELTAS)

    def move(cell, a):
        r, c = cell[0] + _DELTAS[a][0], cell[1] + _DELTAS[a][1]
        return (r, c) if (r, c) in index else cell

    transition = np.zeros((S, A, S))
    for s, cell in enumerate(cells):
        targets = [index[move(cell, a)] for a in range(A)]
        for a in range(A):
            transition[s, a, targets[a]] += 1.0 - spec.slip_prob
            for b in range(A):
                transition[s, a, targets[b]] += spec.slip_prob / A

    reward = np.full((S, A), spec.base_reward)
    for cell, value in spec.goal_cells.items():
        reward[index[cell], :] += value

    if spec.start is not None:
        initial = np.zeros(S)
        initial[index[spec.start]] = 1.0
    else:
        initial = np.full(S, 1.0 / S)

    mdp = TabularMdp(
        transition=transition,
        reward=reward,
        features=_grid_features(spec, cells),
        discount=spec.discount,
        initial_dist=initial,
    )
    validate_mdp(mdp)
    return mdp


def build_chain(
    length: int,
    feature_kind: FeatureKind = FeatureKind.XY_COORDINATES,
    *,
    end_reward: float = 0.0,
    discount: float = 0.99,
) -> TabularMdp:
    """A line of `length` states with actions 0=left, 1=right, 2=stay.

    The position feature is the raw state index (so a length-5 chain spans
    feature distance 4); end_reward, if nonzero, is paid for standing on
    the rightmost state.
    """
    if length < 2:
        raise ValueError(f"chain length must be >= 2, got {length}")
    S, A = length, 3
    transition = np.zeros((S, A, S))
    for s in range(S):
        transition[s, 0, max(s - 1, 0)] = 1.0
        transition[s, 1, min(s + 1, S - 1)] = 1.0
        transition[s, 2, s] = 1.0
    reward = np.zeros((S, A))
    reward[S - 1, :] = end_reward
    if feature_kind == FeatureKind.ONE_HOT_STATE:
        per_state = np.eye(S)
    elif feature_kind == FeatureKind.XY_COORDINATES:
        per_state = np.arange(S, dtype=float)[:, None]
    else:
        raise ValueError(f"chains do not support feature kind {feature_kind!r}")
    mdp = TabularMdp(
        transition=transition,
        reward=reward,
        features=np.repeat(per_state, A, axis=0),
        discount=discount,
        initial_dist=np.full(S, 1.0 / S),
    )
    validate_mdp(mdp)
    return mdp


def four_rooms_spec(
    *,
    slip_prob: float = 0.1,
    reward_decay: float = 0.9,
    reward_radius: int = 4,
    reward_floor: float = 0.5,
) -> GridSpec:
    """The committed 9x9 four-rooms benchmark.

    Two primary reward peaks sit at opposite corners: the start corner
    (0, 0) pays 0.97 and the far corner (8, 8) pays 1.0. The other two
    corners carry secondary peaks of 0.90. Every peak is surrounded by a
    graded field decaying per Manhattan step; every other open cell pays
    the reward_floor. The floor makes every cell acceptable parking for
    loosely constrained policies (standing anywhere earns half the peak
    rate), so constrained optimisation settles instead of oscillating
    between a peak and a dead zone, while the graded rims provide
    intermediate-value cells for tighter constraints. The secondary
    corners matter because with planar coordinate features a repulsive
    reward is maximised at some corner of the grid: giving all four
    corners near-peak value makes every repulsion target a place worth
    standing, so constrained policies spread out instead of cycling
    between a peak and a worthless corner. The two primary peaks trade
    steady-state value against travel distance, which is what test-time
    perturbations magnify: a policy parked on the slightly cheaper start
    peak pays no travel cost when movement degrades, while reaching the
    far peak costs a long low-reward walk that degradation stretches out.
    """
    height = width = 9
    doors = {(4, 2), (4, 6), (2, 4), (6, 4)}
    walls = frozenset(
        ({(4, c) for c in range(width)} | {(r, 4) for r in range(height)}) - doors
    )
    peaks = {(0, 0): 0.97, (8, 8): 1.0, (8, 0): 0.90, (0, 8): 0.90}
    goal_cells = {}
    for r in range(height):
        for c in range(width):
            if (r, c) in walls:
                continue
            in_range = [
                peak * reward_decay ** (abs(r - pr) + abs(c - pc))
                for (pr, pc), peak in peaks.items()
                if abs(r - pr) + abs(c - pc) <= reward_radius
            ]
            # goal extras sit on top of the floor paid everywhere
            if in_range and max(in_range) > reward_floor:
                goal_cells[(r, c)] = max(in_range) - reward_floor
    return GridSpec(
        width=width,
        height=height,
        walls=walls,
        goal_cells=goal_cells,
        slip_prob=slip_prob,
        feature_kind=FeatureKind.XY_COORDINATES,
        start=(0, 0),
        base_reward=reward_floor,
    )


class PerturbationKind(str, Enum):
    ACTION_FAILURE = "ActionFailure"
    SLIP_INCREASE = "SlipIncrease"
    BLOCK_CELLS = "BlockCells"
    REWARD_SHIFT = "RewardShift"
    ACTION_REMAP = "ActionRemap"

    @property
    def needs_grid(self) -> bool:
        """Whether the perturbation edits the grid, so needs its GridSpec."""
        return self not in (PerturbationKind.ACTION_FAILURE, PerturbationKind.ACTION_REMAP)


@dataclass(frozen=True)
class Always:
    def active(self, step: int) -> bool:
        return True


@dataclass(frozen=True)
class Periodic:
    period: int = 1
    duration: int = 1
    start: int = 0

    def __post_init__(self) -> None:
        if self.period < 1 or not 0 <= self.duration <= self.period:
            raise ValueError(f"need 0 <= duration <= period, got {self}")
        if not 0 <= self.start < self.period:
            raise ValueError(f"start must be in [0, period), got {self}")

    def active(self, step: int) -> bool:
        return (step - self.start) % self.period < self.duration


Schedule = Always | Periodic


@dataclass(frozen=True)
class Perturbation:
    kind: PerturbationKind
    magnitude: float
    schedule: Schedule = Always()

    def __post_init__(self) -> None:
        # a probability or a fraction of the states or cells; RewardShift's is a radius in cells
        hi = float("inf") if self.kind == PerturbationKind.REWARD_SHIFT else 1.0
        if not 0.0 <= self.magnitude <= hi:
            raise ValueError(
                f"{self.kind.value} magnitude must be in [0, {hi:g}], got {self.magnitude}"
            )


@dataclass(frozen=True)
class PerturbedMdp(TabularMdp):
    """Perturbed dynamics on the base state space, applied on a schedule.

    transition and reward are the perturbed dynamics; at step t of an
    episode they apply iff schedule.active(t), and the unperturbed MDP's
    transition and reward apply otherwise.
    """

    schedule: Schedule = Always()
    unperturbed: TabularMdp | None = None


def _goal_states(mdp: TabularMdp, grid_spec: GridSpec | None) -> np.ndarray:
    if grid_spec is not None:
        cells = grid_cells(grid_spec)
        index = {cell: s for s, cell in enumerate(cells)}
        return np.array(
            sorted(index[c] for c, v in grid_spec.goal_cells.items() if v > 0), dtype=int
        )
    return np.flatnonzero(mdp.reward.max(axis=1) > 0)


def _check_reachable(transition: np.ndarray, initial: np.ndarray, goals: np.ndarray) -> None:
    """Every start-support state must reach some goal through positive-prob edges."""
    if goals.size == 0:
        return
    S = transition.shape[0]
    # search backwards from the goals over the union-of-actions edge set
    reaches_goal = np.zeros(S, dtype=bool)
    reaches_goal[goals] = True
    edges = transition.sum(axis=1) > 0.0  # s -> s' under some action
    queue = deque(goals.tolist())
    while queue:
        t = queue.popleft()
        for s in np.flatnonzero(edges[:, t]):
            if not reaches_goal[s]:
                reaches_goal[s] = True
                queue.append(int(s))
    stranded = np.flatnonzero((initial > 0) & ~reaches_goal)
    if stranded.size:
        raise UnreachableGoalError(
            f"no rewarded state is reachable from start state(s) {stranded.tolist()}"
        )


def _apply_always(
    mdp: TabularMdp, p: Perturbation, seed: int, grid_spec: GridSpec | None
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed (transition, reward) with the original state indexing."""
    S, A = mdp.num_states, mdp.num_actions
    m = p.magnitude
    if p.kind.needs_grid and grid_spec is None:
        raise ValueError(f"{p.kind.value} requires the originating GridSpec")

    if p.kind == PerturbationKind.ACTION_FAILURE:
        stay = np.zeros((S, A, S))
        stay[np.arange(S), :, np.arange(S)] = 1.0
        return (1.0 - m) * mdp.transition + m * stay, mdp.reward.copy()

    if p.kind == PerturbationKind.ACTION_REMAP:
        rng = child_rng(seed, "remap")
        n_states = int(np.floor(m * S))
        chosen = rng.choice(S, size=n_states, replace=False)
        transition = mdp.transition.copy()
        reward = mdp.reward.copy()
        for s in np.sort(chosen):
            perm = rng.permutation(A)
            transition[s] = mdp.transition[s, perm]
            reward[s] = mdp.reward[s, perm]
        return transition, reward

    if p.kind == PerturbationKind.SLIP_INCREASE:
        new_spec = dataclasses.replace(grid_spec, slip_prob=min(1.0, grid_spec.slip_prob + m))
        rebuilt = build_gridworld(new_spec)
        return rebuilt.transition, rebuilt.reward

    if p.kind == PerturbationKind.REWARD_SHIFT:
        radius = int(round(m))
        rng = child_rng(seed, "shift")
        cells = grid_cells(grid_spec)
        new_goals: dict = {}
        for cell in sorted(grid_spec.goal_cells):
            value = grid_spec.goal_cells[cell]
            near = [
                c
                for c in cells
                if abs(c[0] - cell[0]) + abs(c[1] - cell[1]) <= radius
            ]
            target = near[rng.integers(len(near))]
            # colliding relocations keep the larger reward
            new_goals[target] = max(new_goals.get(target, 0.0), value)
        shifted = build_gridworld(dataclasses.replace(grid_spec, goal_cells=new_goals))
        return mdp.transition.copy(), shifted.reward

    if p.kind == PerturbationKind.BLOCK_CELLS:
        rng = child_rng(seed, "block")
        cells = grid_cells(grid_spec)
        index = {cell: s for s, cell in enumerate(cells)}
        protected = set(grid_spec.goal_cells)
        if grid_spec.start is not None:
            protected.add(grid_spec.start)
        candidates = [c for c in cells if c not in protected]
        n_block = int(np.floor(m * len(candidates)))
        chosen = rng.choice(len(candidates), size=n_block, replace=False)
        blocked = np.array(sorted(index[candidates[k]] for k in chosen), dtype=int)
        transition = mdp.transition.copy()
        reward = mdp.reward.copy()
        for b in blocked:
            # moves into a blocked cell bounce back to their source, exactly
            # as moves into walls do; the blocked cell itself becomes an
            # unreachable self-loop
            inbound = transition[:, :, b].copy()
            transition[:, :, b] = 0.0
            transition[np.arange(S)[:, None], np.arange(A)[None, :], np.arange(S)[:, None]] += inbound
            transition[b, :, :] = 0.0
            transition[b, :, b] = 1.0
            reward[b, :] = 0.0
        _check_reachable(transition, mdp.initial_dist, _goal_states(mdp, grid_spec))
        return transition, reward

    raise ValueError(f"unknown perturbation kind {p.kind!r}")


def perturb(
    mdp: TabularMdp,
    p: Perturbation,
    seed: int,
    *,
    grid_spec: GridSpec | None = None,
) -> PerturbedMdp:
    """Apply a perturbation; the result keeps the original state indexing.

    The result holds the perturbed transition and reward, the schedule
    that switches them on by step index, and the unperturbed MDP it falls
    back to where the schedule is inactive.
    """
    transition, reward = _apply_always(mdp, p, seed, grid_spec)
    out = PerturbedMdp(
        transition=transition,
        reward=reward,
        features=mdp.features.copy(),
        discount=mdp.discount,
        initial_dist=mdp.initial_dist.copy(),
        schedule=p.schedule,
        unperturbed=mdp,
    )
    validate_mdp(out)
    return out
