"""Experiment configuration: JSON schema, validation, and builders.

A config file fully determines an experiment: environment, diversity
objective, constraint strategy, trainer settings, sweep axes, seeds, and
an optional few-shot evaluation section. Parsing is strict: unknown keys,
missing keys, non-finite numbers and out-of-range values raise ConfigError
with the dotted path of the offending entry, so a typo fails fast instead
of silently running the default.

Each section is a table of {key: checker}. A key the config leaves out is
not passed on, so its default is the one declared on the dataclass the
section builds (or on build_chain), and nowhere else.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .diversity import DiversityConfig, DiversityKind, RewardScaling
from .envs import (
    Always,
    FeatureKind,
    GridSpec,
    Periodic,
    Perturbation,
    PerturbationKind,
    Schedule,
    build_chain,
    build_gridworld,
)
from .kshot import KShotConfig
from .mdp import Criterion, TabularMdp
from .policy_set import MovingAverageConfig
from .seeding import SEED_MAX, SEED_MIN
from .strategies import StrategyConfig, StrategyKind
from .training import _LOCKSTEP_MEMBERS, ExactTrainConfig, FtlMode, SampleTrainConfig

__all__ = [
    "ConfigError",
    "EnvironmentSettings",
    "TrainerSettings",
    "SweepSettings",
    "KShotMethod",
    "PerturbationSettings",
    "KShotSettings",
    "ExperimentConfig",
    "parse_config",
    "load_config",
]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


BASELINE_METHOD = "baseline"  # the method name of the baseline's kshot.csv rows


def _check_keys(path: str, d: dict, required: set[str], optional: set[str]) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    missing = required - d.keys()
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}")
    unknown = d.keys() - required - optional
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _built(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError that build raises reported at path."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _section(path: str, d: dict, required: dict, optional: dict, build):
    """build(**parsed) from section d; both tables map key -> checker(path, value).

    Only the keys present are parsed and passed on, so an omitted key takes
    build's own default. A ValueError raised by build is reported at path.
    """
    _check_keys(path, d, set(required), set(optional))
    checkers = {**required, **optional}
    parsed = {key: check(f"{path}.{key}", d[key]) for key, check in checkers.items() if key in d}
    return _built(path, build, **parsed)


def _variant(path: str, d: dict, key: str, choices: set[str]) -> tuple[str, dict]:
    """A section's discriminator d[key], and the rest of the section."""
    # only the type and the discriminator; the variant's own _section checks the rest
    _check_keys(path, d, {key}, set(d) if isinstance(d, dict) else set())
    rest = dict(d)
    return _string(f"{path}.{key}", rest.pop(key), choices), rest


def _nest(build, name: str, inner, keys):
    """build, with the keyword arguments named in keys gathered into inner(...) as name."""

    def nested(**kwargs):
        inner_kwargs = {key: kwargs.pop(key) for key in keys if key in kwargs}
        return build(**kwargs, **{name: inner(**inner_kwargs)})

    return nested


def _number(path: str, value, lo=None, hi=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {x}")
    if lo is not None and x < lo:
        raise ConfigError(f"{path}: {x} is below the minimum {lo}")
    if hi is not None and x > hi:
        raise ConfigError(f"{path}: {x} is above the maximum {hi}")
    return x


def _integer(path: str, value, lo=None, hi=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: {value} is below the minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}: {value} is above the maximum {hi}")
    return value


def _string(path: str, value, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: {value!r} is not one of {sorted(choices)}")
    return value


def _enum(path: str, value, enum_cls):
    name = _string(path, value, {e.value for e in enum_cls})
    return enum_cls(name)


def _cell(path: str, value) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise ConfigError(f"{path}: expected [row, col] integers, got {value!r}")
    return (value[0], value[1])


def _list(path: str, value, parse_one, expected="a nonempty list", empty_ok=False) -> tuple:
    if not isinstance(value, list) or not (value or empty_ok):
        raise ConfigError(f"{path}: expected {expected}")
    return tuple(parse_one(f"{path}[{i}]", v) for i, v in enumerate(value))


def _axis(parse_one):
    """Checker of a nonempty list of values; null means the axis is absent."""
    return lambda path, value: None if value is None else _list(path, value, parse_one)


def _choice(*choices: str):
    return partial(_string, choices=set(choices))


def _enum_of(enum_cls):
    return partial(_enum, enum_cls=enum_cls)


def _top_level(parse):
    """A top-level section reports its errors under its own name, not config.<name>."""
    return lambda path, value: parse(path.removeprefix("config."), value)


_NONNEGATIVE = partial(_number, lo=0.0)
_UNIT = partial(_number, lo=0.0, hi=1.0)
_COUNT = partial(_integer, lo=1)


# Maxima of the counts that drive memory or time. A set fits one lockstep
# group, so a best response stacks at most _LOCKSTEP_MEMBERS members. One
# sample_episodes call plays k_select or n_eval episodes of horizon steps:
# at most 10^7 steps, about 33 bytes each at its peak. The bootstrap's chunk
# gathers (64, seeds, 2, n_eval) int64 episode indices: at most 102 MB.
_SET_SIZE = partial(_COUNT, hi=_LOCKSTEP_MEMBERS)
_STEPS = partial(_COUNT, hi=10_000)  # horizon, episode_length
_EPISODES = partial(_COUNT, hi=1_000)  # k_select, n_eval


@dataclass(frozen=True)
class EnvironmentSettings:
    grid: GridSpec | None = None  # a gridworld; otherwise a chain
    chain: dict | None = None  # keyword arguments of build_chain

    def build(self) -> tuple[TabularMdp, GridSpec | None]:
        if self.grid is not None:
            return build_gridworld(self.grid), self.grid
        return build_chain(**self.chain), None


@dataclass(frozen=True)
class TrainerSettings:
    mode: str  # "exact" or "sampled"
    exact: ExactTrainConfig | None = None
    sampled: SampleTrainConfig | None = None


@dataclass(frozen=True)
class SweepSettings:
    alpha: tuple[float, ...] | None = None
    set_size: tuple[int, ...] | None = None
    contact_distance: tuple[float, ...] | None = None
    c_e: tuple[float, ...] | None = None
    c_d: tuple[float, ...] | None = None


@dataclass(frozen=True)
class KShotMethod:
    name: str
    strategy: StrategyConfig
    set_size: int


@dataclass(frozen=True)
class PerturbationSettings:
    kind: PerturbationKind
    magnitudes: tuple[float, ...]
    schedule: Schedule = Always()


@dataclass(frozen=True)
class KShotSettings:
    methods: tuple[KShotMethod, ...]
    perturbations: tuple[PerturbationSettings, ...]
    n_train_seeds: int = 5
    protocol: KShotConfig = KShotConfig()


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    output_dir: str
    environment: EnvironmentSettings
    diversity: DiversityConfig
    strategy: StrategyConfig
    trainer: TrainerSettings
    seeds: tuple[int, ...] = (0,)
    set_size: int = 2
    sweep: SweepSettings = SweepSettings()
    kshot: KShotSettings | None = None


# Most states an environment may have. The transition tensor holds S^2 A
# floats, and a lockstep best response or a stacked occupancy call holds
# at most about two (64, S, S) float64 stacks at once (_SET_SIZE; 2.2 under
# tracemalloc): under 300 MB at 512 states.
_MAX_STATES = 512

# optional keys of both environment types
_ENVIRONMENT = {
    "feature_kind": _enum_of(FeatureKind),
    "discount": _UNIT,
}


def _goal(path: str, entry) -> tuple[tuple[int, int], float]:
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise ConfigError(f"{path}: expected [row, col, value], got {entry!r}")
    return _cell(path, entry[:2]), _number(f"{path}.value", entry[2])


def _goals(path: str, value) -> dict:
    goals: dict = {}
    entries = _list(path, value, _goal, "a nonempty list of [row, col, value]")
    for i, (cell, v) in enumerate(entries):
        if cell in goals:
            raise ConfigError(f"{path}[{i}]: cell {cell} is already a goal")
        goals[cell] = v
    return goals


def _grid_spec(goals: dict, **fields) -> GridSpec:
    cells = fields["width"] * fields["height"]
    if cells > _MAX_STATES:
        raise ValueError(f"width * height = {cells} cells is above the maximum {_MAX_STATES}")
    return GridSpec(goal_cells=goals, **fields)


def _parse_environment(path: str, d: dict) -> EnvironmentSettings:
    kind, rest = _variant(path, d, "type", {"gridworld", "chain"})
    if kind == "chain":
        chain = _section(
            path,
            rest,
            {"length": partial(_integer, lo=2, hi=_MAX_STATES)},
            {"end_reward": _number, **_ENVIRONMENT},
            dict,
        )
        return EnvironmentSettings(chain=chain)
    grid = _section(
        path,
        rest,
        {
            "width": _COUNT,
            "height": _COUNT,
            "goals": _goals,
        },
        {
            "walls": lambda p, v: frozenset(
                _list(p, v, _cell, "a list of [row, col] cells", empty_ok=True)
            ),
            "slip_prob": _UNIT,
            "start": lambda p, v: None if v is None else _cell(p, v),
            "base_reward": _NONNEGATIVE,
            **_ENVIRONMENT,
        },
        _grid_spec,
    )
    return EnvironmentSettings(grid=grid)


def _parse_diversity(path: str, d: dict) -> DiversityConfig:
    optional = {
        "contact_distance": _number,
        "attractive_power": _number,
        "repulsive_power": _number,
        "attractive_coeff": _number,
        "scaling": _enum_of(RewardScaling),
    }
    return _section(path, d, {"kind": _enum_of(DiversityKind)}, optional, DiversityConfig)


def _parse_strategy(path: str, d: dict) -> StrategyConfig:
    optional = {"alpha": _UNIT, "c_d": _NONNEGATIVE, "c_e": _UNIT}
    return _section(path, d, {"kind": _enum_of(StrategyKind)}, optional, StrategyConfig)


# moving-average decays, shared by both trainers
_MOVING_AVERAGE = {"value_decay": _UNIT, "feature_decay": _UNIT}

_TRAINERS = {
    "exact": (
        ExactTrainConfig,
        {
            "outer_iterations": partial(_COUNT, hi=10_000),
            "criterion": _enum_of(Criterion),
            "lagrange_lr": _NONNEGATIVE,
            "ftl_mode": _enum_of(FtlMode),
            "policy_init": _choice("random", "uniform"),
        },
    ),
    "sampled": (
        SampleTrainConfig,
        {
            "total_episodes": partial(_COUNT, hi=1_000_000),
            "episode_length": _STEPS,
            "policy_lr": _NONNEGATIVE,
            "value_lr": _NONNEGATIVE,
            "entropy_weight": _NONNEGATIVE,
            "n_step": _COUNT,
            "lagrange_lr": _NONNEGATIVE,
            "eval_every": _COUNT,
        },
    ),
}


def _parse_trainer(path: str, d: dict) -> TrainerSettings:
    mode, rest = _variant(path, d, "mode", set(_TRAINERS))
    cls, optional = _TRAINERS[mode]
    build = _nest(cls, "moving_average", MovingAverageConfig, _MOVING_AVERAGE)
    cfg = _section(path, rest, {}, {**optional, **_MOVING_AVERAGE}, build)
    return TrainerSettings(mode=mode, **{mode: cfg})


def _parse_sweep(path: str, d: dict) -> SweepSettings:
    optional = {
        "alpha": _axis(_UNIT),
        "set_size": _axis(_SET_SIZE),
        "contact_distance": _axis(_number),
        "c_e": _axis(_UNIT),
        "c_d": _axis(_NONNEGATIVE),
    }
    return _section(path, d, {}, optional, SweepSettings)


def _parse_schedule(path: str, d: dict) -> Schedule:
    kind, rest = _variant(path, d, "type", {"Always", "Periodic"})
    if kind == "Always":
        return _section(path, rest, {}, {}, Always)
    optional = {
        "period": _COUNT,
        "duration": partial(_integer, lo=0),
        "start": partial(_integer, lo=0),
    }
    return _section(path, rest, {}, optional, Periodic)


def _parse_perturbation(path: str, d: dict) -> PerturbationSettings:
    required = {"kind": _enum_of(PerturbationKind), "magnitudes": _axis(_number)}
    ps = _section(path, d, required, {"schedule": _parse_schedule}, PerturbationSettings)
    for i, magnitude in enumerate(ps.magnitudes):
        _built(f"{path}.magnitudes[{i}]", Perturbation, kind=ps.kind, magnitude=magnitude)
    return ps


def _parse_method(path: str, d: dict) -> KShotMethod:
    required = {"name": _string, "strategy": _parse_strategy, "set_size": _SET_SIZE}
    return _section(path, d, required, {}, KShotMethod)


def _parse_methods(path: str, value) -> tuple[KShotMethod, ...]:
    methods = _list(path, value, _parse_method)
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: method names must be unique")
    if BASELINE_METHOD in names:
        i = names.index(BASELINE_METHOD)
        raise ConfigError(f"{path}[{i}].name: {BASELINE_METHOD!r} names the baseline's rows")
    return methods


# the evaluation protocol, gathered into one KShotConfig
_PROTOCOL = {
    "k_select": _EPISODES,
    "n_eval": _EPISODES,
    "horizon": _STEPS,
    "ci_level": _UNIT,
    "bootstrap_resamples": partial(_COUNT, hi=100_000),
}


def _parse_kshot(path: str, d: dict) -> KShotSettings:
    required = {
        "methods": _parse_methods,
        "perturbations": lambda p, v: _list(p, v, _parse_perturbation),
    }
    optional = {"n_train_seeds": partial(_COUNT, hi=100), **_PROTOCOL}
    build = _nest(KShotSettings, "protocol", KShotConfig, _PROTOCOL)
    return _section(path, d, required, optional, build)


def parse_config(d: dict) -> ExperimentConfig:
    required = {
        "master_seed": partial(_integer, lo=SEED_MIN, hi=SEED_MAX),  # hash64's range
        "output_dir": _string,
        "environment": _top_level(_parse_environment),
        "diversity": _top_level(_parse_diversity),
        "strategy": _top_level(_parse_strategy),
        "trainer": _top_level(_parse_trainer),
    }
    optional = {
        "seeds": lambda p, v: _list(p, v, _integer, "a nonempty list of integers"),
        "set_size": _SET_SIZE,
        "sweep": _top_level(_parse_sweep),
        "kshot": _top_level(_parse_kshot),
    }
    config = _section("config", d, required, optional, ExperimentConfig)
    try:
        config.environment.build()
    except Exception as exc:
        raise ConfigError(f"environment: cannot build ({exc})") from exc
    for i, l0 in enumerate(config.sweep.contact_distance or ()):
        path = f"sweep.contact_distance[{i}]"
        _built(path, dataclasses.replace, config.diversity, contact_distance=l0)
    for i, ps in enumerate(config.kshot.perturbations if config.kshot else ()):
        if ps.kind.needs_grid and config.environment.grid is None:
            raise ConfigError(f"kshot.perturbations[{i}].kind: {ps.kind.value} needs a gridworld")
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"{p}: cannot read the config file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return parse_config(raw)
