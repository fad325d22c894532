"""Config parsing, validation errors, and committed-config drift guards."""

import json
from pathlib import Path

import numpy as np
import pytest

import divset.config
from divset import (
    Always,
    ConfigError,
    DiversityConfig,
    DiversityKind,
    ExactTrainConfig,
    FeatureKind,
    GridSpec,
    KShotConfig,
    KShotMethod,
    KShotSettings,
    Periodic,
    PerturbationKind,
    PerturbationSettings,
    SampleTrainConfig,
    StrategyKind,
    build_chain,
    build_gridworld,
    four_rooms_spec,
    hash64,
    load_config,
    parse_config,
)
from divset.strategies import StrategyConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def minimal_chain_config(**overrides) -> dict:
    d = {
        "master_seed": 1,
        "output_dir": "out",
        "environment": {"type": "chain", "length": 4},
        "diversity": {"kind": "Repulsive"},
        "strategy": {"kind": "DominoLagrangian"},
        "trainer": {"mode": "exact", "outer_iterations": 2},
    }
    d.update(overrides)
    return d


def test_minimal_config_defaults():
    cfg = parse_config(minimal_chain_config())
    assert cfg.seeds == (0,)
    assert cfg.set_size == 2
    assert cfg.kshot is None
    assert cfg.sweep.alpha is None
    assert cfg.trainer.mode == "exact"
    assert cfg.trainer.sampled is None
    mdp, grid = cfg.environment.build()
    assert grid is None
    assert mdp.num_states == 4


def test_gridworld_config_builds_the_declared_grid():
    cfg = parse_config(
        minimal_chain_config(
            environment={
                "type": "gridworld",
                "width": 3,
                "height": 2,
                "goals": [[1, 2, 0.75]],
                "walls": [[0, 1]],
                "slip_prob": 0.1,
                "start": [0, 0],
                "base_reward": 0.25,
            }
        )
    )
    mdp, grid = cfg.environment.build()
    assert grid.goal_cells == {(1, 2): 0.75}
    assert grid.walls == frozenset({(0, 1)})
    assert grid.start == (0, 0)
    assert mdp.num_states == 5
    assert np.isclose(mdp.reward[-1, 0], 1.0)  # goal extra plus base


def test_unknown_keys_fail_with_the_dotted_path():
    with pytest.raises(ConfigError, match=r"config: unknown key\(s\) \['typo'\]"):
        parse_config(minimal_chain_config(typo=1))
    with pytest.raises(ConfigError, match="environment"):
        parse_config(minimal_chain_config(environment={"type": "chain", "length": 4, "speed": 2}))
    with pytest.raises(ConfigError, match="trainer"):
        parse_config(
            minimal_chain_config(trainer={"mode": "exact", "total_episodes": 10})
        )


def test_missing_and_malformed_values():
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config({k: v for k, v in minimal_chain_config().items() if k != "master_seed"})
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(minimal_chain_config(master_seed=1.5))
    # booleans are not numbers
    with pytest.raises(ConfigError, match="slip_prob"):
        parse_config(
            minimal_chain_config(
                environment={"type": "gridworld", "width": 2, "height": 2, "goals": [[0, 0, 1.0]], "slip_prob": True}
            )
        )
    with pytest.raises(ConfigError, match="diversity.kind"):
        parse_config(minimal_chain_config(diversity={"kind": "Magnetic"}))
    with pytest.raises(ConfigError, match="strategy.alpha"):
        parse_config(minimal_chain_config(strategy={"kind": "Smerl", "alpha": 2.0}))
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(minimal_chain_config(seeds=[]))
    with pytest.raises(ConfigError, match="goals"):
        parse_config(
            minimal_chain_config(environment={"type": "gridworld", "width": 2, "height": 2, "goals": []})
        )
    with pytest.raises(ConfigError, match=r"goals\[0\]"):
        parse_config(
            minimal_chain_config(environment={"type": "gridworld", "width": 2, "height": 2, "goals": [[0, 0]]})
        )


DROP = object()  # as an override: remove the key


def _grid(**keys) -> dict:
    return {"type": "gridworld", "width": 2, "height": 2, "goals": [[0, 0, 1.0]], **keys}


def _kshot(method=None, perturbation=None, **keys) -> dict:
    return {
        "methods": [{"name": "m", "strategy": {"kind": "NoDiversity"}, "set_size": 1, **(method or {})}],
        "perturbations": [{"kind": "ActionFailure", "magnitudes": [0.1], **(perturbation or {})}],
        **keys,
    }


def _periodic(**keys) -> dict:
    return _kshot(perturbation={"schedule": {"type": "Periodic", **keys}})


MESSAGES = [
    ({"trainer": DROP}, "config: missing required key(s) ['trainer']"),
    ({"trainer": {"outer_iterations": 2}}, "trainer: missing required key(s) ['mode']"),
    ({"environment": {"type": "chain", "length": 4, "speed": 2}}, "environment: unknown key(s) ['speed']"),
    (
        {"trainer": {"mode": "exact", "lagrange_lr": "fast"}},
        "trainer.lagrange_lr: expected a number, got 'fast'",
    ),
    ({"environment": _grid(slip_prob=True)}, "environment.slip_prob: expected a number, got True"),
    (
        {"trainer": {"mode": "exact", "outer_iterations": 0}},
        "trainer.outer_iterations: 0 is below the minimum 1",
    ),
    ({"master_seed": 1.5}, "config.master_seed: expected an integer, got 1.5"),
    (
        {"diversity": {"kind": "Magnetic"}},
        "diversity.kind: 'Magnetic' is not one of ['Generalized', 'Repulsive', 'VanDerWaals']",
    ),
    ({"environment": _grid(walls=[[0]])}, "environment.walls[0]: expected [row, col] integers, got [0]"),
    ({"environment": _grid(goals=[[0, 0]])}, "environment.goals[0]: expected [row, col, value], got [0, 0]"),
    (
        {"diversity": {"kind": "VanDerWaals", "contact_distance": 0}},
        "diversity: contact_distance must be positive, got 0.0",
    ),
    (
        {"kshot": _periodic(period=4, duration=5)},
        "kshot.perturbations[0].schedule: need 0 <= duration <= period, "
        "got Periodic(period=4, duration=5, start=0)",
    ),
    (
        {"environment": _grid(goals=[[0, 1, 1.0]], walls=[[0, 1]])},
        "environment: cannot build (goal cell (0, 1) is a wall or out of bounds)",
    ),
    # a field error inside a section is reported once, not prefixed with the section again
    ({"strategy": {"kind": "Smerl", "alpha": 1.5}}, "strategy.alpha: 1.5 is above the maximum 1.0"),
    (
        {"kshot": _kshot(method={"strategy": {"kind": "Smerl", "alpha": 1.5}})},
        "kshot.methods[0].strategy.alpha: 1.5 is above the maximum 1.0",
    ),
    (
        {"diversity": {"kind": "Repulsive", "contact_distance": "far"}},
        "diversity.contact_distance: expected a number, got 'far'",
    ),
    ({"kshot": _periodic(period=0)}, "kshot.perturbations[0].schedule.period: 0 is below the minimum 1"),
    # numbers must be finite; json reads NaN and Infinity
    (
        {"trainer": {"mode": "exact", "lagrange_lr": float("inf")}},
        "trainer.lagrange_lr: expected a finite number, got inf",
    ),
    (
        {"trainer": {"mode": "exact", "lagrange_lr": float("nan")}},
        "trainer.lagrange_lr: expected a finite number, got nan",
    ),
    ({"strategy": {"kind": "Smerl", "c_d": float("inf")}}, "strategy.c_d: expected a finite number, got inf"),
    # the bounds above match StrategyConfig's own checks, which only NaN got past
    ({"strategy": {"kind": "Smerl", "alpha": float("nan")}}, "strategy.alpha: expected a finite number, got nan"),
    ({"kshot": _kshot(ci_level=float("nan"))}, "kshot.ci_level: expected a finite number, got nan"),
    # the best-response solver takes no tolerance
    (
        {"trainer": {"mode": "exact", "best_response_tol": 1e-9}},
        "trainer: unknown key(s) ['best_response_tol']",
    ),
    # Always takes no timing keys, so a mistyped Periodic schedule does not run always-on
    (
        {"kshot": _kshot(perturbation={"schedule": {"type": "Always", "period": 3, "duration": 2}})},
        "kshot.perturbations[0].schedule: unknown key(s) ['duration', 'period']",
    ),
    ({"kshot": _kshot(perturbation={"schedule": 5})}, "kshot.perturbations[0].schedule: expected an object, got int"),
    ({"environment": [4]}, "environment: expected an object, got list"),
    # the sampled trainer's multiplier step is always Adam
    (
        {"trainer": {"mode": "sampled", "lagrange_optimizer": "sgd"}},
        "trainer: unknown key(s) ['lagrange_optimizer']",
    ),
    # each swept contact distance is checked against the config's diversity kind
    (
        {"diversity": {"kind": "VanDerWaals", "contact_distance": 4.0}, "sweep": {"contact_distance": [4.0, 0.0]}},
        "sweep.contact_distance[1]: contact_distance must be positive, got 0.0",
    ),
    # each magnitude is checked against its kind's range
    (
        {"kshot": _kshot(perturbation={"magnitudes": [0.1, 1.5]})},
        "kshot.perturbations[0].magnitudes[1]: ActionFailure magnitude must be in [0, 1], got 1.5",
    ),
    (
        {"environment": _grid(), "kshot": _kshot(perturbation={"kind": "RewardShift", "magnitudes": [-1]})},
        "kshot.perturbations[0].magnitudes[0]: RewardShift magnitude must be in [0, inf], got -1.0",
    ),
    (
        {"kshot": _kshot(perturbation={"kind": "SlipIncrease"})},
        "kshot.perturbations[0].kind: SlipIncrease needs a gridworld",
    ),
    # the baseline's kshot.csv rows carry the method name "baseline"
    (
        {"kshot": _kshot(method={"name": "baseline"})},
        "kshot.methods[0].name: 'baseline' names the baseline's rows",
    ),
]


@pytest.mark.parametrize("change, message", MESSAGES)
def test_config_error_messages(change, message):
    d = {k: v for k, v in minimal_chain_config(**change).items() if v is not DROP}
    with pytest.raises(ConfigError) as info:
        parse_config(d)
    assert str(info.value) == message


def test_grid_level_perturbations_need_a_gridworld():
    for kind in PerturbationKind:
        kshot = _kshot(perturbation={"kind": kind.value})
        parse_config(minimal_chain_config(environment=_grid(), kshot=kshot))
        if kind.needs_grid:
            with pytest.raises(ConfigError, match=f"{kind.value} needs a gridworld"):
                parse_config(minimal_chain_config(kshot=kshot))
        else:
            parse_config(minimal_chain_config(kshot=kshot))


def test_omitted_keys_take_the_dataclass_defaults():
    cfg = parse_config(minimal_chain_config())
    assert cfg.trainer.exact == ExactTrainConfig(outer_iterations=2)
    assert cfg.diversity == DiversityConfig(kind=DiversityKind.REPULSIVE)
    assert cfg.strategy == StrategyConfig(kind=StrategyKind.DOMINO_LAGRANGIAN)
    mdp, _ = cfg.environment.build()
    reference = build_chain(4)
    for name in ("transition", "reward", "features", "initial_dist"):
        assert np.array_equal(getattr(mdp, name), getattr(reference, name)), name
    assert mdp.discount == reference.discount

    cfg = parse_config(minimal_chain_config(trainer={"mode": "sampled"}, environment=_grid()))
    assert cfg.trainer.sampled == SampleTrainConfig()
    assert cfg.environment.build()[1] == GridSpec(width=2, height=2, goal_cells={(0, 0): 1.0})

    cfg = parse_config(minimal_chain_config(kshot=_periodic()))
    assert cfg.kshot == KShotSettings(
        methods=(KShotMethod("m", StrategyConfig(kind=StrategyKind.NO_DIVERSITY), 1),),
        perturbations=(PerturbationSettings(PerturbationKind.ACTION_FAILURE, (0.1,), Periodic()),),
    )
    assert cfg.kshot.protocol == KShotConfig()


def test_environment_state_count_is_bounded_before_anything_is_built(monkeypatch):
    def grid(width, height):
        return {"type": "gridworld", "width": width, "height": height, "goals": [[0, 0, 1.0]]}

    for environment in ({"type": "chain", "length": 512}, grid(32, 16)):
        mdp, _ = parse_config(minimal_chain_config(environment=environment)).environment.build()
        assert mdp.num_states == 512

    def no_build(self):
        raise AssertionError("built an environment past the bound")

    monkeypatch.setattr(divset.config.EnvironmentSettings, "build", no_build)
    for environment, message in [
        ({"type": "chain", "length": 513}, "environment.length: 513 is above the maximum 512"),
        (grid(23, 23), "environment: width * height = 529 cells is above the maximum 512"),
    ]:
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_chain_config(environment=environment))
        assert str(info.value) == message


# (path of the count, its maximum, the config change that sets it to v)
COUNT_BOUNDS = [
    ("config.set_size", 64, lambda v: {"set_size": v}),
    ("sweep.set_size[1]", 64, lambda v: {"sweep": {"set_size": [2, v]}}),
    ("kshot.methods[0].set_size", 64, lambda v: {"kshot": _kshot(method={"set_size": v})}),
    ("trainer.outer_iterations", 10_000, lambda v: {"trainer": {"mode": "exact", "outer_iterations": v}}),
    ("trainer.total_episodes", 1_000_000, lambda v: {"trainer": {"mode": "sampled", "total_episodes": v}}),
    ("trainer.episode_length", 10_000, lambda v: {"trainer": {"mode": "sampled", "episode_length": v}}),
    ("kshot.horizon", 10_000, lambda v: {"kshot": _kshot(horizon=v)}),
    ("kshot.k_select", 1_000, lambda v: {"kshot": _kshot(k_select=v)}),
    ("kshot.n_eval", 1_000, lambda v: {"kshot": _kshot(n_eval=v)}),
    ("kshot.bootstrap_resamples", 100_000, lambda v: {"kshot": _kshot(bootstrap_resamples=v)}),
    ("kshot.n_train_seeds", 100, lambda v: {"kshot": _kshot(n_train_seeds=v)}),
]


@pytest.mark.parametrize("path, maximum, change", COUNT_BOUNDS, ids=[b[0] for b in COUNT_BOUNDS])
def test_counts_that_drive_memory_or_time_are_bounded_in_the_parser(path, maximum, change, monkeypatch):
    def no_build(self):
        return None, None  # parsing alone: nothing is built, trained or rolled

    monkeypatch.setattr(divset.config.EnvironmentSettings, "build", no_build)
    parse_config(minimal_chain_config(**change(maximum)))
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_chain_config(**change(maximum + 1)))
    assert str(info.value) == f"{path}: {maximum + 1} is above the maximum {maximum}"


def test_unbuildable_environment_is_a_config_error():
    with pytest.raises(ConfigError, match="cannot build"):
        parse_config(
            minimal_chain_config(
                environment={
                    "type": "gridworld",
                    "width": 2,
                    "height": 2,
                    "goals": [[0, 1, 1.0]],
                    "walls": [[0, 1]],  # the goal sits on a wall
                }
            )
        )


def test_sweep_axes_parse_and_validate():
    cfg = parse_config(
        minimal_chain_config(sweep={"alpha": [0.5, 0.9], "set_size": [2, 4]})
    )
    assert cfg.sweep.alpha == (0.5, 0.9)
    assert cfg.sweep.set_size == (2, 4)
    assert cfg.sweep.c_e is None
    with pytest.raises(ConfigError, match=r"sweep.alpha\[1\]"):
        parse_config(minimal_chain_config(sweep={"alpha": [0.5, 1.5]}))
    with pytest.raises(ConfigError, match="sweep"):
        parse_config(minimal_chain_config(sweep={"gamma": [0.9]}))


def test_sampled_trainer_section():
    cfg = parse_config(
        minimal_chain_config(
            trainer={
                "mode": "sampled",
                "total_episodes": 50,
                "episode_length": 30,
                "n_step": 3,
                "value_decay": 0.8,
            }
        )
    )
    t = cfg.trainer.sampled
    assert (t.total_episodes, t.episode_length, t.n_step) == (50, 30, 3)
    assert t.moving_average.value_decay == 0.8


def test_kshot_section_parses():
    cfg = parse_config(
        minimal_chain_config(
            kshot={
                "methods": [
                    {"name": "m1", "strategy": {"kind": "DominoLagrangian", "alpha": 0.8}, "set_size": 3}
                ],
                "perturbations": [
                    {"kind": "ActionFailure", "magnitudes": [0.0, 0.5]},
                    {
                        "kind": "ActionRemap",
                        "magnitudes": [0.5],
                        "schedule": {"type": "Periodic", "period": 4, "duration": 2},
                    },
                ],
                "k_select": 3,
                "horizon": 50,
            }
        )
    )
    ks = cfg.kshot
    assert ks.methods[0].name == "m1"
    assert ks.methods[0].strategy.kind == StrategyKind.DOMINO_LAGRANGIAN
    assert ks.methods[0].strategy.alpha == 0.8
    assert ks.perturbations[0].kind == PerturbationKind.ACTION_FAILURE
    assert isinstance(ks.perturbations[0].schedule, Always)
    assert ks.perturbations[1].schedule == Periodic(period=4, duration=2)
    assert (ks.protocol.k_select, ks.protocol.horizon, ks.protocol.n_eval) == (3, 50, 40)
    with pytest.raises(ConfigError, match="unique"):
        parse_config(
            minimal_chain_config(
                kshot={
                    "methods": [
                        {"name": "m", "strategy": {"kind": "NoDiversity"}, "set_size": 1},
                        {"name": "m", "strategy": {"kind": "NoDiversity"}, "set_size": 2},
                    ],
                    "perturbations": [{"kind": "ActionFailure", "magnitudes": [0.1]}],
                }
            )
        )


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(lst)


def test_committed_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) >= 3
    for path in paths:
        load_config(path)


def test_master_seed_must_fit_the_seed_hash():
    # hash64 encodes each int in 16 signed bytes: a master seed outside that
    # range is a config error, not a crash of the first run that hashes it
    for seed in (-(2**127), -1, 2**127 - 1):
        assert parse_config(minimal_chain_config(master_seed=seed)).master_seed == seed
        hash64(seed, "kshot-eval", 0, 0)
    for path in sorted(CONFIG_DIR.glob("*.json")):
        for seed in (2**127, 2**130, -(2**127) - 1):
            d = dict(json.loads(path.read_text()), master_seed=seed)
            with pytest.raises(ConfigError, match=r"^config\.master_seed: -?\d+ is (above|below)"):
                parse_config(d)


def test_committed_four_rooms_config_matches_the_builder():
    # the JSON environment block must stay in lockstep with four_rooms_spec()
    spec = four_rooms_spec()
    reference = build_gridworld(spec)
    for name in ("four_rooms_qd.json", "four_rooms_kshot.json"):
        cfg = load_config(CONFIG_DIR / name)
        mdp, grid = cfg.environment.build()
        assert grid == spec, name
        assert np.array_equal(mdp.transition, reference.transition), name
        assert np.array_equal(mdp.reward, reference.reward), name
        assert np.array_equal(mdp.features, reference.features), name
        assert np.array_equal(mdp.initial_dist, reference.initial_dist), name


def test_committed_chain_config_matches_the_builder():
    cfg = load_config(CONFIG_DIR / "chain_vdw.json")
    mdp, grid = cfg.environment.build()
    assert grid is None
    reference = build_chain(9, FeatureKind.XY_COORDINATES, end_reward=1.0)
    assert np.array_equal(mdp.transition, reference.transition)
    assert np.array_equal(mdp.reward, reference.reward)
    assert np.array_equal(mdp.features, reference.features)
    assert cfg.diversity.kind == DiversityKind.VAN_DER_WAALS
    assert cfg.diversity.contact_distance == 4.0
    assert cfg.strategy.kind == StrategyKind.MULTI_OBJECTIVE
    assert cfg.strategy.c_e == 0.0


def test_config_round_trip_through_json_text(tmp_path):
    raw = minimal_chain_config(seeds=[3, 4], set_size=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg.seeds == (3, 4)
    assert cfg.set_size == 3
