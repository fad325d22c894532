"""Sweep enumeration, output files, and byte-level reproducibility."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import divset.experiment
from divset import (
    ConfigError,
    GridSpec,
    Perturbation,
    PerturbationKind,
    StrategyConfig,
    StrategyKind,
    build_gridworld,
    enumerate_runs,
    hash64,
    parse_config,
    policy_set_from_json,
    run_cell,
    run_experiment,
)
from divset.experiment import (
    QD_COLUMNS,
    TRACE_COLUMNS,
    _perturb_with_retries,
    _worker_count,
    strategy_descriptor,
)

from helpers import golden_kshot_config


def tiny_config(tmp_path: Path, **overrides) -> dict:
    d = {
        "master_seed": 77,
        "output_dir": str(tmp_path / "out"),
        "seeds": [0, 1],
        "set_size": 2,
        "environment": {"type": "chain", "length": 4, "end_reward": 1.0},
        "diversity": {"kind": "Repulsive", "contact_distance": 1.0},
        "strategy": {"kind": "DominoLagrangian", "alpha": 0.8},
        "trainer": {"mode": "exact", "outer_iterations": 3},
        "sweep": {"alpha": [0.5, 0.9]},
    }
    d.update(overrides)
    return d


def test_enumerate_runs_product_order_and_seeding(tmp_path):
    cfg = parse_config(
        tiny_config(tmp_path, sweep={"alpha": [0.5, 0.9], "set_size": [2, 3]})
    )
    specs = enumerate_runs(cfg)
    assert len(specs) == 2 * 2 * 2
    assert [s.run_index for s in specs] == list(range(8))
    # seeds vary fastest, then set_size, then alpha
    assert [s.seed_label for s in specs] == [0, 1] * 4
    assert [s.set_size for s in specs] == [2, 2, 3, 3, 2, 2, 3, 3]
    assert [s.alpha for s in specs] == [0.5] * 4 + [0.9] * 4
    for k, s in enumerate(specs):
        assert s.train_seed == hash64(cfg.master_seed, k)
    # unswept axes fall back to the base strategy/diversity values
    assert specs[0].contact_distance == 1.0
    assert specs[0].c_e == cfg.strategy.c_e
    assert specs[0].c_d == cfg.strategy.c_d


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_run_cell_rows_parse_back(tmp_path, monkeypatch):
    cfg = parse_config(tiny_config(tmp_path))
    specs = enumerate_runs(cfg)[2:4]  # both seeds of alpha 0.9
    train, traces = divset.experiment._train, []

    def recording_train(*args):
        trained = train(*args)
        traces.extend(trace for _, trace in trained)
        return trained

    monkeypatch.setattr(divset.experiment, "_train", recording_train)
    results = run_cell(cfg, specs)
    assert len(results) == len(specs) == len(traces)
    for spec, (qd_row, trace_rows, ckpt), trace in zip(specs, results, traces):
        # every real-valued cell gives back the bits of the record it came from
        final = trace[-1]
        assert _bits([qd_row[5], *json.loads(qd_row[6]), qd_row[7]]) == _bits(
            [final.extrinsic_values.mean(), *final.extrinsic_values, final.diversity_mean]
        )
        assert [r[:2] for r in trace_rows] == [
            [str(rec.iteration), str(i)] for rec in trace for i in range(spec.set_size)
        ]
        assert [_bits(r[2:]) for r in trace_rows] == [
            _bits(
                [
                    rec.extrinsic_values[i],
                    rec.sigma_mu[i],
                    rec.diversity_mean,
                    rec.diversity_mean_exact,
                    rec.objective_value,
                ]
            )
            for rec in trace
            for i in range(spec.set_size)
        ]
        assert len(qd_row) == len(QD_COLUMNS)
        assert qd_row[0] == "DominoLagrangian"
        assert float(qd_row[1]) == spec.alpha
        assert int(qd_row[2]) == spec.set_size
        assert int(qd_row[4]) == spec.seed_label
        per_policy = json.loads(qd_row[6])
        assert len(per_policy) == spec.set_size
        assert abs(sum(per_policy) / len(per_policy) - float(qd_row[5])) < 1e-12
        # one trace row per (iteration, policy) pair, final evaluation included
        assert len(trace_rows) == (3 + 1) * spec.set_size
        assert all(len(r) == len(TRACE_COLUMNS) for r in trace_rows)
        assert [int(r[1]) for r in trace_rows[:2]] == [0, 1]
        pset = policy_set_from_json(ckpt)
        assert pset.n == spec.set_size
    # a lockstep cell gives each run the outputs it gets alone
    assert run_cell(cfg, specs[1:]) == results[1:]
    with pytest.raises(ValueError, match="cell"):
        run_cell(cfg, enumerate_runs(cfg)[1:3])


def test_run_experiment_writes_all_outputs(tmp_path):
    cfg = parse_config(tiny_config(tmp_path))
    qd_path = run_experiment(cfg)
    out = Path(cfg.output_dir)
    assert qd_path == out / "qd.csv"
    lines = qd_path.read_text().splitlines()
    assert lines[0] == ",".join(QD_COLUMNS)
    assert len(lines) == 1 + 4
    for k in range(4):
        trace = out / "traces" / f"run_{k:05d}.csv"
        assert trace.read_text().splitlines()[0] == ",".join(TRACE_COLUMNS)
        ckpt = out / "checkpoints" / f"run_{k:05d}.json"
        policy_set_from_json(ckpt.read_text())


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(tiny_config(tmp_path))
    run_experiment(cfg)
    again = dataclasses.replace(cfg, output_dir=str(tmp_path / "again"))
    run_experiment(again)
    a = _tree_bytes(Path(cfg.output_dir))
    b = _tree_bytes(Path(again.output_dir))
    assert a == b


def test_parallel_workers_match_serial_bytes(tmp_path, monkeypatch):
    cfg = parse_config(tiny_config(tmp_path))
    monkeypatch.delenv("DIVSET_WORKERS", raising=False)
    run_experiment(cfg)
    monkeypatch.setenv("DIVSET_WORKERS", "2")
    par = dataclasses.replace(cfg, output_dir=str(tmp_path / "par"))
    run_experiment(par)
    assert _tree_bytes(Path(cfg.output_dir)) == _tree_bytes(Path(par.output_dir))
    # one cell of 5 seeds on 3 workers trains in chunks of 2, 2 and 1 seeds,
    # under either trainer
    sampled = {"mode": "sampled", "total_episodes": 30, "episode_length": 12, "eval_every": 10}
    for name, trainer in (("exact", None), ("sampled", sampled)):
        five = tiny_config(tmp_path / name, seeds=[0, 1, 2, 3, 4], sweep={})
        five = parse_config(five if trainer is None else dict(five, trainer=trainer))
        monkeypatch.delenv("DIVSET_WORKERS", raising=False)
        run_experiment(five)
        monkeypatch.setenv("DIVSET_WORKERS", "3")
        par = dataclasses.replace(five, output_dir=str(tmp_path / name / "par3"))
        run_experiment(par)
        assert _tree_bytes(Path(five.output_dir)) == _tree_bytes(Path(par.output_dir))


@pytest.mark.parametrize(
    ("trainer", "children"),
    [
        ({"mode": "exact", "outer_iterations": 1}, 4),
        ({"mode": "sampled", "total_episodes": 2, "episode_length": 5, "eval_every": 2}, 4),
    ],
)
def test_sweep_forks_no_more_children_than_chunks(tmp_path, monkeypatch, trainer, children):
    calls = tmp_path / "calls"
    calls.mkdir()
    forked = []

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def recording_run_cell(config, specs):
        # each call leaves a file named by the process that made it
        (calls / f"{os.getpid()}-{specs[0].run_index}").write_text(str(len(specs)))
        return run_cell(config, specs)

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(divset.experiment, "run_cell", recording_run_cell)
    monkeypatch.setenv("DIVSET_WORKERS", "5")
    # one cell of seven seeds on 5 workers: chunks of ceil(7 / 5) seeds, under
    # either trainer, so 4 chunks on 4 children
    cfg = parse_config(tiny_config(tmp_path, trainer=trainer, seeds=list(range(7)), sweep={}))
    run_experiment(cfg)
    made = sorted(path.name.split("-") for path in calls.iterdir())
    assert len(forked) == children
    # a child that comes free first may take a second chunk
    assert {int(pid) for pid, _ in made} <= set(forked)
    assert sorted(int(run) for _, run in made) == [0, 2, 4, 6]
    by_run = {int(run): int((calls / f"{pid}-{run}").read_text()) for pid, run in made}
    assert [by_run[run] for run in sorted(by_run)] == [2, 2, 2, 1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_free_child_takes_the_next_chunk(tmp_path, monkeypatch):
    calls = tmp_path / "calls"
    calls.mkdir()

    def holding_run_cell(config, specs):
        run = specs[0].run_index
        if run == 0:
            # hold the first chunk until the last one has started
            deadline = time.monotonic() + 60.0
            while not (calls / "3").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        (calls / str(run)).write_text(str(os.getpid()))
        return run_cell(config, specs)

    monkeypatch.setattr(divset.experiment, "run_cell", holding_run_cell)
    monkeypatch.setenv("DIVSET_WORKERS", "2")
    # two alpha cells of seeds 0 and 1: four one-run chunks on two children
    run_experiment(parse_config(tiny_config(tmp_path)))
    pids = [(calls / str(run)).read_text() for run in range(4)]
    # the child that is not held runs every other chunk, in run order
    assert pids[1] == pids[2] == pids[3] != pids[0]


def test_sweep_off_linux_runs_on_a_pool_with_the_serial_bytes(tmp_path, monkeypatch):
    cfg = parse_config(tiny_config(tmp_path))
    monkeypatch.delenv("DIVSET_WORKERS", raising=False)
    run_experiment(cfg)
    monkeypatch.setattr(divset.experiment, "_FORK", False)
    monkeypatch.setattr(divset.experiment, "_fan_out", None)  # so only the pool can run it
    monkeypatch.setenv("DIVSET_WORKERS", "2")
    pool = dataclasses.replace(cfg, output_dir=str(tmp_path / "pool"))
    run_experiment(pool)
    assert _tree_bytes(Path(cfg.output_dir)) == _tree_bytes(Path(pool.output_dir))


def _raise_in_one_child(config, specs):
    if specs[0].seed_label == 1:
        raise ValueError(f"no training for run {specs[0].run_index}")
    return run_cell(config, specs)


def _exit_in_one_child(config, specs):
    if specs[0].seed_label == 1:
        os._exit(7)
    return run_cell(config, specs)


def test_sweep_child_errors_reach_the_parent(tmp_path, monkeypatch):
    monkeypatch.setenv("DIVSET_WORKERS", "2")
    # one alpha cell of seeds 0 and 1, so two chunks and two children
    cfg = parse_config(tiny_config(tmp_path, sweep={}))
    monkeypatch.setattr(divset.experiment, "run_cell", _raise_in_one_child)
    with pytest.raises(ValueError, match=r"^no training for run 1$") as raised:
        run_experiment(cfg)
    assert "sweep worker" in str(raised.value.__cause__)
    assert "_raise_in_one_child" in str(raised.value.__cause__)
    monkeypatch.setattr(divset.experiment, "run_cell", _exit_in_one_child)
    with pytest.raises(RuntimeError, match=r"exited with status 7 before reporting"):
        run_experiment(cfg)
    # every child was reaped: this process has none left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_FOOTPRINT = """
import json, os, sys
import divset
watched = ("concurrent.futures.process", "multiprocessing", "numpy.ma")
loaded = [[name for name in watched if name in sys.modules]]
divset.run_kshot(divset.parse_config(json.loads(sys.argv[1])))
loaded.append([name for name in watched if name in sys.modules])
os.environ["DIVSET_WORKERS"] = "2"
divset.run_experiment(divset.parse_config(json.loads(sys.argv[2])))
loaded.append([name for name in watched if name in sys.modules])
print(json.dumps(loaded))
"""


def test_import_and_kshot_load_neither_the_pool_nor_numpy_ma(tmp_path):
    # a parallel sweep forks its children itself, without concurrent.futures
    # or multiprocessing, and the bootstrap takes its percentiles without
    # np.percentile, which imports numpy.ma
    src = str(Path(divset.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    kshot = json.dumps(golden_kshot_config(tmp_path / "out"))
    sweep = json.dumps(tiny_config(tmp_path / "sweep"))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, kshot, sweep], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], []]
    assert (tmp_path / "sweep" / "out" / "qd.csv").is_file()


def test_worker_count_parsing(monkeypatch):
    monkeypatch.delenv("DIVSET_WORKERS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv("DIVSET_WORKERS", "3")
    assert _worker_count() == 3
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv("DIVSET_WORKERS", raw)
        with pytest.raises(ConfigError, match="DIVSET_WORKERS must be a positive integer"):
            _worker_count()


def test_strategy_descriptor_formats():
    assert strategy_descriptor(StrategyConfig(kind=StrategyKind.DOMINO_LAGRANGIAN)) == "DominoLagrangian"
    assert (
        strategy_descriptor(StrategyConfig(kind=StrategyKind.SMERL, c_d=0.25))
        == "Smerl(c_d=0.25)"
    )
    assert (
        strategy_descriptor(StrategyConfig(kind=StrategyKind.REVERSE_SMERL, c_d=0.5))
        == "ReverseSmerl(c_d=0.5)"
    )
    assert (
        strategy_descriptor(StrategyConfig(kind=StrategyKind.MULTI_OBJECTIVE, c_e=0.1))
        == "MultiObjective(c_e=0.1)"
    )
    assert strategy_descriptor(StrategyConfig(kind=StrategyKind.NO_DIVERSITY)) == "NoDiversity"


def test_perturbation_retries_give_up_after_the_last_attempt():
    # a 3x1 corridor: every attempt blocks the only free cell, between the
    # start and the goal, so no seed leaves the goal reachable
    spec = GridSpec(width=3, height=1, goal_cells={(0, 2): 1.0}, start=(0, 0))
    block_all = Perturbation(kind=PerturbationKind.BLOCK_CELLS, magnitude=1.0)
    with pytest.raises(RuntimeError, match="in 8 attempts"):
        _perturb_with_retries(build_gridworld(spec), block_all, 5, (0, 0), spec)
