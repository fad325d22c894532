"""Sweep enumeration, output files, and byte-level reproducibility."""

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
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


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the size of
    each mapped chunk, maps in process."""

    max_workers: list[int] = []
    chunks: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, config, chunks):
        chunks = list(chunks)
        self.chunks.extend(len(chunk) for chunk in chunks)
        return map(fn, config, chunks)


@pytest.mark.parametrize(
    ("trainer", "tasks"),
    [
        ({"mode": "exact", "outer_iterations": 1}, 4),
        ({"mode": "sampled", "total_episodes": 2, "episode_length": 5, "eval_every": 2}, 4),
    ],
)
def test_sweep_pool_has_no_more_processes_than_tasks(tmp_path, monkeypatch, trainer, tasks):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "max_workers", [])
    monkeypatch.setattr(_SerialPool, "chunks", [])
    monkeypatch.setenv("DIVSET_WORKERS", "5")
    # one cell of seven seeds on 5 workers: chunks of ceil(7 / 5) seeds, under
    # either trainer, so 4 tasks and a pool of 4
    seeds = list(range(7))
    run_experiment(parse_config(tiny_config(tmp_path, trainer=trainer, seeds=seeds, sweep={})))
    assert _SerialPool.chunks == [2, 2, 2, 1]
    assert _SerialPool.max_workers == [tasks]


_FOOTPRINT = """
import json, sys
import divset
watched = ("concurrent.futures.process", "multiprocessing", "numpy.ma")
after_import = [name for name in watched if name in sys.modules]
divset.run_kshot(divset.parse_config(json.loads(sys.argv[1])))
print(json.dumps([after_import, [name for name in watched if name in sys.modules]]))
"""


def test_import_and_kshot_load_neither_the_pool_nor_numpy_ma(tmp_path):
    # the pool's modules load only when a sweep starts a pool, and the
    # bootstrap takes its percentiles without np.percentile, which imports numpy.ma
    src = str(Path(divset.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfg = json.dumps(golden_kshot_config(tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, cfg], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


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
