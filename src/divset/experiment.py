"""Experiment orchestration: sweeps, output files, and few-shot evaluation.

A sweep is the cross product of the configured axes (alpha, set size,
contact distance, c_e, c_d) with the seed list, enumerated in that order
with seeds innermost. Run k trains with seed hash64(master_seed, k):
a run's seed depends only on its position in the enumeration, so
rerunning the same config reproduces every output byte for byte.

Outputs under output_dir:
    qd.csv                 one row per run (row order = run order)
    traces/run_XXXXX.csv   per-iteration, per-policy training trace
    checkpoints/run_XXXXX.json   final policy set
    kshot.csv              few-shot evaluation rows (per-seed + aggregate)

A cell is one (alpha, set size, contact distance, c_e, c_d) combination;
its runs differ only in seed and are consecutive. Under either trainer a
cell's runs train in lockstep, split into at most DIVSET_WORKERS chunks of
consecutive seeds, one lockstep training call and one pool task per chunk.
The worker count comes from the
DIVSET_WORKERS environment variable (default 1), and the pool never has
more processes than tasks. Results are assembled in run order regardless,
and lockstep training changes no set's arithmetic, so the output bytes do
not depend on the worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .config import BASELINE_METHOD, ConfigError, ExperimentConfig
from .diversity import DiversityConfig
from .envs import Always, Perturbation, UnreachableGoalError, perturb
from .kshot import KShotResult, kshot_evaluate, kshot_returns
from .mdp import TabularMdp
from .policy_set import PolicySet, policy_set_to_json
from .seeding import hash64
from .strategies import StrategyConfig, StrategyKind
from .training import TraceRecord, train_exact, train_sampled

__all__ = [
    "WORKERS_ENV",
    "QD_COLUMNS",
    "TRACE_COLUMNS",
    "KSHOT_COLUMNS",
    "RunSpec",
    "enumerate_runs",
    "run_cell",
    "run_experiment",
    "run_kshot",
]

WORKERS_ENV = "DIVSET_WORKERS"
PERTURB_ATTEMPTS = 8

QD_COLUMNS = [
    "strategy",
    "alpha",
    "n",
    "l0",
    "seed",
    "extrinsic_value_mean",
    "extrinsic_value_per_policy",
    "diversity_score",
]
TRACE_COLUMNS = [
    "iteration",
    "policy",
    "extrinsic_value",
    "sigma_mu",
    "diversity_mean",
    "diversity_mean_exact",
    "objective_value",
]
KSHOT_COLUMNS = [
    "method",
    "strategy_params",
    "perturbation",
    "magnitude",
    "seed",
    "ratio",
    "abs_return",
    "baseline_return",
    "ci_low",
    "ci_high",
]


@dataclass(frozen=True)
class RunSpec:
    run_index: int
    alpha: float
    set_size: int
    contact_distance: float
    c_e: float
    c_d: float
    seed_label: int
    train_seed: int


def _axis(values, default) -> tuple:
    return tuple(values) if values is not None else (default,)


def enumerate_runs(config: ExperimentConfig) -> list[RunSpec]:
    axes = (
        _axis(config.sweep.alpha, config.strategy.alpha),
        _axis(config.sweep.set_size, config.set_size),
        _axis(config.sweep.contact_distance, config.diversity.contact_distance),
        _axis(config.sweep.c_e, config.strategy.c_e),
        _axis(config.sweep.c_d, config.strategy.c_d),
        config.seeds,
    )
    return [
        RunSpec(
            run_index=k,
            alpha=alpha,
            set_size=n,
            contact_distance=l0,
            c_e=c_e,
            c_d=c_d,
            seed_label=seed_label,
            train_seed=hash64(config.master_seed, k),
        )
        for k, (alpha, n, l0, c_e, c_d, seed_label) in enumerate(itertools.product(*axes))
    ]


def strategy_descriptor(cfg: StrategyConfig) -> str:
    if cfg.kind in (StrategyKind.SMERL, StrategyKind.REVERSE_SMERL):
        return f"{cfg.kind.value}(c_d={cfg.c_d!r})"
    if cfg.kind == StrategyKind.MULTI_OBJECTIVE:
        return f"{cfg.kind.value}(c_e={cfg.c_e!r})"
    return cfg.kind.value


def _train(
    config: ExperimentConfig,
    mdp: TabularMdp,
    n: int,
    diversity: DiversityConfig,
    strategy: StrategyConfig,
    seeds: Sequence[int],
) -> list[tuple[PolicySet, list[TraceRecord]]]:
    """Train one set per seed with the configured trainer, in one lockstep
    call: train_exact or train_sampled."""
    if config.trainer.mode == "exact":
        return train_exact(mdp, n, diversity, strategy, config.trainer.exact, seeds)
    return train_sampled(mdp, n, diversity, strategy, config.trainer.sampled, seeds)


def _cell(spec: RunSpec) -> tuple:
    return (spec.alpha, spec.set_size, spec.contact_distance, spec.c_e, spec.c_d)


def run_cell(
    config: ExperimentConfig, specs: Sequence[RunSpec]
) -> list[tuple[list[str], list[list[str]], str]]:
    """Sweep runs of one cell, trained in lockstep: returns one (qd row,
    trace rows, checkpoint JSON) per spec, in order."""
    spec0 = specs[0]
    if any(_cell(spec) != _cell(spec0) for spec in specs):
        raise ValueError("run_cell needs runs of one (alpha, n, l0, c_e, c_d) cell")
    mdp, _ = config.environment.build()
    dcfg = dataclasses.replace(config.diversity, contact_distance=spec0.contact_distance)
    scfg = dataclasses.replace(
        config.strategy, alpha=spec0.alpha, c_e=spec0.c_e, c_d=spec0.c_d
    )
    trained = _train(config, mdp, spec0.set_size, dcfg, scfg, [s.train_seed for s in specs])
    results = []
    for spec, (pset, trace) in zip(specs, trained):
        final = trace[-1]
        qd_row = [
            strategy_descriptor(scfg),
            repr(float(spec.alpha)),
            str(spec.set_size),
            repr(float(spec.contact_distance)),
            str(spec.seed_label),
            repr(float(final.extrinsic_values.mean())),
            json.dumps([float(v) for v in final.extrinsic_values]),
            repr(float(final.diversity_mean)),
        ]
        trace_rows = [
            [
                str(rec.iteration),
                str(i),
                repr(float(rec.extrinsic_values[i])),
                repr(float(rec.sigma_mu[i])),
                repr(float(rec.diversity_mean)),
                repr(float(rec.diversity_mean_exact)),
                repr(float(rec.objective_value)),
            ]
            for rec in trace
            for i in range(spec.set_size)
        ]
        results.append((qd_row, trace_rows, policy_set_to_json(pset)))
    return results


def _chunks(specs: list[RunSpec], workers: int) -> list[list[RunSpec]]:
    """Each cell split into at most `workers` consecutive chunks of
    ceil(seeds / workers) runs."""
    chunks = []
    for _, group in itertools.groupby(specs, key=_cell):
        cell = list(group)
        size = -(-len(cell) // workers)
        chunks += [cell[i : i + size] for i in range(0, len(cell), size)]
    return chunks


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the full sweep and write qd.csv, traces, and checkpoints."""
    out = Path(config.output_dir)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    specs = enumerate_runs(config)
    workers = _worker_count()
    chunks = _chunks(specs, workers)
    if workers > 1 and len(chunks) > 1:
        # imported here, so that serial runs and kshot never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its processes at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(run_cell, itertools.repeat(config), chunks))
    else:
        results = [run_cell(config, chunk) for chunk in chunks]

    qd_rows = []
    for spec, (qd_row, trace_rows, ckpt) in zip(specs, itertools.chain(*results)):
        qd_rows.append(qd_row)
        name = f"run_{spec.run_index:05d}"
        _write_csv(out / "traces" / f"{name}.csv", TRACE_COLUMNS, trace_rows)
        (out / "checkpoints" / f"{name}.json").write_text(ckpt)
    qd_path = out / "qd.csv"
    _write_csv(qd_path, QD_COLUMNS, qd_rows)
    return qd_path


def _perturbation_descriptor(p: Perturbation) -> str:
    if isinstance(p.schedule, Always):
        return p.kind.value
    s = p.schedule
    return f"{p.kind.value}@Periodic(period={s.period},duration={s.duration},start={s.start})"


def _perturb_with_retries(mdp, p: Perturbation, master_seed: int, tag: tuple, grid_spec):
    last_err = None
    for attempt in range(PERTURB_ATTEMPTS):
        try:
            return perturb(mdp, p, hash64(master_seed, "perturb", *tag, attempt), grid_spec=grid_spec)
        except UnreachableGoalError as exc:
            last_err = exc
    raise RuntimeError(
        f"{_perturbation_descriptor(p)} magnitude {p.magnitude} left no reachable "
        f"reward in {PERTURB_ATTEMPTS} attempts: {last_err}"
    )


def _kshot_rows(
    method: str, params: str, p: Perturbation, result: KShotResult
) -> list[list[str]]:
    rows = []
    desc = _perturbation_descriptor(p)
    mag = repr(float(p.magnitude))
    for t in range(len(result.per_seed_ratios)):
        rows.append(
            [
                method,
                params,
                desc,
                mag,
                str(t),
                repr(float(result.per_seed_ratios[t])),
                repr(float(result.per_seed_returns[t].mean())),
                repr(float(result.per_seed_baseline_returns[t].mean())),
                "",
                "",
            ]
        )
    rows.append(
        [
            method,
            params,
            desc,
            mag,
            "all",
            repr(float(result.ratio_mean)),
            repr(float(result.abs_return_mean)),
            repr(float(result.baseline_return_mean)),
            repr(float(result.ci_low)),
            repr(float(result.ci_high)),
        ]
    )
    return rows


def run_kshot(config: ExperimentConfig) -> Path:
    """Train per-method and baseline sets, evaluate under perturbations.

    Each method's sets, and the baseline's, are trained in lockstep with
    one _train call over the training seeds.
    Evaluation episode streams are derived without the method name, so
    every method (and the baseline against itself) sees identical
    environment randomness for a given perturbation. Each set is rolled
    once per perturbed MDP; the baseline's returns are shared by its own
    row and by every method row.
    """
    if config.kshot is None:
        raise ConfigError("config has no kshot section")
    ks = config.kshot
    mdp, grid_spec = config.environment.build()

    def train_sets(strategy: StrategyConfig, set_size: int, *label: str) -> list[PolicySet]:
        seeds = [
            hash64(config.master_seed, "kshot-train", *label, t) for t in range(ks.n_train_seeds)
        ]
        trained = _train(config, mdp, set_size, config.diversity, strategy, seeds)
        return [pset for pset, _ in trained]

    baseline_strategy = StrategyConfig(kind=StrategyKind.NO_DIVERSITY)
    baselines = train_sets(baseline_strategy, 1, "baseline")
    sets_by_method = {
        m.name: train_sets(m.strategy, m.set_size, "method", m.name) for m in ks.methods
    }

    rows: list[list[str]] = []
    for p_idx, ps in enumerate(ks.perturbations):
        for m_idx, magnitude in enumerate(ps.magnitudes):
            p = Perturbation(kind=ps.kind, magnitude=magnitude, schedule=ps.schedule)
            pmdp = _perturb_with_retries(
                mdp, p, config.master_seed, (p_idx, m_idx), grid_spec
            )
            eval_seed = hash64(config.master_seed, "kshot-eval", p_idx, m_idx)
            base_selected, base_returns = kshot_returns(baselines, pmdp, ks.protocol, eval_seed)
            rows.extend(
                _kshot_rows(
                    BASELINE_METHOD,
                    strategy_descriptor(baseline_strategy),
                    p,
                    kshot_evaluate(base_returns, base_returns, base_selected, ks.protocol, eval_seed),
                )
            )
            for m in ks.methods:
                params = (
                    f"{strategy_descriptor(m.strategy)},"
                    f"alpha={m.strategy.alpha!r},n={m.set_size}"
                )
                selected, returns = kshot_returns(sets_by_method[m.name], pmdp, ks.protocol, eval_seed)
                result = kshot_evaluate(returns, base_returns, selected, ks.protocol, eval_seed)
                rows.extend(_kshot_rows(m.name, params, p, result))

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    kshot_path = out / "kshot.csv"
    _write_csv(kshot_path, KSHOT_COLUMNS, rows)
    return kshot_path
