"""divset benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each measured repeat runs in a fresh
interpreter (bench/child.py) with BLAS pinned to one thread. With --trace 0
repeats use DIVSET_WORKERS=min(2, nproc) and the run reports the end-to-end
metrics; with --trace 1 it alternates a traced serial repeat with an
untraced serial one and reports the per-layer metrics and the tracing
overhead. Every run also checks outputs (see README.md). The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
GOLDEN_CONFIG = "configs/chain_vdw.json"
GOLDEN_OUTPUT = "results/chain_vdw"
MIN_REPEATS = 3  # per run, at least; traced runs: traced, serial, traced
SETUP_SAMPLES = 7  # setup_s is the median of at least this many fresh starts
DEADLINE_S = 170.0  # a run ends within this, whatever --seconds says
# deterministic per-repeat values that must repeat exactly
REPEAT_KEYS = ("output_sha256", "output_bytes", "rows", "failed_ops")
COUNT_SUFFIXES = (".calls", ".steps", ".bytes", ".transition_bytes")


class Runner:
    """Starts child processes in their own session and always reaps them."""

    def __init__(self, env: dict, deadline: float, log: Path) -> None:
        self.env, self.deadline, self.log = env, deadline, log

    def __call__(self, cmd: list[str], workers: int, cwd: Path = ROOT) -> bool:
        env = dict(self.env, DIVSET_WORKERS=str(workers))
        with self.log.open("a") as log:
            log.write(f"$ {' '.join(cmd)}\n")
            log.flush()
            proc = subprocess.Popen(
                cmd, cwd=cwd, env=env, stdout=log, stderr=log, start_new_session=True
            )
            try:
                return proc.wait(timeout=max(1.0, self.deadline - time.monotonic())) == 0
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                log.write("killed at the run deadline\n")
                return False


def machine_info(seed: int, workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                revision = ref_file.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "workers": workers,
        "revision": revision,
        "seed": seed,
    }


def golden_check(run: Runner, work: Path, workers: int) -> tuple[int, int, str]:
    """`divset run configs/chain_vdw.json` in an empty directory must
    reproduce the committed results/chain_vdw byte for byte."""
    cwd = work / "golden"
    cwd.mkdir()
    ok = run([sys.executable, "-m", "divset.cli", "run", str(ROOT / GOLDEN_CONFIG)], workers, cwd)
    expected, got = ROOT / GOLDEN_OUTPUT, cwd / GOLDEN_OUTPUT
    runs = len((expected / "qd.csv").read_text().splitlines()) - 1

    def tree(base: Path) -> dict:
        if not base.is_dir():
            return {}
        return {p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()}

    if not ok:
        return runs, runs, "FAIL (divset run failed)"
    want, have = tree(expected), tree(got)
    differing = sorted(str(p) for p in want.keys() | have.keys() if want.get(p) != have.get(p))
    if differing:
        return runs, runs, f"FAIL ({len(differing)} files differ, first {differing[0]})"
    return runs, 0, f"PASS ({len(want)} files byte-identical)"


def child_cmd(workload: str, work: Path, tag: str, trace: bool, setup_only: bool) -> list[str]:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        str(work / "config.json"),
        str(work / f"{tag}.json"),
        "--t0",
        repr(time.monotonic()),
    ]
    if trace:
        cmd += ["--trace", str(work / f"{tag}.spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def repeat(run: Runner, workload: str, work: Path, tag: str, workers: int, trace=False, setup_only=False):
    """One fresh-process repeat; its result dict, or None if it failed."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    result_path = work / f"{tag}.json"
    if not run(child_cmd(workload, work, tag, trace, setup_only), workers):
        return None
    result = json.loads(result_path.read_text())
    if not Path(result["divset_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"measured divset from {result['divset_file']}, not this checkout")
    return result


def counters(result: dict) -> dict:
    """The deterministic part of a repeat's result."""
    keys = {k: result[k] for k in REPEAT_KEYS}
    layers = result.get("layers", {})
    keys.update({k: v for k, v in layers.items() if k.endswith(COUNT_SUFFIXES)})
    return keys


def median(values) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> int:
    """One benchmark run; prints the report and, last, the JSON result line."""
    start = time.monotonic()
    work = WORK_DIR / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workloads.make_config(workload, seed, ROOT, work / "out")
    (work / "config.json").write_text(json.dumps(cfg, indent=2))
    work_counts = workloads.nominal_work(workload, cfg)
    ops = workloads.operations(workload, cfg)

    workers = 1 if trace else min(2, os.cpu_count() or 1)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    run = Runner(env, start + DEADLINE_S, work / "children.log")
    info = machine_info(seed, workers)
    print(f"divset benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("work per repeat: " + " ".join(f"{k}={v}" for k, v in work_counts.items()))

    checks: list[tuple[str, str]] = []
    attempted, failed, verdict = golden_check(run, work, workers)
    checks.append(("divset run configs/chain_vdw.json reproduces results/chain_vdw", verdict))

    # measured repeats: (kind, result) with kind "e2e", "traced" or "serial"
    reps: list[tuple[str, dict | None]] = []
    plan = ["traced", "serial"] if trace else ["e2e"]
    t_measure = time.monotonic()
    last = 0.0
    while len(reps) < MIN_REPEATS or time.monotonic() - t_measure < seconds:
        if reps and time.monotonic() + 1.5 * last > start + DEADLINE_S:
            break
        kind = plan[len(reps) % len(plan)]
        t = time.monotonic()
        res = repeat(run, workload, work, f"rep{len(reps)}", workers, trace=kind == "traced")
        last = time.monotonic() - t
        reps.append((kind, res))
        status = "FAILED" if res is None else (
            f"setup_s={res['setup_s']:.4f} wall_s={res['wall_s']:.4f} "
            f"peak_rss_mb={res['peak_rss_mb']:.1f}"
        )
        print(f"repeat {len(reps)} ({kind}): {status}")

    setups = [r["setup_s"] for _, r in reps if r is not None]
    while not trace and len(setups) < SETUP_SAMPLES and time.monotonic() < start + DEADLINE_S - 10:
        res = repeat(run, workload, work, f"setup{len(setups)}", workers, setup_only=True)
        if res is None:
            break
        setups.append(res["setup_s"])

    good = [(k, r) for k, r in reps if r is not None]
    if not good or (trace and not {"traced", "serial"} <= {k for k, _ in good}):
        print(f"error: measured repeats failed; see {work / 'children.log'}", file=sys.stderr)
        return 1
    first = good[0][1]
    reference = {kind: counters(res) for kind, res in reversed(good)}
    mismatched = 0
    for kind, res in reps:
        attempted += ops
        if res is None:
            failed += ops
        elif counters(res) != reference[kind] or res["output_sha256"] != first["output_sha256"]:
            mismatched += 1
            failed += ops
        else:
            failed += res["failed_ops"]
    checks.append((
        "output hashes and work counters identical across repeats",
        "PASS" if mismatched == 0 else f"FAIL ({mismatched} repeats differ from the first)",
    ))
    n_fail = sum(r["failed_ops"] for _, r in good)
    if workload == "exact_sweep":
        checks.append((
            "no member below alpha*anchor - 2%*|anchor| (criterion 4's rule)",
            "PASS" if n_fail == 0 else f"FAIL ({n_fail} runs violate it)",
        ))
    if workload == "kshot_eval":
        checks.append((
            "baseline scored against itself gives ratio exactly 1.0",
            "PASS" if n_fail == 0 else f"FAIL ({n_fail} cells differ)",
        ))
    print("checks:")
    for name, verdict in checks:
        print(f"  {verdict.split()[0]:4s} {name}: {verdict}")

    if trace:
        metrics = trace_metrics(good, work_counts)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print_traced(metrics, units, sum(k == "traced" for k, _ in good))
    else:
        e2e = [r for _, r in good]
        metrics = e2e_metrics(workload, e2e, setups, work_counts, failed / attempted)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print_e2e(workload, metrics, len(e2e), len(setups))

    for scratch in ("out", "golden"):
        shutil.rmtree(work / scratch, ignore_errors=True)
    record = {"info": info, "work": work_counts, "checks": checks, "repeats": reps,
              "setup_samples": setups, "metrics": metrics}
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all: every workload, end-to-end then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = ["BENCHMARK.json", "src/divset/__init__.py", GOLDEN_CONFIG, f"{GOLDEN_OUTPUT}/qd.csv"]
    needed += sorted(set(workloads.SOURCES.values()))
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a divset source checkout, missing {missing}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must be in [0, 2**63)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload != "all":
        return measure(args.workload, args.seed, seconds, args.trace, spec)
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            status = max(status, measure(workload, args.seed, seconds, trace, spec))
            print()
    return status


def e2e_metrics(workload: str, e2e: list, setups: list, work_counts: dict, failed_frac: float) -> dict:
    """wall_s and work_per_s come from the run's total measured time: repeat
    times are bimodal on a shared machine and a median flips between the
    modes. The other timings are medians; the guards are deterministic."""
    unit_of_work = work_counts["member_iters" if workload == "exact_sweep" else "episodes"]
    total_wall = sum(r["wall_s"] for r in e2e)
    metrics = {
        "setup_s": median(setups),
        "wall_s": total_wall / len(e2e),
        "work_per_s": unit_of_work * len(e2e) / total_wall,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in e2e),
        "failed_frac": failed_frac,
    }
    for guard in ("constraint_margin_min", "diversity_mean", "kshot_ratio_mean"):
        if guard in e2e[0]:
            metrics[guard] = e2e[0][guard]
    return metrics

def trace_metrics(good: list, work_counts: dict) -> dict:
    traced = [r for k, r in good if k == "traced"]
    serial = [r for k, r in good if k == "serial"]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        metrics[name] = values[0] if name.endswith(COUNT_SUFFIXES) else median(values)
    for key, value in work_counts.items():
        metrics[f"work.{key}"] = value
    traced_wall = median(r["wall_s"] for r in traced)
    serial_wall = median(r["wall_s"] for r in serial)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.serial_wall_s"] = serial_wall
    metrics["trace.overhead_frac"] = traced_wall / serial_wall - 1.0
    return metrics


def print_e2e(workload: str, metrics: dict, n_rep: int, n_setup: int) -> None:
    """All nine end-to-end metrics by name; n/a where a workload has none."""
    per_s = "member_iters_per_s" if workload == "exact_sweep" else "episodes_per_s"
    rows = [
        ("setup_s", "setup_s", "s", "lower", f"median of {n_setup} fresh starts"),
        ("wall_s", "wall_s", "s", "lower", f"mean of {n_rep} repeats"),
        ("member_iters_per_s", "work_per_s", "1/s", "higher", "JSON: work_per_s"),
        ("episodes_per_s", "work_per_s", "1/s", "higher", "JSON: work_per_s"),
        ("peak_rss_mb", "peak_rss_mb", "MB", "lower", "run process + pool workers"),
        ("failed_frac", "failed_frac", "1", "lower", "JSON: failed / attempted"),
        ("constraint_margin_min", "constraint_margin_min", "1", "higher",
         "min over members of (v_i - alpha*v_anchor)/|v_anchor|"),
        ("diversity_mean", "diversity_mean", "1", "higher", "mean qd.csv diversity_score"),
        ("kshot_ratio_mean", "kshot_ratio_mean", "1", "higher", "mean method ratio over cells"),
    ]
    print("end-to-end metrics:")
    for name, key, unit, better, note in rows:
        value = metrics.get(key)
        if key == "work_per_s" and name != per_s:
            value = None
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:22s} {shown:>12s} {unit:4s} {better:6s} {note}")


def print_traced(metrics: dict, units: dict, n_traced: int) -> None:
    wall = metrics["trace.traced_wall_s"]
    print(f"per-layer metrics (traced serial pass, median of {n_traced}; "
          "self_s share of traced wall in brackets):")
    for name in units:
        value = metrics[name]
        share = f"  [{value / wall:6.1%}]" if name.endswith(".self_s") and value else ""
        print(f"  {name:44s} {value:14.6g} {units[name]}{share}")
    print(f"tracing overhead: traced wall_s {wall:.4f} vs untraced serial wall_s "
          f"{metrics['trace.serial_wall_s']:.4f} ({metrics['trace.overhead_frac']:+.2%})")


if __name__ == "__main__":
    sys.exit(main())
