"""One measured repeat of a workload, in a fresh interpreter.

Usage (normally started by run.py):
    python3 bench/child.py WORKLOAD CONFIG RESULT_JSON --t0 MONOTONIC
        [--trace SPANS_PATH] [--setup-only]

setup_s runs from --t0 (taken by the parent just before it started this
process) through importing divset, parsing the config and building the MDP.
wall_s times the entry-point call alone. Outputs are checked and hashed
after the timed call; with --trace the wrappers are removed first, so the
checks are not traced.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

# criterion 4's slack: no member below alpha * anchor - 2% of |anchor|
CONSTRAINT_SLACK = 0.02


def _hash_tree(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _check_sweep(config, out: Path) -> dict:
    """Quality guards of a run_experiment sweep, from its written outputs.

    Member values are recomputed exactly from the checkpointed policies.
    """
    from divset.mdp import Criterion, occupancy, policy_value
    from divset.policy_set import policy_set_from_json

    mdp, _ = config.environment.build()
    exact = config.trainer.mode == "exact"
    crit = config.trainer.exact.criterion if exact else Criterion.AVERAGE
    rows = _read_csv(out / "qd.csv")
    margins, violating = [], 0
    for k, row in enumerate(rows):
        pset = policy_set_from_json((out / "checkpoints" / f"run_{k:05d}.json").read_text())
        values = [policy_value(mdp, occupancy(mdp, p, crit)) for p in pset.policies]
        anchor, alpha = values[0], float(row["alpha"])
        margins += [(v - alpha * anchor) / abs(anchor) for v in values]
        if exact and min(values) < alpha * anchor - CONSTRAINT_SLACK * abs(anchor):
            violating += 1
    return {
        "rows": len(rows),
        "failed_ops": violating,
        "constraint_margin_min": min(margins),
        "diversity_mean": sum(float(r["diversity_score"]) for r in rows) / len(rows),
    }


def _check_kshot(out: Path) -> dict:
    """The baseline scored against itself must give a ratio of exactly 1.0."""
    rows = _read_csv(out / "kshot.csv")
    cells: dict[tuple, bool] = {}
    ratios = []
    for r in rows:
        key = (r["method"], r["perturbation"], r["magnitude"])
        ok = r["method"] != "baseline" or float(r["ratio"]) == 1.0
        cells[key] = cells.get(key, True) and ok
        if r["method"] != "baseline" and r["seed"] == "all":
            ratios.append(float(r["ratio"]))
    return {
        "rows": len(rows),
        "failed_ops": sum(not ok for ok in cells.values()),
        "kshot_ratio_mean": sum(ratios) / len(ratios),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("config")
    ap.add_argument("result")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import divset
    import divset.config
    import divset.experiment

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    config = divset.config.load_config(args.config)
    config.environment.build()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "divset_file": divset.__file__}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    entry = (
        divset.experiment.run_kshot
        if args.workload == "kshot_eval"
        else divset.experiment.run_experiment
    )
    t = time.perf_counter()
    entry(config)
    wall_s = time.perf_counter() - t
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(wall_s=wall_s, peak_rss_mb=(own + pool) / 1024.0)

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)

    out = Path(config.output_dir)
    result["output_sha256"], result["output_bytes"] = _hash_tree(out)
    result.update(_check_kshot(out) if args.workload == "kshot_eval" else _check_sweep(config, out))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
