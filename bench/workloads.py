"""Workload inputs: each workload's config is a committed config cut down to
benchmark size, with the workload seed as its master seed.

The same seed gives the same config, hence the same outputs byte for byte.
The nominal work of a workload (training runs, members, member-iterations,
episodes) follows from its config alone, so throughput stays comparable
between versions of the program that do the same work differently.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

WORKLOADS = ("exact_sweep", "kshot_eval", "sampled_train")

SOURCES = {
    "exact_sweep": "configs/four_rooms_qd.json",
    "kshot_eval": "configs/four_rooms_kshot.json",
    "sampled_train": "configs/four_rooms_qd.json",
}


def make_config(workload: str, seed: int, root: Path, output_dir: Path) -> dict:
    d = json.loads((root / SOURCES[workload]).read_text())
    d["master_seed"] = seed
    d["output_dir"] = str(output_dir)
    if workload == "exact_sweep":
        # both set sizes, so batched solvers show how their gain scales with n;
        # four training seeds each, because best-response sweep counts are
        # heavy-tailed across seeds
        d["seeds"] = [0, 1, 2, 3]
        d["sweep"] = {"alpha": [0.9], "set_size": [5, 10]}
        d["trainer"]["outer_iterations"] = 15
    elif workload == "sampled_train":
        d["seeds"] = [0, 1, 2, 3, 4, 5]
        del d["sweep"]
        d["set_size"] = 5
        d["trainer"] = {
            "mode": "sampled",
            "total_episodes": 500,
            "episode_length": 100,
            "eval_every": 200,
        }
    elif workload == "kshot_eval":
        # two outer iterations, so evaluation (rollouts, seeding, bootstrap)
        # is most of the wall time. Longer training brings in warm-started
        # best responses whose sweep counts are heavy-tailed across seeds (one
        # took 47,281 sweeps), which made wall time vary 2x with the seed;
        # exact_sweep measures those. The Periodic cell runs on the
        # clock-expanded MDP.
        d["trainer"]["outer_iterations"] = 2
        d["kshot"].update(
            n_train_seeds=2,
            k_select=4,
            n_eval=8,
            horizon=100,
            bootstrap_resamples=500,
            perturbations=[
                {"kind": "ActionFailure", "magnitudes": [0.2, 0.5]},
                {
                    "kind": "ActionFailure",
                    "magnitudes": [0.5],
                    "schedule": {"type": "Periodic", "period": 10, "duration": 5, "start": 0},
                },
            ],
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return d


def _sweep_set_sizes(d: dict) -> list[int]:
    sweep = d.get("sweep", {})
    alphas = sweep.get("alpha", [None])
    sizes = sweep.get("set_size", [d.get("set_size", 2)])
    return [n for _, n, _ in itertools.product(alphas, sizes, d.get("seeds", [0]))]


def nominal_work(workload: str, d: dict) -> dict[str, int]:
    """Work the workload asks for: training runs, members, member-iterations
    (members x outer iterations of exact training) and simulated episodes."""
    trainer = d["trainer"]
    if workload == "kshot_eval":
        ks = d["kshot"]
        seeds, k, n_eval = ks["n_train_seeds"], ks["k_select"], ks["n_eval"]
        sizes = [1] + [m["set_size"] for m in ks["methods"]]  # baseline first
        cells = sum(len(p["magnitudes"]) for p in ks["perturbations"])
        # per cell and training seed: each side picks from k episodes per
        # member, then evaluates its pick for n_eval episodes
        episodes = cells * seeds * sum(k * (n + 1) + 2 * n_eval for n in sizes)
        members = seeds * sum(sizes)
        return {
            "training_runs": seeds * len(sizes),
            "members": members,
            "member_iters": members * trainer["outer_iterations"],
            "episodes": episodes,
        }
    sizes = _sweep_set_sizes(d)
    exact = trainer["mode"] == "exact"
    return {
        "training_runs": len(sizes),
        "members": sum(sizes),
        "member_iters": sum(sizes) * trainer["outer_iterations"] if exact else 0,
        "episodes": 0 if exact else len(sizes) * trainer["total_episodes"],
    }


def operations(workload: str, d: dict) -> int:
    """Operations that can fail: training runs, or kshot (method, cell) pairs."""
    if workload == "kshot_eval":
        ks = d["kshot"]
        cells = sum(len(p["magnitudes"]) for p in ks["perturbations"])
        return cells * (1 + len(ks["methods"]))
    return len(_sweep_set_sizes(d))
