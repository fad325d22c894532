"""Span recorder for the traced pass.

Wraps divset's public functions from the outside: each wrapper replaces the
function under every name a divset module holds it by (the defining module,
importing modules such as ``divset.training.best_response``, and the package
namespace), so calls are seen wherever callers resolve them. Spans stay in
memory and are written once, after the measured call. A layer's self time is
its span minus the spans of wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (layer name, defining module, function name)
LAYERS = (
    ("mdp.best_response", "divset.mdp", "best_response"),
    ("mdp.occupancy", "divset.mdp", "occupancy"),
    ("diversity.diversity_reward", "divset.diversity", "diversity_reward"),
    ("diversity.diversity_score", "divset.diversity", "diversity_score"),
    ("strategies.mix", "divset.strategies", "mix"),
    ("policy_set.lagrange_step", "divset.policy_set", "lagrange_step"),
    ("policy_set.lagrange_step_adam", "divset.policy_set", "lagrange_step_adam"),
    ("policy_set.update_moving_averages", "divset.policy_set", "update_moving_averages"),
    ("policy_set.policy_set_to_json", "divset.policy_set", "policy_set_to_json"),
    ("training.train_exact", "divset.training", "train_exact"),
    ("training.train_sampled", "divset.training", "train_sampled"),
    ("training.rollout", "divset.training", "rollout"),
    ("envs.perturb", "divset.envs", "perturb"),
    ("envs.build_gridworld", "divset.envs", "build_gridworld"),
    ("kshot.kshot_select", "divset.kshot", "kshot_select"),
    ("kshot.kshot_evaluate", "divset.kshot", "kshot_evaluate"),
    ("seeding.child_rng", "divset.seeding", "child_rng"),
    ("experiment.run_experiment", "divset.experiment", "run_experiment"),
    ("experiment.run_kshot", "divset.experiment", "run_kshot"),
    ("config.load_config", "divset.config", "load_config"),
)

# rollouts are reported per schedule of the perturbation being evaluated
ROLLOUT_KINDS = ("always", "periodic")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, parent index, start, end]
        self._open: list = []  # [span index, time covered by child spans]
        self.stats: dict[str, dict] = {}
        self.durations: dict[str, list] = {}
        self._schedule = "always"
        self._patched: list = []

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})

    def _count(self, layer: str, args, kwargs, result) -> str:
        """Update layer-specific counters; return the span's name."""
        if layer == "training.rollout":
            name = f"{layer}.{self._schedule}"
            st = self._stat(name)
            st["steps"] = st.get("steps", 0) + int(_arg(args, kwargs, 2, "horizon"))
            return name
        st = self._stat(layer)
        if layer == "training.train_sampled":
            cfg = _arg(args, kwargs, 4, "cfg")
            st["steps"] = st.get("steps", 0) + cfg.total_episodes * cfg.episode_length
        elif layer == "envs.perturb":
            st["transition_bytes"] = st.get("transition_bytes", 0) + result.transition.nbytes
            schedule = _arg(args, kwargs, 1, "p").schedule
            self._schedule = "periodic" if type(schedule).__name__ == "Periodic" else "always"
        elif layer == "policy_set.policy_set_to_json":
            st["bytes"] = st.get("bytes", 0) + len(result)
        return layer

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            span = [layer, parent, 0.0, 0.0]
            self.spans.append(span)
            frame = [idx, 0.0]
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += t1 - t0
            name = self._count(layer, args, kwargs, result)
            span[0], span[2], span[3] = name, t0, t1
            st = self._stat(name)
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - frame[1]
            self.durations.setdefault(name, []).append(t1 - t0)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "divset"]
        for layer, module, attr in LAYERS:
            orig = getattr(sys.modules[module], attr, None)
            if orig is None:
                continue  # a layer the program no longer has reports zeros
            wrapper = self._wrap(layer, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; layers never called report zeros."""
        out: dict[str, float] = {}
        names = [layer for layer, _, _ in LAYERS if layer != "training.rollout"]
        names += [f"training.rollout.{kind}" for kind in ROLLOUT_KINDS]
        for name in names:
            st = self.stats.get(name, {"calls": 0, "self_s": 0.0})
            for key, value in st.items():
                out[f"{name}.{key}"] = value
        for kind in ROLLOUT_KINDS:
            name = f"training.rollout.{kind}"
            out.setdefault(f"{name}.steps", 0)
            busy = sum(self.durations.get(name, ()))
            out[f"{name}.steps_per_s"] = out[f"{name}.steps"] / busy if busy else 0.0
        out.setdefault("training.train_sampled.steps", 0)
        out.setdefault("envs.perturb.transition_bytes", 0)
        out.setdefault("policy_set.policy_set_to_json.bytes", 0)
        br = sorted(self.durations.get("mdp.best_response", ()))
        out["mdp.best_response.p50_us"] = statistics.median(br) * 1e6 if br else 0.0
        out["mdp.best_response.p99_us"] = (
            statistics.quantiles(br, n=100)[98] * 1e6 if len(br) > 1 else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, parent, t0, t1 in self.spans:
                f.write(json.dumps([name, parent, t0, t1]) + "\n")
