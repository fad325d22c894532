"""Few-shot selection and evaluation under common random numbers."""

import csv
import dataclasses
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import divset.experiment
import divset.kshot
from divset import (
    KShotConfig,
    build_chain,
    child_rng,
    init_set,
    kshot_evaluate,
    kshot_returns,
    kshot_select,
    parse_config,
    run_kshot,
    sample_episodes,
)
from divset.experiment import KSHOT_COLUMNS

from helpers import golden_kshot_config

GOLDEN_DIR = Path(__file__).parent / "golden"
BENCH_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def episode_return(mdp, policy, horizon, rng) -> float:
    """The undiscounted return of one episode, sampled alone."""
    return float(sample_episodes(mdp, policy, horizon, [rng])[2].sum())


def test_episode_return_sums_rewards():
    mdp = build_chain(3, end_reward=1.0)
    flat = dataclasses.replace(mdp, reward=np.full_like(mdp.reward, 0.5))
    pol = np.full((3, 3), 1.0 / 3.0)
    total = episode_return(flat, pol, 7, np.random.default_rng(0))
    assert total == pytest.approx(0.5 * 7)


def make_set(policies):
    n = len(policies)
    d = 1
    base = init_set(n, d, *policies[0].shape)
    base.policies[:] = policies
    return base


def right_policy(num_states: int) -> np.ndarray:
    probs = np.zeros((num_states, 3))
    probs[:, 1] = 1.0
    return probs


def stay_policy(num_states: int) -> np.ndarray:
    probs = np.zeros((num_states, 3))
    probs[:, 2] = 1.0
    return probs


def test_kshot_select_prefers_the_higher_return_member():
    mdp = build_chain(4, end_reward=1.0)
    pset = make_set([stay_policy(4), right_policy(4), stay_policy(4)])
    cfg = KShotConfig(k_select=3, horizon=12)
    assert kshot_select(pset, mdp, cfg, seed=5) == 1


def test_kshot_select_breaks_ties_to_the_lowest_index():
    mdp = build_chain(4, end_reward=1.0)
    pset = make_set([right_policy(4), right_policy(4), right_policy(4)])
    cfg = KShotConfig(k_select=3, horizon=12)
    assert kshot_select(pset, mdp, cfg, seed=5) == 0


def test_kshot_returns_evaluates_each_seeds_pick():
    mdp = build_chain(4, end_reward=1.0)
    sets = [make_set([stay_policy(4), right_policy(4)]) for _ in range(2)]
    cfg = KShotConfig(k_select=2, n_eval=3, horizon=10)
    selected, returns = kshot_returns(sets, mdp, cfg, seed=4)
    assert selected.tolist() == [1, 1]
    assert returns.shape == (2, 3)
    expected = [
        [episode_return(mdp, right_policy(4), 10, child_rng(4, "eval", t, e)) for e in range(3)]
        for t in range(2)
    ]
    assert np.array_equal(returns, expected)


def test_baseline_against_itself_has_ratio_exactly_one():
    mdp = build_chain(5, end_reward=1.0)
    baselines = [make_set([right_policy(5)]) for _ in range(3)]
    cfg = KShotConfig(k_select=2, n_eval=6, horizon=20, bootstrap_resamples=50)
    selected, base_returns = kshot_returns(baselines, mdp, cfg, seed=11)
    result = kshot_evaluate(base_returns, base_returns, selected, cfg, seed=11)
    assert np.all(result.per_seed_ratios == 1.0)
    assert result.ratio_mean == 1.0
    assert not result.baseline_nonpositive
    assert np.array_equal(result.per_seed_returns, result.per_seed_baseline_returns)


def test_evaluation_streams_do_not_depend_on_the_method_set():
    # evaluation streams depend on (seed, train seed, episode) only: a set
    # whose pick is the baseline's policy sees the baseline's exact episodes,
    # and every method is scored against the same baseline returns
    mdp = build_chain(5, end_reward=1.0)
    baselines = [make_set([right_policy(5)]) for _ in range(2)]
    set_a = [make_set([stay_policy(5), right_policy(5)]) for _ in range(2)]
    set_b = [make_set([right_policy(5)]) for _ in range(2)]
    cfg = KShotConfig(k_select=2, n_eval=5, horizon=15, bootstrap_resamples=50)
    _, base = kshot_returns(baselines, mdp, cfg, seed=21)
    sel_a, ret_a = kshot_returns(set_a, mdp, cfg, seed=21)
    sel_b, ret_b = kshot_returns(set_b, mdp, cfg, seed=21)
    assert np.array_equal(ret_a, base) and np.array_equal(ret_b, base)
    ra = kshot_evaluate(ret_a, base, sel_a, cfg, seed=21)
    rb = kshot_evaluate(ret_b, base, sel_b, cfg, seed=21)
    assert np.array_equal(ra.per_seed_baseline_returns, rb.per_seed_baseline_returns)
    assert ra.selected_indices.tolist() == [1, 1]
    assert rb.selected_indices.tolist() == [0, 0]


def test_selection_streams_depend_on_member_index_only():
    # same (seed, index, episode) randomness whichever set the member is in
    mdp = build_chain(4, end_reward=1.0)
    pol = right_policy(4)
    r1 = episode_return(mdp, pol, 10, child_rng(9, 1, 0))
    r2 = episode_return(mdp, pol, 10, child_rng(9, 1, 0))
    assert r1 == r2


def test_kshot_evaluate_rejects_mismatched_lengths():
    cfg = KShotConfig(n_eval=3)
    returns = np.ones((1, 3))
    with pytest.raises(ValueError, match="baseline"):
        kshot_evaluate(returns, np.ones((2, 3)), np.zeros(1, dtype=int), cfg, seed=0)
    with pytest.raises(ValueError, match="baseline"):
        kshot_evaluate(returns, np.ones((1, 4)), np.zeros(1, dtype=int), cfg, seed=0)


def test_nonpositive_baseline_flags_and_nans():
    mdp = build_chain(4, end_reward=0.0)  # every return is zero
    sets = [make_set([right_policy(4)])]
    baselines = [make_set([stay_policy(4)])]
    cfg = KShotConfig(k_select=2, n_eval=4, horizon=8, bootstrap_resamples=20)
    selected, returns = kshot_returns(sets, mdp, cfg, seed=3)
    _, base_returns = kshot_returns(baselines, mdp, cfg, seed=3)
    result = kshot_evaluate(returns, base_returns, selected, cfg, seed=3)
    assert result.baseline_nonpositive
    assert np.isnan(result.ratio_mean)
    assert np.isnan(result.ci_low) and np.isnan(result.ci_high)
    assert np.all(np.isnan(result.per_seed_ratios))


def test_no_finite_bootstrap_resample_gives_a_nan_ci():
    # the baseline's mean is positive, but its one resample drew only the
    # zero-return episodes, so no resample has a finite ratio
    cfg = KShotConfig(n_eval=4, bootstrap_resamples=1)
    base_returns = np.array([[0.0, 0.0, 0.0, 1.0]])
    result = kshot_evaluate(np.ones((1, 4)), base_returns, np.zeros(1, int), cfg, seed=1)
    assert not result.baseline_nonpositive
    assert result.ratio_mean == 4.0
    assert np.isnan(result.ci_low) and np.isnan(result.ci_high)


def _loop_paired_ratio_ci(returns, base_returns, level, resamples, seed):
    """Reference nested bootstrap, drawn one resample and one seed at a time.

    Seed indices come from child_rng(seed, "seeds"), episode indices from
    child_rng(seed, "episodes"): per drawn seed, n_eval into returns, then
    n_eval into base_returns. Returns the (lo, hi) interval and how many
    resamples it dropped for a nonpositive resampled baseline mean.
    """
    seed_rng, episode_rng = child_rng(seed, "seeds"), child_rng(seed, "episodes")
    n_seeds, n_eval = returns.shape
    stats = np.full(resamples, np.nan)
    for b in range(resamples):
        chosen = seed_rng.integers(n_seeds, size=n_seeds)
        ratios = np.empty(n_seeds)
        for j, t in enumerate(chosen):
            m = returns[t, episode_rng.integers(n_eval, size=n_eval)].mean()
            base = base_returns[t, episode_rng.integers(n_eval, size=n_eval)].mean()
            ratios[j] = m / base if base > 0 else np.nan
        stats[b] = np.mean(ratios)
    kept = stats[np.isfinite(stats)]
    lo = (1.0 - level) / 2.0 * 100.0
    interval = (float(np.percentile(kept, lo)), float(np.percentile(kept, 100.0 - lo)))
    return interval, resamples - len(kept)


@pytest.mark.parametrize(
    "n_seeds, n_eval, sparse_baseline",
    [(1, 1, False), (3, 7, False), (5, 40, False), (4, 3, True)],
)
def test_paired_ratio_ci_matches_the_per_seed_loop(n_seeds, n_eval, sparse_baseline):
    rng = np.random.default_rng(100 * n_seeds + n_eval)
    returns = rng.uniform(0.0, 5.0, size=(n_seeds, n_eval))
    base_returns = rng.uniform(0.5, 5.0, size=(n_seeds, n_eval))
    if sparse_baseline:
        # one positive episode per seed: every per-seed mean is positive, but
        # a resample that misses that episode has a zero baseline mean
        base_returns[:, 1:] = 0.0
    expected, dropped = _loop_paired_ratio_ci(returns, base_returns, 0.9, 200, 17)
    assert (dropped > 0) == sparse_baseline
    got = divset.kshot._paired_ratio_ci(returns, base_returns, 0.9, 200, 17)
    assert got == expected


@pytest.mark.parametrize("chunk", [1, 7, 64, 300])
def test_paired_ratio_ci_does_not_depend_on_the_chunk_size(chunk, monkeypatch):
    rng = np.random.default_rng(9)
    returns = rng.uniform(0.0, 5.0, size=(4, 6))
    base_returns = rng.uniform(0.5, 5.0, size=(4, 6))
    expected = divset.kshot._paired_ratio_ci(returns, base_returns, 0.9, 300, 5)
    monkeypatch.setattr(divset.kshot, "_BOOTSTRAP_CHUNK", chunk)
    assert divset.kshot._paired_ratio_ci(returns, base_returns, 0.9, 300, 5) == expected


def test_paired_ratio_ci_memory_does_not_grow_with_the_resamples():
    # holding every resample's indices would cost n_seeds * 2 * n_eval ints
    # (3,200 bytes here) per resample; chunked scoring keeps a few floats
    rng = np.random.default_rng(5)
    returns = rng.uniform(0.0, 5.0, size=(5, 40))
    base_returns = rng.uniform(0.5, 5.0, size=(5, 40))
    peaks = {}
    for resamples in (500, 4000):
        tracemalloc.start()
        divset.kshot._paired_ratio_ci(returns, base_returns, 0.95, resamples, 3)
        peaks[resamples] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[4000] - peaks[500] < 64 * (4000 - 500)


def test_percentiles_match_numpys_linear_method_bit_for_bit():
    rng = np.random.default_rng(25)
    samples = [
        rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0) + rng.normal()
        for n in rng.integers(1, 601, size=300)
    ]
    samples += [np.array([2.5]), np.full(9, 1.25)]  # one finite resample; all equal
    for values in samples:
        for level in (0.5, 0.9, 0.95, 0.99, rng.uniform()):
            lo = (1.0 - level) / 2.0 * 100.0
            q = [lo, 100.0 - lo]
            got = divset.kshot._percentiles(values, q)
            assert got.tobytes() == np.percentile(values, q).tobytes()


def test_run_kshot_reproduces_the_golden_kshot_csv(tmp_path):
    path = run_kshot(parse_config(golden_kshot_config(tmp_path / "out")))
    assert path.read_bytes() == (GOLDEN_DIR / "kshot_chain.csv").read_bytes()


def test_the_benchmark_tracer_counts_a_kshot_run(tmp_path):
    # the benchmark's traced pass wraps divset functions by name and reads
    # some of their arguments; a rename or a changed signature shows here
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_TRACER)
    bench_tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_tracer)
    d = golden_kshot_config(tmp_path / "out")
    config = parse_config(d)
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        path = divset.experiment.run_kshot(config)
    finally:
        tracer.uninstall()
    assert divset.kshot.kshot_select is kshot_select
    assert divset.experiment.run_kshot is run_kshot
    assert path.read_bytes() == (GOLDEN_DIR / "kshot_chain.csv").read_bytes()
    metrics = tracer.metrics()
    ks = d["kshot"]
    cells = sum(len(p["magnitudes"]) for p in ks["perturbations"])
    families = 1 + len(ks["methods"])  # the baseline, then each method
    assert metrics["experiment.run_kshot.calls"] == 1
    assert metrics["kshot.kshot_select.calls"] == cells * ks["n_train_seeds"] * families
    assert metrics["kshot.kshot_evaluate.calls"] == cells * families


def test_run_kshot_trains_each_method_in_lockstep_stacks_of_at_most_64(tmp_path, monkeypatch):
    stacks, calls = [], []
    real_best_response, real_train_exact = divset.training.best_response, divset.experiment.train_exact

    def recording_best_response(mdp, basis, coefficients, criterion, *args):
        stacks.append(len(coefficients))
        return real_best_response(mdp, basis, coefficients, criterion, *args)

    def counting_train_exact(*args):
        calls.append(1)
        return real_train_exact(*args)

    monkeypatch.setattr(divset.training, "best_response", recording_best_response)
    monkeypatch.setattr(divset.experiment, "train_exact", counting_train_exact)
    d = golden_kshot_config(tmp_path / "out")
    d["trainer"] = {"mode": "exact", "outer_iterations": 2}
    d["kshot"]["methods"][0]["set_size"] = 10
    d["kshot"]["n_train_seeds"] = 7  # 70 members of one method
    run_kshot(parse_config(d))
    assert len(calls) == 1 + len(d["kshot"]["methods"])
    # six sets of ten per stack, then the seventh alone; the baseline's
    # seven one-member sets are one stack
    assert max(stacks) == 60
    assert {60, 10, 7} <= set(stacks)


def test_run_kshot_rolls_each_set_once_per_cell_and_seed(tmp_path, monkeypatch):
    episodes = []  # per sample_episodes call, its number of episodes
    real_sample_episodes = divset.kshot.sample_episodes

    def counting_sample_episodes(mdp, policies, horizon, rngs):
        episodes.append(len(rngs))
        return real_sample_episodes(mdp, policies, horizon, rngs)

    monkeypatch.setattr(divset.kshot, "sample_episodes", counting_sample_episodes)
    d = golden_kshot_config(tmp_path / "out")
    run_kshot(parse_config(d))
    ks = d["kshot"]
    cells = sum(len(p["magnitudes"]) for p in ks["perturbations"])
    set_sizes = [1] + [m["set_size"] for m in ks["methods"]]  # baseline first
    selecting = sum(n for n in set_sizes if n > 1)  # a one-member set needs no selection
    per_seed = ks["k_select"] * selecting + ks["n_eval"] * len(set_sizes)
    assert sum(episodes) == cells * ks["n_train_seeds"] * per_seed
    # per family and seed: one call per member to select, one to evaluate the pick
    assert len(episodes) == cells * ks["n_train_seeds"] * (selecting + len(set_sizes))


def test_run_kshot_writes_schema_and_baseline_unit_ratios(tmp_path):
    cfg = parse_config(
        {
            "master_seed": 5,
            "output_dir": str(tmp_path / "out"),
            "environment": {"type": "chain", "length": 4, "end_reward": 1.0},
            "diversity": {"kind": "Repulsive", "contact_distance": 1.0},
            "strategy": {"kind": "DominoLagrangian", "alpha": 0.8},
            "trainer": {"mode": "exact", "outer_iterations": 3},
            "kshot": {
                "methods": [
                    {"name": "pair", "strategy": {"kind": "DominoLagrangian", "alpha": 0.8}, "set_size": 2}
                ],
                "perturbations": [{"kind": "ActionFailure", "magnitudes": [0.0, 0.3]}],
                "k_select": 2,
                "n_eval": 4,
                "horizon": 10,
                "n_train_seeds": 2,
                "bootstrap_resamples": 30,
            },
        }
    )
    path = run_kshot(cfg)
    assert path == Path(cfg.output_dir) / "kshot.csv"
    with path.open() as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0].keys()) == KSHOT_COLUMNS
    # 2 methods (baseline + pair) x 2 magnitudes x (2 per-seed rows + 1 aggregate)
    assert len(rows) == 2 * 2 * 3
    methods = {r["method"] for r in rows}
    assert methods == {"baseline", "pair"}
    for r in rows:
        if r["method"] == "baseline" and r["seed"] != "all":
            assert float(r["ratio"]) == 1.0
        if r["seed"] == "all":
            assert r["ci_low"] != "" and r["ci_high"] != ""
        else:
            assert r["ci_low"] == "" and r["ci_high"] == ""
    mags = sorted({float(r["magnitude"]) for r in rows})
    assert mags == [0.0, 0.3]
    assert all(r["perturbation"] == "ActionFailure" for r in rows)
