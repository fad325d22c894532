"""Few-shot selection and evaluation under common random numbers."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from divset import (
    KShotConfig,
    Policy,
    build_chain,
    child_rng,
    episode_return,
    init_set,
    kshot_evaluate,
    kshot_select,
    parse_config,
    run_kshot,
)
from divset.experiment import KSHOT_COLUMNS


def test_episode_return_sums_rewards():
    mdp = build_chain(3, end_reward=1.0)
    flat = dataclasses.replace(mdp, reward=np.full_like(mdp.reward, 0.5))
    pol = Policy(np.full((3, 3), 1.0 / 3.0))
    total = episode_return(flat, pol, 7, np.random.default_rng(0))
    assert total == pytest.approx(0.5 * 7)


def make_set(policies):
    n = len(policies)
    d = 1
    base = init_set(n, d, policies[0].num_states, policies[0].num_actions)
    base.policies[:] = policies
    return base


def right_policy(num_states: int) -> Policy:
    probs = np.zeros((num_states, 3))
    probs[:, 1] = 1.0
    return Policy(probs)


def stay_policy(num_states: int) -> Policy:
    probs = np.zeros((num_states, 3))
    probs[:, 2] = 1.0
    return Policy(probs)


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


def test_baseline_against_itself_has_ratio_exactly_one():
    mdp = build_chain(5, end_reward=1.0)
    baselines = [make_set([right_policy(5)]) for _ in range(3)]
    cfg = KShotConfig(k_select=2, n_eval=6, horizon=20, n_train_seeds=3, bootstrap_resamples=50)
    result = kshot_evaluate(baselines, mdp, baselines, cfg, seed=11)
    assert np.all(result.per_seed_ratios == 1.0)
    assert result.ratio_mean == 1.0
    assert not result.baseline_nonpositive
    assert np.array_equal(result.per_seed_returns, result.per_seed_baseline_returns)


def test_evaluation_streams_do_not_depend_on_the_method_set():
    # the baseline sees identical episodes whichever method it is compared to
    mdp = build_chain(5, end_reward=1.0)
    baselines = [make_set([right_policy(5)]) for _ in range(2)]
    set_a = [make_set([stay_policy(5), right_policy(5)]) for _ in range(2)]
    set_b = [make_set([right_policy(5)]) for _ in range(2)]
    cfg = KShotConfig(k_select=2, n_eval=5, horizon=15, n_train_seeds=2, bootstrap_resamples=50)
    ra = kshot_evaluate(set_a, mdp, baselines, cfg, seed=21)
    rb = kshot_evaluate(set_b, mdp, baselines, cfg, seed=21)
    assert np.array_equal(ra.per_seed_baseline_returns, rb.per_seed_baseline_returns)


def test_selection_streams_depend_on_member_index_only():
    # same (seed, index, episode) randomness whichever set the member is in
    mdp = build_chain(4, end_reward=1.0)
    pol = right_policy(4)
    r1 = episode_return(mdp, pol, 10, child_rng(9, 1, 0))
    r2 = episode_return(mdp, pol, 10, child_rng(9, 1, 0))
    assert r1 == r2


def test_kshot_evaluate_rejects_mismatched_lengths():
    mdp = build_chain(4, end_reward=1.0)
    sets = [make_set([right_policy(4)])]
    baselines = [make_set([right_policy(4)]) for _ in range(2)]
    with pytest.raises(ValueError, match="baselines"):
        kshot_evaluate(sets, mdp, baselines, KShotConfig(), seed=0)


def test_nonpositive_baseline_flags_and_nans():
    mdp = build_chain(4, end_reward=0.0)  # every return is zero
    sets = [make_set([right_policy(4)])]
    baselines = [make_set([stay_policy(4)])]
    cfg = KShotConfig(k_select=2, n_eval=4, horizon=8, n_train_seeds=1, bootstrap_resamples=20)
    result = kshot_evaluate(sets, mdp, baselines, cfg, seed=3)
    assert result.baseline_nonpositive
    assert np.isnan(result.ratio_mean)
    assert np.isnan(result.ci_low) and np.isnan(result.ci_high)
    assert np.all(np.isnan(result.per_seed_ratios))


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
