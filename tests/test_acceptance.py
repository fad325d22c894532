"""Acceptance suite: one check per shipped guarantee, one verdict line each.

Every test times itself against its stated budget and prints
"criterion N: PASS - ..." through the acceptance_line fixture; the
conftest echoes all lines in a terminal summary section. Criterion 8 is
a trend check and warns instead of failing, which its line reports.
"""

import csv
import dataclasses
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from divset import (
    Criterion,
    DiversityConfig,
    DiversityKind,
    ExactTrainConfig,
    SampleTrainConfig,
    StrategyConfig,
    StrategyKind,
    best_response,
    build_chain,
    deterministic_policy,
    discounted_occupancy,
    enumerate_runs,
    expected_features,
    init_set,
    lagrange_step,
    lagrange_step_adam,
    load_config,
    occupancy,
    policy_transition_matrix,
    policy_value,
    run_kshot,
    stationary_distribution,
    train_exact,
    train_sampled,
)
from divset.cli import main
from divset.policy_set import AdamState, sigmoid

from helpers import (
    KERNEL_CASES,
    deterministic_action_tables,
    member_reward,
    own_objective_term,
    random_mdp,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(acceptance_line, num: int, detail: str, elapsed: float, budget: float):
    acceptance_line(
        f"criterion {num}: PASS - {detail} in {elapsed:.1f}s (budget {budget:.0f}s)"
    )
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def test_criterion_1_reward_is_the_gradient_of_each_members_term(acceptance_line):
    """The per-member diversity reward equals the finite-difference gradient
    of that member's own nearest-neighbour objective term with respect to
    its occupancy, for every kernel (repulsive, van der Waals, generalized
    with a power and with a logarithmic repulsive term) and for the appendix
    scaling."""
    t0 = time.time()
    rng = np.random.default_rng(314)
    worst = 0.0
    checked = 0
    while checked < 50:
        S = int(rng.integers(3, 11))
        A = int(rng.integers(2, min(4, 60 // S) + 1))
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 5))
        phi = rng.uniform(-1.0, 1.0, size=(S * A, d))
        occs = rng.dirichlet(np.ones(S * A), size=n)
        psis = occs @ phi
        # discard instances where some member's nearest neighbour is ambiguous
        gaps = []
        for i in range(n):
            dists = np.linalg.norm(psis - psis[i], axis=1)
            dists[i] = np.inf
            order = np.sort(dists)
            gaps.append(order[1] - order[0] if n > 2 else np.inf)
        if min(gaps) < 1e-3:
            continue
        checked += 1
        cfg = KERNEL_CASES[checked % len(KERNEL_CASES)]
        for i in range(n):
            reward = member_reward(phi.reshape(S, A, d), psis, i, cfg).ravel()
            eps = 1e-6
            grad = np.empty(S * A)
            for k in range(S * A):
                dp = occs[i].copy()
                dm = occs[i].copy()
                dp[k] += eps
                dm[k] -= eps
                up = own_objective_term(
                    np.vstack([psis[:i], dp @ phi, psis[i + 1 :]]), i, cfg
                )
                dn = own_objective_term(
                    np.vstack([psis[:i], dm @ phi, psis[i + 1 :]]), i, cfg
                )
                grad[k] = (up - dn) / (2.0 * eps)
            rel = np.linalg.norm(reward - grad) / max(np.linalg.norm(grad), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"instance {checked} member {i}: rel error {rel:.2e}"
    elapsed = time.time() - t0
    _verdict(
        acceptance_line,
        1,
        f"50 instances over {len(KERNEL_CASES)} kernel configs, "
        f"worst rel error {worst:.1e} (limit 1e-4)",
        elapsed,
        10.0,
    )


def test_criterion_2_occupancy_oracles(acceptance_line):
    """Discounted occupancy matches a truncated power series and the
    stationary distribution matches power iteration, both to 1e-8."""
    t0 = time.time()
    rng = np.random.default_rng(271)
    worst_disc = 0.0
    worst_stat = 0.0
    for _ in range(100):
        S = int(rng.integers(2, 9))
        A = int(rng.integers(2, 4))
        mdp = random_mdp(rng, S, A, 2, discount=float(rng.uniform(0.8, 0.99)))
        pol = rng.dirichlet(np.ones(A), size=S)
        P = policy_transition_matrix(mdp, pol)

        occ = discounted_occupancy(mdp, pol)
        gamma = mdp.discount
        mu = mdp.initial_dist.copy()
        series = np.zeros(S)
        weight = 1.0 - gamma
        for _ in range(2000):
            series += weight * mu
            mu = mu @ P
            weight *= gamma
        oracle = (series[:, None] * pol).ravel()
        worst_disc = max(worst_disc, float(np.abs(occ - oracle).max()))

        stat = stationary_distribution(mdp, pol)
        v = np.full(S, 1.0 / S)
        for _ in range(20000):
            nxt = v @ P
            if np.abs(nxt - v).max() < 1e-14:
                v = nxt
                break
            v = nxt
        stat_oracle = (v[:, None] * pol).ravel()
        worst_stat = max(worst_stat, float(np.abs(stat - stat_oracle).max()))
    assert worst_disc <= 1e-8
    assert worst_stat <= 1e-8
    elapsed = time.time() - t0
    _verdict(
        acceptance_line,
        2,
        f"100 MDPs, max discounted err {worst_disc:.1e}, max stationary err {worst_stat:.1e} (limit 1e-8)",
        elapsed,
        10.0,
    )


def test_criterion_3_best_response_matches_enumeration(acceptance_line):
    """The greedy solver's value matches exhaustive deterministic-policy
    enumeration to 1e-7 on dense random MDPs, both criteria."""
    t0 = time.time()
    rng = np.random.default_rng(161)
    tables = deterministic_action_tables(4, 3)
    worst = 0.0
    for k in range(50):
        mdp = random_mdp(rng, 4, 3, 2, discount=0.9)
        criterion = Criterion.AVERAGE if k % 2 == 0 else Criterion.DISCOUNTED
        best_enum = -np.inf
        for row in tables:
            pol = deterministic_policy(row, 3)
            best_enum = max(best_enum, policy_value(mdp, occupancy(mdp, pol, criterion)))
        br = best_response(mdp, mdp.reward[..., None], np.ones((1, 1)), criterion)[0][0]
        v_br = policy_value(mdp, occupancy(mdp, br, criterion))
        gap = abs(v_br - best_enum)
        worst = max(worst, gap)
        assert gap <= 1e-7, f"MDP {k} ({criterion}): |{v_br} - {best_enum}| = {gap:.2e}"
    elapsed = time.time() - t0
    _verdict(
        acceptance_line, 3, f"50 MDPs, max value gap {worst:.1e} (limit 1e-7)", elapsed, 30.0
    )


def _four_rooms_training_pieces():
    cfg = load_config(CONFIG_DIR / "four_rooms_qd.json")
    mdp, _ = cfg.environment.build()
    return cfg, mdp


def test_criterion_4_constraint_satisfaction_on_four_rooms(acceptance_line):
    """Adaptive-multiplier training keeps every member's exact value at or
    above alpha times the anchor's, to a 2% slack, on the committed grid."""
    t0 = time.time()
    cfg, mdp = _four_rooms_training_pieces()
    crit = cfg.trainer.exact.criterion
    violations = []
    worst_margin = np.inf
    for n in (5, 10):
        for alpha in (0.5, 0.7, 0.9):
            scfg = dataclasses.replace(cfg.strategy, alpha=alpha)
            # one cell's five seeds train in lockstep, each as it would alone
            runs = train_exact(mdp, n, cfg.diversity, scfg, cfg.trainer.exact, range(5))
            for seed, (pset, _) in enumerate(runs):
                values = np.array(
                    [policy_value(mdp, occupancy(mdp, p, crit)) for p in pset.policies]
                )
                anchor = values[0]
                floor = alpha * anchor - 0.02 * abs(anchor)
                margin = float((values - floor).min())
                worst_margin = min(worst_margin, margin)
                if np.any(values < floor):
                    violations.append((n, alpha, seed, values.min(), floor))
    assert not violations, f"constraint violations: {violations}"
    elapsed = time.time() - t0
    _verdict(
        acceptance_line,
        4,
        f"30 runs (n in 5,10 x alpha in 0.5,0.7,0.9 x 5 seeds), 0 violations, worst margin {worst_margin:.4f}",
        elapsed,
        300.0,
    )


def test_criterion_5_contact_distance_tracks_half_the_max_spread(acceptance_line):
    """With the contact kernel at half the enumerated maximum feature
    distance, the trained pair hovers within 15% of the target on 4/5 seeds."""
    t0 = time.time()
    cfg = load_config(CONFIG_DIR / "chain_vdw.json")
    mdp, _ = cfg.environment.build()
    crit = cfg.trainer.exact.criterion

    # enumerate the achievable spread: position features are scalar, so the
    # extreme expected features are themselves best-response values
    feat = mdp.features.ravel()
    hi, lo = best_response(mdp, feat.reshape(mdp.features_sa.shape), np.array([[1.0], [-1.0]]), crit)[0]
    psi_hi = expected_features(mdp, occupancy(mdp, hi, crit))[0]
    psi_lo = expected_features(mdp, occupancy(mdp, lo, crit))[0]
    max_spread = float(psi_hi - psi_lo)
    target = 0.5 * max_spread
    assert cfg.diversity.contact_distance == pytest.approx(target)

    hits = 0
    finals = []
    for spec in enumerate_runs(cfg):
        [(pset, _)] = train_exact(
            mdp, spec.set_size, cfg.diversity, cfg.strategy, cfg.trainer.exact, [spec.train_seed]
        )
        l = float(np.linalg.norm(pset.avg_psi[0] - pset.avg_psi[1]))
        finals.append(l)
        hits += abs(l - target) <= 0.15 * target
    assert len(finals) == 5
    assert hits >= 4, f"only {hits}/5 within 15% of {target}: {finals}"
    elapsed = time.time() - t0
    _verdict(
        acceptance_line,
        5,
        f"target {target:.2f}, finals {['%.3f' % l for l in finals]}, {hits}/5 within 15%",
        elapsed,
        120.0,
    )


def test_criterion_6_degenerate_strategies_recover_the_plain_optimum(acceptance_line):
    """Mixers configured to ignore diversity must reproduce the plain
    best-response value for every member, to 1e-6."""
    t0 = time.time()
    mdp = build_chain(5, end_reward=1.0)
    crit = Criterion.AVERAGE
    pi_star = best_response(mdp, mdp.reward[..., None], np.ones((1, 1)), crit)[0][0]
    vstar = policy_value(mdp, occupancy(mdp, pi_star, crit))
    strategies = [
        StrategyConfig(kind=StrategyKind.MULTI_OBJECTIVE, c_e=1.0),
        StrategyConfig(kind=StrategyKind.SMERL, c_d=0.0),
        StrategyConfig(kind=StrategyKind.NO_DIVERSITY),
    ]
    worst = 0.0
    for scfg in strategies:
        [(pset, _)] = train_exact(
            mdp,
            3,
            DiversityConfig(kind=DiversityKind.REPULSIVE),
            scfg,
            ExactTrainConfig(outer_iterations=50),
            [0],
        )
        values = [policy_value(mdp, occupancy(mdp, p, crit)) for p in pset.policies]
        gap = max(abs(v - vstar) for v in values)
        worst = max(worst, gap)
        assert gap <= 1e-6, f"{scfg.kind}: values {values} vs optimum {vstar}"
    elapsed = time.time() - t0
    _verdict(
        acceptance_line,
        6,
        f"3 degenerate mixers, max |value - optimum| {worst:.1e} (limit 1e-6)",
        elapsed,
        60.0,
    )


def test_criterion_7_multiplier_sign_dynamics(acceptance_line):
    """With frozen value estimates the multiplier moves exactly with
    sign(alpha * v1 - vi) for both optimizers, and the anchor never moves."""
    t0 = time.time()
    alpha, lr = 0.9, 0.05
    for optimizer in ("sgd", "adam"):
        pset = init_set(4, 2, 3, 2)
        pset.vstar_estimate = 1.0
        pset.avg_value[:] = [1.0, 0.8, 1.0, 1.2]
        mu_before = pset.mu.copy()
        if optimizer == "sgd":
            lagrange_step(pset, alpha, lr)
        else:
            lagrange_step_adam(pset, alpha, lr, AdamState.zeros(3))
        delta = pset.mu - mu_before
        expected_signs = np.sign(alpha * pset.vstar_estimate - pset.avg_value[1:])
        assert delta[0] == 0.0
        assert np.array_equal(np.sign(delta[1:]), expected_signs), optimizer
        if optimizer == "sgd":
            w = sigmoid(mu_before[1:])
            closed_form = lr * w * (1.0 - w) * (
                alpha * pset.vstar_estimate - pset.avg_value[1:]
            )
            np.testing.assert_allclose(delta[1:], closed_form, rtol=0, atol=1e-15)
    # projection: a huge step pins to the box, anchor still fixed
    pset = init_set(2, 2, 3, 2)
    pset.vstar_estimate = 1.0
    pset.avg_value[:] = [1.0, 0.0]
    lagrange_step(pset, 0.9, 1e9)
    assert pset.mu[1] == 4.0 and pset.mu[0] == 0.0
    elapsed = time.time() - t0
    _verdict(
        acceptance_line,
        7,
        "sign(delta mu) = sign(alpha v1 - vi) exactly, anchor pinned, box projection holds",
        elapsed,
        60.0,
    )


def test_criterion_8_diversity_falls_as_the_constraint_tightens(acceptance_line):
    """Trend check, warning-only: mean diversity at alpha=0.5 should be at
    least the mean at alpha=0.98. Known to admit exceptions, so a failure
    attaches the per-seed scatter to a warning instead of failing."""
    t0 = time.time()
    cfg, mdp = _four_rooms_training_pieces()
    means = {}
    scatter = {}
    for alpha in (0.5, 0.98):
        scfg = dataclasses.replace(cfg.strategy, alpha=alpha)
        runs = train_exact(mdp, 5, cfg.diversity, scfg, cfg.trainer.exact, range(5))
        finals = [trace[-1].diversity_mean for _, trace in runs]
        means[alpha] = float(np.mean(finals))
        scatter[alpha] = [round(f, 4) for f in finals]
    trend_holds = means[0.5] >= means[0.98]
    if not trend_holds:
        warnings.warn(
            "diversity-vs-alpha trend violated: "
            f"mean at alpha=0.5 is {means[0.5]:.4f} < {means[0.98]:.4f} at alpha=0.98; "
            f"scatter: {scatter}",
            stacklevel=1,
        )
    elapsed = time.time() - t0
    status = "trend holds" if trend_holds else "trend violated, warning issued"
    _verdict(
        acceptance_line,
        8,
        f"mean diversity {means[0.5]:.4f} (alpha 0.5) vs {means[0.98]:.4f} (alpha 0.98); {status}",
        elapsed,
        300.0,
    )


def test_criterion_9_selection_from_a_diverse_set_beats_one_policy(acceptance_line, tmp_path):
    """Few-shot selection from the trained set matches the single-policy
    baseline on the clean grid and beats it under growing action failure."""
    t0 = time.time()
    cfg = load_config(CONFIG_DIR / "four_rooms_kshot.json")
    cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
    path = run_kshot(cfg)
    with path.open() as f:
        rows = [r for r in csv.DictReader(f) if r["seed"] == "all" and r["method"] != "baseline"]
    ratios = {float(r["magnitude"]): float(r["ratio"]) for r in rows}
    assert set(ratios) == {0.0, 0.2, 0.4, 0.6}
    for mag, ratio in sorted(ratios.items()):
        assert ratio >= 1.0, f"ratio {ratio:.3f} < 1.0 at magnitude {mag}"
        if mag >= 0.4:
            assert ratio > 1.05, f"ratio {ratio:.3f} <= 1.05 at magnitude {mag}"
    elapsed = time.time() - t0
    pretty = ", ".join(f"{m:.1f}: {r:.3f}" for m, r in sorted(ratios.items()))
    _verdict(
        acceptance_line,
        9,
        f"mean ratios by failure magnitude {{{pretty}}} (need >= 1.0 all, > 1.05 at >= 0.4)",
        elapsed,
        900.0,
    )


def test_criterion_10_cli_outputs_are_byte_identical_on_rerun(acceptance_line, tmp_path, capsys):
    """Re-running every CLI command with the same config and master seed
    rewrites every CSV and SVG byte for byte."""
    t0 = time.time()
    chain_cfg = json.loads((CONFIG_DIR / "chain_vdw.json").read_text())
    kshot_cfg = {
        "master_seed": 424242,
        "output_dir": "",
        "environment": {"type": "chain", "length": 5, "end_reward": 1.0},
        "diversity": {"kind": "Repulsive", "contact_distance": 1.0},
        "strategy": {"kind": "DominoLagrangian", "alpha": 0.8},
        "trainer": {"mode": "exact", "outer_iterations": 5},
        "kshot": {
            "methods": [
                {"name": "pair", "strategy": {"kind": "DominoLagrangian", "alpha": 0.8}, "set_size": 2}
            ],
            "perturbations": [{"kind": "ActionFailure", "magnitudes": [0.0, 0.3]}],
            "k_select": 3,
            "n_eval": 5,
            "horizon": 12,
            "n_train_seeds": 2,
            "bootstrap_resamples": 50,
        },
    }

    def run_all(tag: str) -> dict[str, bytes]:
        root = tmp_path / tag
        for name, raw in (("chain", dict(chain_cfg)), ("kshot", dict(kshot_cfg))):
            raw["output_dir"] = str(root / name)
            cfg_path = tmp_path / f"{tag}_{name}.json"
            cfg_path.write_text(json.dumps(raw))
            assert main(["validate", str(cfg_path)]) == 0
            if name == "chain":
                assert main(["run", str(cfg_path)]) == 0
                assert main(["plot", str(root / name / "qd.csv"), str(root / name / "qd.svg")]) == 0
            else:
                assert main(["kshot", str(cfg_path)]) == 0
        capsys.readouterr()
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    first = run_all("a")
    second = run_all("b")
    assert first.keys() == second.keys()
    diffs = [k for k in first if first[k] != second[k]]
    assert not diffs, f"outputs differ on rerun: {diffs}"
    # the chain run also reproduces the committed golden outputs (the plot
    # is not committed)
    golden_root = CONFIG_DIR.parent / "results" / "chain_vdw"
    golden = {
        f"chain/{p.relative_to(golden_root)}": p.read_bytes()
        for p in sorted(golden_root.rglob("*"))
        if p.is_file()
    }
    produced = {k: v for k, v in first.items() if k.startswith("chain/") and k != "chain/qd.svg"}
    assert produced.keys() == golden.keys()
    stale = [k for k in golden if produced[k] != golden[k]]
    assert not stale, f"chain outputs differ from results/chain_vdw: {stale}"
    n_files = len(first)
    elapsed = time.time() - t0
    _verdict(
        acceptance_line,
        10,
        f"validate/run/plot/kshot re-run, {n_files} output files byte-identical",
        elapsed,
        300.0,
    )


def test_criterion_11_sampled_training_agrees_with_exact(acceptance_line):
    """The sample-based trainer's final feature separation lands within 10%
    of the exact solver's on the same dense MDP for at least 4/5 seeds."""
    t0 = time.time()
    mdp = random_mdp(np.random.default_rng(42), 4, 3, 2, discount=0.95)
    dcfg = DiversityConfig(kind=DiversityKind.REPULSIVE)
    scfg = StrategyConfig(kind=StrategyKind.DOMINO_LAGRANGIAN, alpha=0.9)
    [(exact_set, _)] = train_exact(mdp, 2, dcfg, scfg, ExactTrainConfig(outer_iterations=300), [0])
    ref = float(np.linalg.norm(exact_set.avg_psi[0] - exact_set.avg_psi[1]))
    assert ref > 0.0
    hits = 0
    rels = []
    cfg = SampleTrainConfig(
        total_episodes=6000, episode_length=200, lagrange_lr=0.02, entropy_weight=0.003
    )
    # the 5 seeds train in one lockstep call, each with the bytes it gets alone
    for pset, _ in train_sampled(mdp, 2, dcfg, scfg, cfg, range(5)):
        l = float(np.linalg.norm(pset.avg_psi[0] - pset.avg_psi[1]))
        rel = abs(l - ref) / ref
        rels.append(rel)
        hits += rel <= 0.10
    assert hits >= 4, f"only {hits}/5 within 10% of {ref:.4f}: rel errors {rels}"
    elapsed = time.time() - t0
    _verdict(
        acceptance_line,
        11,
        f"exact separation {ref:.4f}, rel errors {['%.3f' % r for r in rels]}, {hits}/5 within 10%",
        elapsed,
        300.0,
    )
