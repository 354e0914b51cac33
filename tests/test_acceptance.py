"""Acceptance gate: every criterion prints one pass/fail line and asserts.

Criteria 3 and 4 run on the shared 20-instance batch (same instances, same
200-policy samples) and criteria 5 and 6 on the fixed calibrated instance
described by scripts/acceptance_config.json.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import is_member, random_tabular_mdp
from skiprl import harness
from skiprl.envs import fit_policy_stack
from skiprl.harness import ExperimentConfig, emit_plots, load_dataset, save_dataset, sweep
from skiprl.learner import (
    build_confidence_sets,
    clipped_v,
    lstsq_anchor,
    serialize_outcome,
    skip_optimal_policy,
    solve,
    stage_covariance,
)
from skiprl.mdp import (
    count_deterministic_policies,
    mix_policies,
    occupancy,
    random_policy,
    sample_trajectories,
    uniform_policy,
)
from skiprl.oracles import (
    check_elliptical_potential,
    check_lsq_decomposition,
    check_perf_diff,
    check_projection_bound,
    check_range_bound,
    check_skip_realizability,
    concentrability,
    concentrability_by_enumeration,
)

CONFIG_PATH = Path(__file__).resolve().parent.parent / "scripts" / "acceptance_config.json"
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "acceptance"


def report(number, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def acceptance_config() -> ExperimentConfig:
    return ExperimentConfig.from_json(CONFIG_PATH.read_text())


@pytest.fixture(scope="module")
def acceptance_instance(acceptance_config):
    return harness.build_instance(acceptance_config)


def test_criterion_1_lemma_suite():
    t0 = time.perf_counter()
    slacks = {
        "lsq-decomposition": check_lsq_decomposition(seed=0, draws=100),
        "elliptical-potential": check_elliptical_potential(seed=0, draws=100),
        "projection-bound": check_projection_bound(seed=0, draws=100),
    }
    elapsed = time.perf_counter() - t0
    ok = all(s >= -1e-9 for s in slacks.values()) and elapsed < 10.0
    detail = ", ".join(f"{k} slack {v:.3e}" for k, v in slacks.items()) + f"; {elapsed:.2f}s"
    report(1, "lemma-suite", ok, detail)


def test_criterion_2_exact_identities(acceptance_instance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_pd = 0.0
    worst_occ = 0.0
    for _ in range(50):
        mdp = random_tabular_mdp(rng, max_states=5, max_actions=3)
        pa, pb = random_policy(mdp, rng), random_policy(mdp, rng)
        worst_pd = max(worst_pd, check_perf_diff(mdp, pa, pb))
        for table in occupancy(mdp, pa).nu:
            worst_occ = max(worst_occ, abs(float(table.sum()) - 1.0))

    inst = acceptance_instance
    ds = sample_trajectories(inst.mdp, inst.behavior, 400, [55, 0], inst.featmap)
    lc = ExperimentConfig.from_json(CONFIG_PATH.read_text()).learn
    worst_anchor = 0.0
    H = inst.mdp.horizon
    for h in range(H):
        tail = rng.normal(scale=0.3, size=(H - h, 2))
        tail[-1] = 0.0
        anchor = lstsq_anchor(ds, h, inst.true_guess, tail, lc)
        from skiprl.skipping import batch_skip_targets, dataset_omega

        omega = dataset_omega(ds, inst.true_guess, harness.SkipParams(lc.alpha))
        fvals = np.zeros((ds.n, H - h))
        for i, u in enumerate(range(h + 1, H)):
            fvals[:, i] = np.clip((ds.features[:, u] @ tail[i]).max(axis=1), 0.0, H)
        targets = batch_skip_targets(ds.rewards, omega, fvals, h)
        phi = stage_covariance(ds, h, lc.lam).phi
        aug = np.vstack([phi, np.sqrt(lc.lam) * np.eye(2)])
        oracle, *_ = np.linalg.lstsq(aug, np.concatenate([targets, np.zeros(2)]), rcond=None)
        worst_anchor = max(worst_anchor, float(np.abs(anchor - oracle).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_pd <= 1e-10 and worst_occ <= 1e-10 and worst_anchor <= 1e-10 and elapsed < 10.0
    report(
        2,
        "exact-identities",
        ok,
        f"perf-diff {worst_pd:.2e}, occupancy {worst_occ:.2e}, anchor-vs-ridge {worst_anchor:.2e}; {elapsed:.2f}s",
    )


def test_criterion_3_skip_realizability(small_linear_batch):
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for mdp, featmap, _, guess in small_linear_batch:
        behavior = uniform_policy(mdp)
        params = harness.SkipParams(alpha=0.2)
        for _ in range(5):
            theta = rng.normal(size=featmap.d)

            def f(stage, state, _theta=theta):
                return clipped_v(_theta, featmap, stage, state)

            for h in range(mdp.horizon):
                worst = max(worst, check_skip_realizability(mdp, featmap, guess, behavior, f, h, params))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 300.0
    report(3, "skip-realizability", ok, f"sup residual {worst:.3e} over 20 instances x 5 thetas; {elapsed:.1f}s")


def test_criterion_4_range_bound(small_linear_batch):
    t0 = time.perf_counter()
    worst = float("inf")
    for mdp, featmap, fit, guess in small_linear_batch:
        worst = min(worst, check_range_bound(mdp, featmap, guess, fit))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-6 and elapsed < 120.0
    report(4, "range-bound", ok, f"worst slack {worst:.3e} over 20 instances, 200 policies; {elapsed:.1f}s")


def test_criterion_5_membership_and_feasibility(acceptance_config, acceptance_instance):
    t0 = time.perf_counter()
    cfg, inst = acceptance_config, acceptance_instance
    n = 5000
    lc, cal = harness.calibrated_config(cfg, inst, n)
    skip = harness.SkipParams(lc.alpha)
    pistar_G, _ = skip_optimal_policy(inst.mdp, inst.featmap, inst.true_guess, inst.behavior, skip)
    psi = fit_policy_stack(inst.mdp, inst.featmap, [pistar_G]).theta[:, 0]
    H = inst.mdp.horizon
    extras = {h: psi[h][None, :] for h in range(H)}
    passes = 0
    for r in range(20):
        ds = sample_trajectories(inst.mdp, inst.behavior, n, [cfg.data.seed, r], inst.featmap)
        (sets,) = build_confidence_sets(ds, [inst.true_guess], lc, extra_candidates=extras)
        if sets.empty_stage is not None:
            continue
        member = all(is_member(sets, ds, h, psi[h], lc) for h in range(H))
        feasible = max(sets.tightness) <= lc.eps_bar + 1e-12
        passes += member and feasible
    elapsed = time.perf_counter() - t0
    ok = passes >= 18 and elapsed < 600.0
    report(
        5,
        "membership-and-feasibility",
        ok,
        f"{passes}/20 seeds pass (beta {cal['beta']:.4g}, eps_bar {cal['eps_bar']:.4g}); {elapsed:.1f}s",
    )


def test_criterion_6_end_to_end_trend(acceptance_config, acceptance_instance, tmp_path):
    t0 = time.perf_counter()
    cfg = acceptance_config
    result = sweep(cfg)
    emit_plots(result, tmp_path / "acceptance")
    medians = {row["n"]: row["median_gap"] for row in result.summary}
    ns = sorted(medians)
    vstar = acceptance_instance.vstar
    non_increasing = all(medians[a] >= medians[b] - 1e-12 for a, b in zip(ns, ns[1:]))
    final_ok = medians[ns[-1]] <= 0.15 * vstar
    elapsed = time.perf_counter() - t0
    ok = non_increasing and final_ok and elapsed < 1800.0
    detail = (
        f"medians {[round(medians[n], 5) for n in ns]} over n={ns}, v* {vstar:.4f}, "
        f"threshold {0.15 * vstar:.4f}; {elapsed:.1f}s"
    )
    report(6, "end-to-end-trend", ok, detail)


def test_committed_calibrations_reproduce(acceptance_config, acceptance_instance):
    # rows.csv digests never see beta or eps_bar, so the committed run_meta.json is checked on its own
    meta = json.loads((RESULTS_DIR / "run_meta.json").read_text())
    cfg = acceptance_config
    configs = harness.calibrated_configs(cfg, acceptance_instance, cfg.sweep.n_values)
    got = {str(n): cal for n, (_, cal) in zip(cfg.sweep.n_values, configs)}
    assert got == meta["calibrations"]


def test_criterion_7_concentrability_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    done = 0
    while done < 10:
        mdp = random_tabular_mdp(rng, max_states=3, max_actions=2)
        if count_deterministic_policies(mdp) > 4096:
            continue
        behavior = mix_policies(uniform_policy(mdp), random_policy(mdp, rng), 0.3)
        dp = concentrability(mdp, behavior).c_conc
        brute = concentrability_by_enumeration(mdp, behavior)
        worst = max(worst, abs(dp - brute))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    report(7, "concentrability-oracle", ok, f"worst |DP - enumeration| {worst:.2e} on 10 instances; {elapsed:.1f}s")


def test_criterion_8_determinism_and_persistence(tmp_path):
    t0 = time.perf_counter()
    doc = json.loads(CONFIG_PATH.read_text())
    doc["data"]["n"] = 150
    doc["sweep"] = {"n_values": [150], "replicates": 2}
    doc["calibration"]["replicates"] = 3
    doc["guesses"]["count"] = 4
    cfg = ExperimentConfig.from_dict(doc)

    # repeated runs: byte-identical except the wall-time column
    a, b = sweep(cfg), sweep(cfg)
    pa, pb = tmp_path / "a", tmp_path / "b"
    emit_plots(a, pa)
    emit_plots(b, pb)

    def mask(text):
        lines = text.splitlines()
        return [lines[0]] + [",".join(l.split(",")[:-1]) for l in lines[1:]]

    rows_same = mask((pa / "rows.csv").read_text()) == mask((pb / "rows.csv").read_text())
    summary_same = (pa / "summary.csv").read_bytes() == (pb / "summary.csv").read_bytes()
    meta_same = (pa / "run_meta.json").read_bytes() == (pb / "run_meta.json").read_bytes()

    inst = harness.build_instance(cfg)
    lc, _ = harness.calibrated_config(cfg, inst, 150)
    ds = harness.collect(inst, 150, [cfg.data.seed, 0])
    out_a = serialize_outcome(solve(ds, inst.guesses, lc, inst.featmap))
    out_b = serialize_outcome(solve(ds, inst.guesses, lc, inst.featmap))

    # dataset persistence: lossless round-trip
    path = tmp_path / "data.npz"
    save_dataset(ds, path)
    back = load_dataset(path)
    lossless = (
        np.array_equal(back.states, ds.states)
        and np.array_equal(back.actions, ds.actions)
        and np.array_equal(back.rewards, ds.rewards)
        and np.array_equal(back.features, ds.features)
    )
    elapsed = time.perf_counter() - t0
    ok = rows_same and summary_same and meta_same and out_a == out_b and lossless and elapsed < 60.0
    report(
        8,
        "determinism-and-persistence",
        ok,
        f"rows {rows_same}, summary {summary_same}, meta {meta_same}, outcome {out_a == out_b}, "
        f"dataset lossless {lossless}; {elapsed:.1f}s",
    )
