import itertools
import json
import math
import re
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import anchor_distance, dense_dataset, is_member
from skiprl import learner, mdp as mdp_module
from skiprl.harness import ExperimentConfig, build_instance, collect, load_dataset, save_dataset
from skiprl.design import Guess, build_true_guess, guess_grid, panel_size, zero_guess
from skiprl.envs import FeatureMap, fit_policy_stack, random_linear_mdp, sample_policies
from skiprl.learner import (
    CalibrationResult,
    LearnerConfig,
    _admitted,
    _anchor_distance,
    _clipped_vbar_rows,
    _dedupe_rows,
    _net,
    _own_tail_distance,
    _tail_combos,
    build_confidence_sets,
    calibrate,
    clipped_v,
    greedy_policy,
    lstsq_anchor,
    serialize_outcome,
    skip_optimal_policy,
    solve,
    stage_covariance,
    tightness,
)
from skiprl.mdp import REWARD_KINDS, ValidationError, evaluate_policy, sample_trajectories, uniform_policy
from skiprl.oracles import check_skip_realizability, guess_range, skip_probability
from skiprl.skipping import SkipParams, dataset_omega, omega_tables, stop_probabilities


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def setup(fixed_instance):
    mdp, fm = fixed_instance
    behavior = uniform_policy(mdp)
    policies = sample_policies(mdp, 120, 5)
    guess = build_true_guess(mdp, fm, policies)
    config = LearnerConfig(lam=1.0, beta=5.0, eps_bar=1.0, theta_radius=100.0, alpha=0.2, seed=0)
    ds = sample_trajectories(mdp, behavior, 600, [3000, 0], fm)
    return mdp, fm, behavior, guess, config, ds


class TestClippedEstimators:
    def test_zero_theta(self, setup):
        _, fm, *_ = setup
        theta = np.zeros(2)
        assert np.clip(fm.phi[1][0, 0] @ theta, 0.0, fm.horizon) == 0.0
        assert clipped_v(theta, fm, 1, 0) == 0.0

    def test_clip_upper(self, setup):
        mdp, fm, *_ = setup
        theta = np.full(2, 50.0)  # simplex features: inner product is 50 > H
        assert np.clip(fm.phi[1][0, 0] @ theta, 0.0, mdp.horizon) == mdp.horizon
        assert clipped_v(theta, fm, 1, 0) == mdp.horizon

    def test_v_is_max_q_inside_range(self, setup):
        mdp, fm, *_ = setup
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.normal(scale=0.5, size=2)
            for stage in range(mdp.horizon):
                for s in range(mdp.stage_sizes[stage]):
                    raw = fm.phi[stage][s] @ theta
                    if 0.0 <= raw.max() <= mdp.horizon:
                        qmax = np.clip(fm.phi[stage][s] @ theta, 0.0, mdp.horizon).max()
                        assert clipped_v(theta, fm, stage, s) == pytest.approx(qmax, abs=1e-12)


class TestStageCovariance:
    def test_zero_features_lambda_identity(self, setup):
        *_, ds = setup
        blank = dense_dataset(ds.states, ds.actions, ds.rewards, np.zeros_like(ds.features))
        cov = stage_covariance(blank, 0, 0.7)
        np.testing.assert_allclose(cov.matrix, 0.7 * np.eye(2), atol=1e-15)

    def test_single_basis_vector(self, setup):
        *_, ds = setup
        feats = np.zeros_like(ds.features[:1])
        feats[0, :, :, 0] = 1.0
        one = dense_dataset(ds.states[:1], ds.actions[:1], ds.rewards[:1], feats)
        cov = stage_covariance(one, 1, 0.5)
        expect = 0.5 * np.eye(2)
        expect[0, 0] += 1.0
        np.testing.assert_allclose(cov.matrix, expect, atol=1e-15)

    def test_eigenvalues_at_least_lambda(self, setup):
        *_, ds = setup
        for h in range(3):
            cov = stage_covariance(ds, h, 0.3)
            assert np.linalg.eigvalsh(cov.matrix).min() >= 0.3 - 1e-9

    @staticmethod
    def assert_phi_is_the_taken_features(ds):
        # phi is gathered from the distinct blocks; it must be the fancy index of the
        # taken actions' features byte for byte
        for h in range(ds.horizon):
            want = ds.features[np.arange(ds.n), h, ds.actions[:, h]]
            assert stage_covariance(ds, h, 1.0).phi.tobytes() == want.tobytes()

    def test_phi_gathers_the_taken_features(self, setup):
        self.assert_phi_is_the_taken_features(setup[5])

    @given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([1, 2, 3, 40, 200]))
    @settings(max_examples=40, deadline=None)
    def test_phi_gathers_the_taken_features_of_hand_built_data(self, seed, n):
        # features not a function of the state, -0.0/0.0 twins and A = 1 stages
        rng = np.random.default_rng(seed)
        d, H, A = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        self.assert_phi_is_the_taken_features(hand_built_dataset(rng, n, H, A, d))


class TestAnchor:
    def test_zero_data_zero_anchor(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        zero_mdp, zero_fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=10, reward_scale=0.0)
        ds = sample_trajectories(zero_mdp, uniform_policy(zero_mdp), 50, 1, zero_fm)
        tail = np.zeros((3, 2))
        anchor = lstsq_anchor(ds, 0, zero_guess(3, 2), tail, config)
        np.testing.assert_allclose(anchor, 0.0, atol=1e-12)

    def test_last_stage_targets_are_rewards(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        h = mdp.horizon - 1
        anchor = lstsq_anchor(ds, h, guess, np.zeros((1, 2)), config)
        phi = stage_covariance(ds, h, config.lam).phi
        rewards = ds.rewards[:, h]
        expect = np.linalg.solve(config.lam * np.eye(2) + phi.T @ phi, phi.T @ rewards)
        np.testing.assert_allclose(anchor, expect, atol=1e-12)

    def test_matches_independent_ridge_solver(self, setup):
        # oracle: minimum of the augmented least-squares system [Phi; sqrt(lam) I]
        mdp, fm, behavior, guess, config, ds = setup
        rng = np.random.default_rng(3)
        H = mdp.horizon
        for h in range(H):
            tail = rng.normal(scale=0.4, size=(H - h, 2))
            tail[-1] = 0.0
            anchor = lstsq_anchor(ds, h, guess, tail, config)
            from skiprl.skipping import batch_skip_targets, dataset_omega

            omega = dataset_omega(ds, guess, SkipParams(config.alpha))
            fvals = np.zeros((ds.n, H - h))
            for i, u in enumerate(range(h + 1, H)):
                fvals[:, i] = np.clip((ds.features[:, u] @ tail[i]).max(axis=1), 0.0, H)
            targets = batch_skip_targets(ds.rewards, omega, fvals, h)
            phi = stage_covariance(ds, h, config.lam).phi
            aug_A = np.vstack([phi, np.sqrt(config.lam) * np.eye(2)])
            aug_y = np.concatenate([targets, np.zeros(2)])
            oracle, *_ = np.linalg.lstsq(aug_A, aug_y, rcond=None)
            np.testing.assert_allclose(anchor, oracle, atol=1e-10)

    def test_tail_shape_checked(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        with pytest.raises(ValidationError):
            lstsq_anchor(ds, 0, guess, np.zeros((1, 2)), config)


class TestConfidenceSets:
    def test_terminal_stage_is_zero_singleton(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        (sets,) = build_confidence_sets(ds, [guess], config)
        np.testing.assert_array_equal(sets.members_at(mdp.horizon), np.zeros((1, 2)))

    def test_anchors_are_members(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        (sets,) = build_confidence_sets(ds, [guess], config)
        for h in range(mdp.horizon):
            for anchor in sets.stage_sets[h].anchors:
                assert is_member(sets, ds, h, anchor, config)
                assert anchor_distance(sets, ds, h, anchor, config.lam) <= 1e-9

    def test_tiny_radius_gives_empty_signal(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        strict = replace(config, theta_radius=1e-9)
        (sets,) = build_confidence_sets(ds, [guess], strict)
        assert sets.empty_stage is not None
        with pytest.raises(ValidationError):
            sets.members_at(0)

    def test_extras_join_when_close(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        pistar, _ = skip_optimal_policy(mdp, fm, guess, behavior, SkipParams(config.alpha))
        psi = fit_policy_stack(mdp, fm, [pistar]).theta[:, 0]
        extras = {h: psi[h][None, :] for h in range(mdp.horizon)}
        (sets,) = build_confidence_sets(ds, [guess], config, extra_candidates=extras)
        for h in range(mdp.horizon):
            assert sets.empty_stage is None
            if is_member(sets, ds, h, psi[h], config):
                members = sets.members_at(h)
                assert np.min(np.linalg.norm(members - psi[h], axis=1)) <= 1e-12

    def test_net_points_enter_pool(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        netted = replace(config, net_spacing=1.0, theta_radius=2.0, beta=1e9, grid_per_stage=40)
        (sets,) = build_confidence_sets(ds, [guess], netted)
        assert sets.members_at(0).shape[0] > sets.stage_sets[0].anchors.shape[0]

    def test_subsampled_combos_deterministic(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        cfg = replace(config, net_spacing=0.8, theta_radius=2.0, beta=1e9, grid_per_stage=12, combo_cap=5)
        (a,) = build_confidence_sets(ds, [guess], cfg)
        (b,) = build_confidence_sets(ds, [guess], cfg)
        for h in range(mdp.horizon):
            np.testing.assert_array_equal(a.stage_sets[h].anchors, b.stage_sets[h].anchors)
            np.testing.assert_array_equal(a.stage_sets[h].members, b.stage_sets[h].members)


class TestTightness:
    def test_singleton_zero(self, setup):
        *_, ds = setup
        assert tightness(stage_covariance(ds, 0, 1.0), np.zeros((1, 2)), ds.horizon) == 0.0

    def test_zero_and_saturating_theta(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        big = np.full((1, 2), 50.0)  # clips to H on every simplex feature
        val = tightness(stage_covariance(ds, 1, 1.0), np.vstack([np.zeros((1, 2)), big]), ds.horizon)
        assert val == pytest.approx(mdp.horizon, abs=1e-12)

    def test_bounds(self, setup):
        mdp, *_, ds = setup[0], *setup[1:]
        rng = np.random.default_rng(5)
        thetas = rng.normal(size=(6, 2))
        val = tightness(stage_covariance(setup[5], 2, 1.0), thetas, setup[5].horizon)
        assert 0.0 <= val <= setup[0].horizon

    @staticmethod
    def per_row(phi, thetas, horizon):
        """The per-row formula: every data row scored, ``np.clip(phi @ thetas.T)``."""
        scores = np.clip(phi @ thetas.T, 0.0, horizon)
        return float(np.mean(scores.max(axis=1) - scores.min(axis=1)))

    @given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([1, 2, 3, 40, 200]))
    @settings(max_examples=60, deadline=None)
    def test_block_coded_equals_per_row(self, seed, n):
        # features not a function of the state, -0.0/0.0 twins, A = 1 stages with a
        # single (block, action) row, and one-row datasets
        rng = np.random.default_rng(seed)
        d, H, A = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        ds = hand_built_dataset(rng, n, H, A, d)
        for h in range(H):
            cov = stage_covariance(ds, h, 1.0)
            assert cov.pairs[cov.codes].tobytes() == cov.phi.tobytes()
            assert (cov.pairs.shape[0] == 1) == (n == 1)
            for k in (1, 2, 5):
                thetas = rng.normal(scale=float(rng.choice([0.3, 3.0, 30.0])), size=(k, d))
                got, want = tightness(cov, thetas, H), self.per_row(cov.phi, thetas, H)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestStackedKernels:
    """The chain's start values are a stacked kernel and must equal the per-member
    numpy call it replaced bit for bit; the anchor distance must keep the bits of
    its one-einsum reference over every shape."""

    @staticmethod
    def assert_distance_is_einsums(anchors, matrix, thetas):
        got = _anchor_distance(anchors, matrix, thetas)
        assert got.tobytes() == einsum_distance(anchors, matrix, thetas).tobytes()

    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 6),
        m=st.integers(1, 8),
        rows=st.sampled_from(["one", "two", "three", "many", "many+1", "2 many+3"]),
        zeros=st.sampled_from(["none", "anchor rows", "coordinates", "signed"]),
        sign=st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_anchor_distance_matches_einsum(self, seed, d, m, rows, zeros, sign):
        rng = np.random.default_rng(seed)
        many = 188  # the pool size of a netted-sets stage set
        p = {"one": 1, "two": 2, "three": 3, "many": many, "many+1": many + 1, "2 many+3": 2 * many + 3}[rows]
        scale = 10.0 ** rng.uniform(-2, 2)
        anchors = rng.normal(scale=scale, size=(m, d))
        thetas = rng.normal(scale=scale, size=(p, d))
        if zeros == "anchor rows":  # rows equal to an anchor: every diff of the pair is 0.0
            pick = rng.random(p) < 0.5
            thetas[pick] = anchors[rng.integers(0, m, size=int(pick.sum()))]
        elif zeros == "coordinates":  # exact-zero diffs in some coordinates
            cols = rng.random(d) < 0.5
            thetas[:, cols] = anchors[0, cols]
        elif zeros == "signed":  # -0.0 - 0.0 is a -0.0 diff
            anchors[rng.random((m, d)) < 0.5] = 0.0
            thetas[rng.random((p, d)) < 0.5] = -0.0
        phi = rng.normal(scale=scale, size=(5, d))
        # X_h is positive definite; a negated one gives -0.0 terms, which einsum adds onto +0.0
        matrix = sign * (float(rng.choice([1e-2, 1.0])) * np.eye(d) + phi.T @ phi)
        self.assert_distance_is_einsums(anchors, matrix, thetas)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_anchor_distance_of_small_outputs_matches_einsum(self, d):
        # einsum adds a one- or two-element output's terms in its own order at d = 2
        rng = np.random.default_rng(d)
        for p, m in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (511, 1), (256, 2)] * 25:
            anchors, thetas = rng.normal(size=(m, d)), rng.normal(size=(p, d))
            phi = rng.normal(size=(5, d))
            self.assert_distance_is_einsums(anchors, np.eye(d) + phi.T @ phi, thetas)

    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 12), ties=st.sampled_from(["none", "repeated", "clipped"]))
    @settings(max_examples=100, deadline=None)
    def test_chain_matches_per_member_start_value(self, seed, k, ties):
        rng = np.random.default_rng(seed)
        d, A, H = int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        phi = [rng.dirichlet(np.ones(d), size=(1 if h == 0 else 2, A)) for h in range(H)]
        fm = FeatureMap(d=d, phi=[*phi, np.zeros((1, A, d))], l1_bound=1.0)
        scale = 1e3 if ties == "clipped" else float(rng.choice([0.3, 3.0, 30.0]))  # clipped: values tie at 0 or H
        members = [rng.normal(scale=scale, size=(k if h == 0 else 2, d)) for h in range(H)]
        if ties == "repeated":
            members[0] = members[0][rng.integers(0, (k + 1) // 2, size=k)]
        stage_sets = [
            learner.StageSets(anchors=mem[:1], members=mem, combos=1, subsampled=False, tails=1) for mem in members
        ]
        sets = learner.ConfidenceSets(horizon=H, dim=d, stage_sets=stage_sets, tightness=[0.0] * H)
        vals = [clipped_v(theta, fm, 0, 0) for theta in members[0]]
        best = int(np.argmax(vals))
        thetas, vbar = learner._chain_from(sets, fm)
        assert type(vbar) is float and vbar == vals[best]
        assert thetas[0].tobytes() == members[0][best].tobytes()
        assert all(thetas[h].tobytes() == members[h][0].tobytes() for h in range(1, H))
        assert not thetas[H].any()


class TestSolve:
    def test_single_feasible_guess(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        out = solve(ds, [guess], config, fm)
        assert out.chosen_guess == 0 and not out.all_rejected

    def test_zero_reward_env(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=10, reward_scale=0.0)
        behavior = uniform_policy(mdp)
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
        ds = sample_trajectories(mdp, behavior, 100, 4, fm)
        config = LearnerConfig(lam=1.0, beta=5.0, eps_bar=1.0, theta_radius=10.0, alpha=0.2)
        out = solve(ds, [guess], config, fm)
        assert out.vbar_start == pytest.approx(0.0, abs=1e-9)

    def test_argmax_dominance(self, setup):
        # the chosen start value dominates every member of every feasible guess
        mdp, fm, behavior, guess, config, ds = setup
        guesses = guess_grid(guess, 0.3, 6, seed=2)
        out = solve(ds, guesses, config, fm)
        for report in out.reports:
            if not report.feasible:
                continue
            for theta in report.sets.members_at(0):
                assert out.vbar_start >= clipped_v(theta, fm, 0, 0) - 1e-9

    def test_optimism_against_skip_optimal_parameter(self, setup):
        # when psi_1(pi*_G) enters the candidate sets, the optimistic value dominates it
        mdp, fm, behavior, guess, config, ds = setup
        pistar, _ = skip_optimal_policy(mdp, fm, guess, behavior, SkipParams(config.alpha))
        psi = fit_policy_stack(mdp, fm, [pistar]).theta[:, 0]
        extras = {h: psi[h][None, :] for h in range(mdp.horizon)}
        (sets,) = build_confidence_sets(ds, [guess], config, extra_candidates=extras)
        assert is_member(sets, ds, 0, psi[0], config)
        vals = [clipped_v(t, fm, 0, 0) for t in sets.members_at(0)]
        assert max(vals) >= clipped_v(psi[0], fm, 0, 0) - 1e-9

    def test_vbar_matches_reevaluation(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        out = solve(ds, [guess], config, fm)
        assert out.vbar_start == pytest.approx(clipped_v(out.thetas[0], fm, 0, 0), abs=1e-12)

    def test_all_rejected_reports_and_falls_back(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        # force multi-member sets via a coarse net, then make the threshold unreachable
        cfg = replace(
            config, net_spacing=0.7, theta_radius=2.0, beta=1e9, grid_per_stage=30, eps_bar=1e-9
        )
        out = solve(ds, [guess], cfg, fm)
        assert out.all_rejected and json.loads(serialize_outcome(out))["fallback_used"]
        assert out.reports[0].tightness  # per-guess tightness values still reported
        assert out.policy is not None

    @pytest.mark.parametrize("net_spacing", [None, 0.5])
    def test_all_empty_falls_back_to_guess_zero(self, setup, net_spacing):
        # every guess empties stage H-1, so guess 0 is rebuilt with
        # beta = theta_radius = inf; its chain is the own-tail anchor chain.
        # With a net, the net of the configured 1e-9 ball (the origin) joins
        # every pool and ranks behind the anchor.
        mdp, fm, behavior, guess, config, ds = setup
        cfg = replace(config, theta_radius=1e-9, net_spacing=net_spacing)
        guesses = guess_grid(guess, 0.3, 4, seed=2)
        out = solve(ds, guesses, cfg, fm)
        H = mdp.horizon
        assert all(r.empty_stage == H - 1 for r in out.reports)
        assert out.all_rejected and json.loads(serialize_outcome(out))["fallback_used"] and out.chosen_guess == 0
        assert out.tightness_max == float("inf")
        for h in range(H):
            anchor = lstsq_anchor(ds, h, guesses[0], out.thetas[h + 1 :], cfg)
            np.testing.assert_allclose(out.thetas[h], anchor, rtol=0, atol=1e-12)

    def test_deterministic_serialization(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        guesses = guess_grid(guess, 0.3, 5, seed=3)
        a = serialize_outcome(solve(ds, guesses, config, fm))
        b = serialize_outcome(solve(ds, guesses, config, fm))
        assert a == b

    @pytest.mark.parametrize("net_spacing, theta_radius", [(0.8, 2.0), (None, 1e-9)])
    def test_diagnostics_leave_the_other_keys_unchanged(self, setup, net_spacing, theta_radius):
        # multi-member sets with subsampled combos, or every guess empty at stage H-1
        mdp, fm, behavior, guess, config, ds = setup
        cfg = replace(config, net_spacing=net_spacing, theta_radius=theta_radius, beta=1e9, grid_per_stage=12,
                      combo_cap=5)
        out = solve(ds, guess_grid(guess, 0.3, 4, seed=2), cfg, fm)
        text = serialize_outcome(out)
        diag = json.loads(text)["diagnostics"]
        assert text.replace(f'"diagnostics": {json.dumps(diag, sort_keys=True)}, ', "") == serialize_before_diagnostics(out)
        assert [entry["index"] for entry in diag] == [r.index for r in out.reports]
        for entry, report in zip(diag, out.reports):
            for h, (stage, sets) in enumerate(zip(entry["stages"], report.sets.stage_sets)):
                if sets is None:
                    assert stage is None and h < report.empty_stage
                    continue
                assert stage == {"anchors": len(sets.anchors), "members": len(sets.members), "combos": sets.combos,
                                 "subsampled": sets.subsampled, "tails": len(ds.tail_paths[h][0])}
        stages = [stage for entry in diag for stage in entry["stages"] if stage is not None]
        assert any(stage["subsampled"] for stage in stages) == (net_spacing is not None)
        assert all(r.empty_stage == (None if net_spacing else mdp.horizon - 1) for r in out.reports)

    def test_greedy_ties_break_low(self, setup):
        mdp, fm, *_ = setup
        pi = greedy_policy(fm, np.zeros((4, 2)))
        for table in pi.tables:
            assert np.all(np.argmax(table, axis=1) == 0)


class TestSkipOptimalPolicy:
    def test_consistent_with_its_own_evaluation(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        pistar, vals = skip_optimal_policy(mdp, fm, guess, behavior, SkipParams(config.alpha))
        again = evaluate_policy(mdp, pistar)
        for h in range(mdp.horizon + 1):
            np.testing.assert_allclose(vals.v[h], again.v[h], atol=1e-12)

    def test_zero_guess_mixes_toward_behavior(self, setup):
        # zero guess: every interior range is 0, so omega = 1 and the policy
        # follows the behavior policy at interior stages
        mdp, fm, behavior, _, config, _ = setup
        pistar, _ = skip_optimal_policy(mdp, fm, zero_guess(mdp.horizon, 2), behavior, SkipParams(config.alpha))
        for h in range(1, mdp.horizon):
            np.testing.assert_allclose(pistar.tables[h], behavior.tables[h], atol=1e-12)

    def test_greedy_at_start(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        pistar, vals = skip_optimal_policy(mdp, fm, guess, behavior, SkipParams(config.alpha))
        assert pistar.tables[0][0].max() == 1.0


class TestVisitedBlocksShared:
    """Every guess of a solve, and both calibration passes over a replicate, share
    one grouping of each stage's feature blocks and one of its trajectory tails;
    the sampler groups the blocks, and prefixes group nothing again."""

    @pytest.fixture
    def groupings(self, monkeypatch):
        """The grouping passes: the caller of each ``mdp._factorize`` pass (per
        stage one of the sampler's ``_sample`` and two of ``tail_paths``),
        and the length of each ``np.unique`` sort of feature-block byte keys."""
        calls = {"passes": [], "block_sorts": []}
        factorize, unique = mdp_module._factorize, np.unique

        def counting_factorize(codes, size):
            calls["passes"].append(sys._getframe(1).f_code.co_name)
            return factorize(codes, size)

        def counting_unique(ar, *args, **kwargs):
            if ar.dtype.kind == "V":
                calls["block_sorts"].append(len(ar))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(mdp_module, "_factorize", counting_factorize)
        monkeypatch.setattr(np, "unique", counting_unique)
        return calls

    def test_solve_groups_each_stage_once(self, setup, groupings):
        mdp, fm, behavior, guess, config, _ = setup
        passes = groupings["passes"]
        for count, seed in [(16, 1), (1, 2)]:
            passes.clear()
            ds = sample_trajectories(mdp, behavior, 300, [3000, seed], fm)
            guesses = guess_grid(guess, 0.3, count, seed=2)
            assert len(guesses) == count
            solve(ds, guesses, config, fm)
            assert passes.count("_sample") == ds.horizon
            assert passes.count("tail_paths") == 2 * ds.horizon
            assert len(passes) == 3 * ds.horizon
            assert ds.visited_blocks is ds.visited_blocks and ds.tail_paths is ds.tail_paths
            assert len(passes) == 3 * ds.horizon

    def test_calibrate_groups_each_replicate_once(self, setup, groupings):
        mdp, fm, behavior, guess, config, _ = setup
        passes = groupings["passes"]
        calibrate(mdp, fm, behavior, guess, [200], config, replicates=2, delta=0.5, seed=19)
        assert passes.count("_sample") == 2 * mdp.horizon
        assert passes.count("tail_paths") == 2 * 2 * mdp.horizon
        assert len(passes) == 6 * mdp.horizon

    def test_calibration_prefixes_group_nothing_again(self, setup, groupings):
        # the smaller n are prefixes of each replicate's sample at 200, and they give
        # the results of separate calibrations at each n
        mdp, fm, behavior, guess, config, _ = setup
        passes = groupings["passes"]
        grid = calibrate(mdp, fm, behavior, guess, [50, 200, 120], config, replicates=2, delta=0.5, seed=19)
        assert passes.count("_sample") == 2 * mdp.horizon
        assert passes.count("tail_paths") == 2 * 2 * mdp.horizon
        assert len(passes) == 6 * mdp.horizon
        for n, got in zip([50, 200, 120], grid):
            (want,) = calibrate(mdp, fm, behavior, guess, [n], config, replicates=2, delta=0.5, seed=19)
            assert (got.beta, got.eps_bar) == (want.beta, want.eps_bar)
            assert got.anchor_stats.tobytes() == want.anchor_stats.tobytes()
            assert got.tightness_values.tobytes() == want.tightness_values.tobytes()

    def test_only_the_fallback_sorts_every_row(self, setup, groupings, tmp_path):
        # the sampler sorts one block per visited state; dense features (the tests'
        # dense_dataset) sort all n rows' blocks once per stage, then of_blocks sorts the
        # distinct blocks to check their order; the archive stores the grouping, so
        # loading sorts only the distinct blocks
        mdp, fm, behavior, *_ = setup
        ds = sample_trajectories(mdp, behavior, 300, [3000, 3], fm)
        sorts = groupings["block_sorts"]
        assert len(sorts) == ds.horizon
        assert all(size <= k for size, k in zip(sorts, mdp.stage_sizes))
        feats = ds.features.copy()
        feats[::2, 1] = feats[::2, 1, ::-1]  # even rows swap the actions of their stage-1 block
        sorts.clear()
        swapped = dense_dataset(ds.states, ds.actions, ds.rewards, feats)
        assert sorts == [ds.n] * ds.horizon + [len(blocks) for blocks, _ in swapped.visited_blocks]
        save_dataset(swapped, tmp_path / "data.npz")
        sorts.clear()
        loaded = load_dataset(tmp_path / "data.npz")
        assert sorts == [len(blocks) for blocks, _ in loaded.visited_blocks]


def serialize_before_diagnostics(outcome):
    """``serialize_outcome`` as it was before the ``diagnostics`` key."""
    doc = {
        "chosen_guess": outcome.chosen_guess,
        "all_rejected": outcome.all_rejected,
        "fallback_used": outcome.all_rejected,
        "vbar_start": outcome.vbar_start,
        "thetas": outcome.thetas.tolist(),
        "per_guess": [
            {"index": r.index, "feasible": r.feasible, "empty_stage": r.empty_stage, "tightness": list(r.tightness)}
            for r in outcome.reports
        ],
        "policy": [t.tolist() for t in outcome.policy.tables],
    }
    return json.dumps(doc, sort_keys=True)


def einsum_distance(anchors, matrix, thetas):
    """The anchor distance as one three-operand ``np.einsum`` (the reference for
    ``learner._anchor_distance``)."""
    diffs = thetas[:, None, :] - anchors[None, :, :]
    quad = np.einsum("pmd,de,pme->pm", diffs, matrix, diffs)
    return np.sqrt(np.maximum(quad.min(axis=1), 0.0))


def reference_sets(dataset, guess, config, extra_candidates=None):
    """The construction before tail grouping, target terms, block-coded tightness and
    the keyed pool: each combo's targets are stacked and summed on all n rows, the
    anchors and the pool are deduplicated with ``np.unique`` and tightness scores
    every row.  Each stage's covariance comes from ``stage_covariance``.  Returns per stage ``(anchors, members)`` (None below an empty
    stage), the tightness list and the empty stage."""
    n, H, d = dataset.n, dataset.horizon, dataset.dim
    omega = dataset_omega(dataset, guess, SkipParams(config.alpha))
    net = _net(config, d)
    sets, tight = [None] * H, [None] * H
    vbar_rows = [None] * (H + 1)
    vbar_rows[H] = np.zeros((1, n))
    for h in range(H - 1, -1, -1):
        cov = stage_covariance(dataset, h, config.lam)
        counts = [vbar_rows[u].shape[0] for u in range(h + 1, H + 1)]
        picks = _tail_combos(counts, config.combo_cap, [config.seed, h])
        combos = list(itertools.product(*map(range, counts))) if picks is None else picks
        stop = stop_probabilities(omega[:, h + 1 : H + 1])
        cumrew = np.cumsum(dataset.rewards[:, h:H], axis=1)
        anchors = np.empty((len(combos), d))
        for ci, combo in enumerate(combos):
            fvals = np.stack([vbar_rows[u][c] for u, c in zip(range(h + 1, H + 1), combo)], axis=1)
            terms = stop * (cumrew + fvals)
            # np.sum adds up to 7 columns left to right from +0.0 and longer rows
            # pairwise; those are added left to right, as ``skip_target`` does
            targets = np.sum(terms, axis=1) if H - h <= 7 else sum(terms.T, np.zeros(n))
            anchors[ci] = cov.inv @ (cov.phi.T @ targets)
        anchors = dedupe_reference(anchors)
        pool = [anchors]
        if extra_candidates and h in extra_candidates:
            pool.append(np.asarray(extra_candidates[h], dtype=float).reshape(-1, d))
        if net is not None:
            pool.append(net)
        pool = dedupe_reference(np.vstack(pool))
        stats = einsum_distance(anchors, cov.matrix, pool)
        order = np.lexsort((np.arange(pool.shape[0]), stats))[: config.grid_per_stage]
        pool, stats = pool[order], stats[order]
        members = pool[_admitted(pool, stats, config)]
        sets[h] = (anchors, members)
        if members.shape[0] == 0:
            return sets, [], h
        scores = np.clip(cov.phi @ members.T, 0.0, H)
        tight[h] = float(np.mean(scores.max(axis=1) - scores.min(axis=1)))
        if h >= 1:
            vbar_rows[h] = _clipped_vbar_rows(dataset, h, members)
    return sets, tight, None


def random_guess(rng, H, d):
    scale = float(np.exp(rng.uniform(-3.0, 1.0)))
    panels = [rng.normal(scale=scale, size=(panel_size(d), d)) for _ in range(H - 1)]
    return Guess(horizon=H, panels=panels, radius_bound=1e9)


def hand_built_dataset(rng, n, H, A, d):
    """Rows whose features are drawn independently of the state, from a small pool of
    blocks or fresh, with rewards from a small pool that holds a -0.0/0.0 twin."""
    pool = rng.dirichlet(np.ones(d), size=(3, A))
    feats = rng.dirichlet(np.ones(d), size=(n, H, A))
    from_pool = rng.random((n, H)) < 0.8
    feats[from_pool] = pool[rng.integers(0, 3, size=int(from_pool.sum()))]
    states = np.zeros((n, H + 1), dtype=int)
    states[:, 1:H] = rng.integers(0, 2, size=(n, H - 1))
    actions = rng.integers(0, A, size=(n, H + 1))
    rewards = np.array([0.0, -0.0, 0.25, 1.0])[rng.integers(0, 4, size=(n, H + 1))]
    rewards[:, H] = 0.0
    return dense_dataset(states, actions, rewards, feats)


def assert_matches_reference(got, ds, guess, config, extras=None):
    """One guess's ``ConfidenceSets`` equal ``reference_sets`` bit for bit."""
    sets, tight, empty = reference_sets(ds, guess, config, extra_candidates=extras)
    assert got.empty_stage == empty
    assert np.array(got.tightness).tobytes() == np.array(tight).tobytes()
    for h, stage in enumerate(got.stage_sets):
        if sets[h] is None:
            assert stage is None
            continue
        assert stage.anchors.tobytes() == sets[h][0].tobytes()
        assert stage.members.tobytes() == sets[h][1].tobytes()
        assert stage.tails == len(ds.tail_paths[h][0])


class TestTailGrouping:
    """``build_confidence_sets`` scores each distinct trajectory tail once; its anchors,
    members and tightness must equal the all-rows construction bit for bit."""

    @staticmethod
    def check(ds, guess, config, extras=None):
        (got,) = build_confidence_sets(ds, [guess], config, extra_candidates=extras)
        assert_matches_reference(got, ds, guess, config, extras)
        return got

    @staticmethod
    def config_for(rng, d, H, multi, combo_cap):
        """Singleton sets, multi-member sets from a net or from extra candidates, or
        a ball too small for any anchor."""
        base = LearnerConfig(lam=float(rng.uniform(0.1, 2.0)), beta=1e9, eps_bar=1.0, theta_radius=1e6,
                             alpha=float(rng.uniform(0.05, 1.0)),
                             grid_per_stage=int(rng.integers(1, 9)), combo_cap=combo_cap, seed=int(rng.integers(0, 99)))
        if multi == "net":
            return replace(base, theta_radius=2.0, net_spacing=float(rng.uniform(0.6, 1.2))), None
        if multi == "extras":
            return base, {h: rng.normal(size=(int(rng.integers(1, 5)), d)) for h in range(H)}
        if multi == "empty":
            return replace(base, theta_radius=1e-9), None
        return replace(base, beta=float(np.exp(rng.uniform(-5.0, 2.0)))), None

    @given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(REWARD_KINDS),
           multi=st.sampled_from(["net", "extras", "plain", "empty"]), combo_cap=st.sampled_from([1, 3, 7, 64]))
    # stacked ridges over F-strided target rows (``targets[:, back]``) moved anchor
    # bits on these two (d = 3, n = 5 and d = 2, n = 75)
    @example(seed=0, kind="deterministic-mean", multi="net", combo_cap=3)
    @example(seed=1, kind="bernoulli-mean", multi="net", combo_cap=3)
    @settings(max_examples=40, deadline=None)
    def test_sampled_datasets(self, seed, kind, multi, combo_cap):
        rng = np.random.default_rng(seed)
        d, A = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H = int(rng.choice([1, 2, 3, 4, 5, 9]))  # H = 9 sums tails of 8 or more terms
        sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
        mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)), reward_kind=kind)
        ds = sample_trajectories(mdp, uniform_policy(mdp), int(rng.integers(1, 300)), int(rng.integers(0, 2**31)), fm)
        config, extras = self.config_for(rng, d, H, multi, combo_cap)
        self.check(ds, random_guess(rng, H, d), config, extras)

    @given(seed=st.integers(0, 2**31 - 1), multi=st.sampled_from(["net", "extras", "plain", "empty"]),
           combo_cap=st.sampled_from([1, 3, 64]))
    @settings(max_examples=30, deadline=None)
    def test_features_not_a_function_of_the_state(self, seed, multi, combo_cap):
        rng = np.random.default_rng(seed)
        d, H, A = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        ds = hand_built_dataset(rng, int(rng.integers(1, 200)), H, A, d)
        config, extras = self.config_for(rng, d, H, multi, combo_cap)
        self.check(ds, random_guess(rng, H, d), config, extras)

    def test_multi_member_and_subsampled_stages(self, setup):
        # wide panels keep the interior states (the true guess skips them all), so
        # the tail values reach the targets and the combos give distinct anchors
        mdp, fm, behavior, guess, config, ds = setup
        wide = Guess(horizon=3, panels=[3.0 * p for p in np.random.default_rng(4).normal(size=(2, panel_size(2), 2))],
                     radius_bound=1e9)
        cfg = replace(config, net_spacing=0.8, theta_radius=2.0, beta=1e9, grid_per_stage=12, combo_cap=5)
        sets = self.check(ds, wide, cfg)
        stages = sets.stage_sets
        assert max(s.members.shape[0] for s in stages) > 1 and max(s.anchors.shape[0] for s in stages) > 1
        assert any(s.subsampled for s in stages) and not stages[-1].subsampled
        for h, s in enumerate(stages):
            counts = [stages[u].members.shape[0] for u in range(h + 1, ds.horizon)]
            assert s.subsampled == (math.prod(counts) > cfg.combo_cap)
            assert s.combos == math.prod(counts) if not s.subsampled else 1 <= s.combos <= cfg.combo_cap
            assert s.anchors.shape[0] <= s.combos
            assert s.tails < ds.n

    def test_signed_zero_reward_twins(self):
        # the tails differ only in the sign of a zero reward, so they are scored apart
        feats = np.full((4, 2, 1, 1), 1.0)
        rewards = np.array([[0.5, 0.0, 0.0], [0.5, -0.0, 0.0], [0.5, 0.0, 0.0], [0.25, -0.0, 0.0]])
        ds = dense_dataset(np.zeros((4, 3), dtype=int), np.zeros((4, 3), dtype=int), rewards, feats)
        first, back = ds.tail_paths[1]
        assert len(first) == 2 and back[0] == back[2] and back[0] != back[1] and back[1] == back[3]
        first, back = ds.tail_paths[0]
        assert len(first) == 3 and back[0] == back[2]
        config = LearnerConfig(lam=1.0, beta=1.0, eps_bar=1.0, theta_radius=10.0, alpha=0.5)
        self.check(ds, zero_guess(2, 1), config)


class TestSuffixSharing:
    """``build_confidence_sets`` builds each stage once per group of guesses with equal
    skip suffixes (omega at the later stages); every guess's sets must still equal its
    own per-guess construction bit for bit, and the grouping must be exactly the
    suffix rule."""

    @staticmethod
    def check(ds, guesses, config, extras=None):
        got = build_confidence_sets(ds, guesses, config, extra_candidates=extras)
        assert len(got) == len(guesses)
        for guess, sets in zip(guesses, got):
            assert_matches_reference(sets, ds, guess, config, extras)
        return got

    @staticmethod
    def assert_shared_by_suffix(ds, guesses, got, params):
        """Two guesses hold the same ``StageSets`` object at stage h exactly when their
        row-level omega agrees at stages h+1..H-1; stage H-1 is one object for all."""
        H = ds.horizon
        omegas = [dataset_omega(ds, guess, params) for guess in guesses]
        assert len({id(sets.stage_sets[H - 1]) for sets in got}) == 1
        for h in range(H):
            for i, j in itertools.combinations(range(len(guesses)), 2):
                a, b = got[i].stage_sets[h], got[j].stage_sets[h]
                if a is None or b is None:
                    continue
                same_suffix = omegas[i][:, h + 1 : H].tobytes() == omegas[j][:, h + 1 : H].tobytes()
                assert (a is b) == same_suffix, (h, i, j)

    def test_grid_shares_by_suffix(self, setup):
        # the true guess skips every interior state, like the zero guess, so the two
        # share all stages; ``mixed`` takes guess 1's stage-2 panel and guess 2's
        # stage-1 panel, so it shares stage 1 with guess 1 and stage 0 with no one
        mdp, fm, behavior, guess, config, ds = setup
        grid = guess_grid(guess, 0.3, 6, seed=2)
        mixed = Guess(horizon=3, panels=[grid[2].panels[0], grid[1].panels[1]], radius_bound=grid[1].radius_bound)
        guesses = [*grid, grid[3], mixed]
        got = self.check(ds, guesses, config)
        self.assert_shared_by_suffix(ds, guesses, got, SkipParams(config.alpha))
        assert all(s is t for s, t in zip(got[0].stage_sets, got[len(grid) - 1].stage_sets))
        assert all(s is t for s, t in zip(got[3].stage_sets, got[len(grid)].stage_sets))
        assert got[-1].stage_sets[1] is got[1].stage_sets[1]
        assert all(got[-1].stage_sets[0] is not sets.stage_sets[0] for sets in got[:-1])

    @pytest.mark.parametrize("theta_radius, empty", [(1.3, {0, 1}), (2.25, {None, 0})])
    def test_some_guesses_empty_a_stage(self, setup, theta_radius, empty):
        # balls that hold some guesses' anchors at stages 0-1 and not others'
        mdp, fm, behavior, guess, config, ds = setup
        wide = Guess(horizon=3, panels=[3.0 * p for p in np.random.default_rng(4).normal(size=(2, panel_size(2), 2))],
                     radius_bound=1e9)
        guesses = [*guess_grid(guess, 0.3, 8, seed=2), wide]
        cfg = replace(config, theta_radius=theta_radius)
        got = self.check(ds, guesses, cfg)
        assert {sets.empty_stage for sets in got} == empty
        self.assert_shared_by_suffix(ds, guesses, got, SkipParams(cfg.alpha))

    @pytest.mark.parametrize("net_spacing, combo_cap", [(0.8, 5), (0.5, 64)])
    def test_netted_grid(self, setup, net_spacing, combo_cap):
        mdp, fm, behavior, guess, config, ds = setup
        cfg = replace(config, net_spacing=net_spacing, theta_radius=2.0, beta=1e9, grid_per_stage=12,
                      combo_cap=combo_cap)
        guesses = guess_grid(guess, 0.3, 8, seed=2)
        got = self.check(ds, guesses, cfg)
        assert max(s.members.shape[0] for sets in got for s in sets.stage_sets) > 1
        self.assert_shared_by_suffix(ds, guesses, got, SkipParams(cfg.alpha))

    @given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(REWARD_KINDS),
           multi=st.sampled_from(["net", "extras", "plain", "empty", "partial"]), combo_cap=st.sampled_from([1, 3, 64]))
    @settings(max_examples=30, deadline=None)
    def test_sampled_grids(self, seed, kind, multi, combo_cap):
        rng = np.random.default_rng(seed)
        d, A = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H = int(rng.choice([1, 2, 3, 4, 5]))
        sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
        mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)), reward_kind=kind)
        ds = sample_trajectories(mdp, uniform_policy(mdp), int(rng.integers(1, 200)), int(rng.integers(0, 2**31)), fm)
        # the grid ends with the zero guess; an exact repeat always shares every stage
        true = random_guess(rng, H, d)
        guesses = [true, zero_guess(H, d)] if H == 1 else guess_grid(
            true, float(rng.uniform(0.05, 1.0)), int(rng.integers(2, 7)), seed=int(rng.integers(0, 99)))
        guesses.append(guesses[int(rng.integers(0, len(guesses)))])
        config, extras = TestTailGrouping.config_for(rng, d, H, "plain" if multi == "partial" else multi, combo_cap)
        if multi == "partial":
            # a ball that holds the shared stage H-1 and passes through one of the lower
            # stages' unconstrained anchors empties some guesses' stages and not others'
            config = replace(config, beta=1e9)
            free = build_confidence_sets(ds, guesses, config)
            top = max(float(np.linalg.norm(free[0].stage_sets[-1].anchors, axis=1).max()), 1e-9)
            lower = sorted({float(x) for sets in free for s in sets.stage_sets[:-1]
                            for x in np.linalg.norm(s.anchors, axis=1) if x > top})
            config = replace(config, theta_radius=lower[int(rng.integers(0, len(lower)))] if lower else top)
        got = self.check(ds, guesses, config, extras)
        self.assert_shared_by_suffix(ds, guesses, got, SkipParams(config.alpha))

    def test_no_guesses(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        assert build_confidence_sets(ds, [], config) == []


class CountingPhi(np.ndarray):
    """A stage's taken features that count the products ``phi.T @ rows`` made with them."""

    products = 0

    def __matmul__(self, other):
        CountingPhi.products += 1
        return np.asarray(self) @ other


def netted_sets_inputs():
    """The instance, learner settings and a replicate's dataset of perfbench's
    netted-sets workload: the acceptance instance, uncalibrated, with
    theta_radius 5, an epsilon-net of spacing 0.5 and n = 1000."""
    doc = json.loads((ROOT / "scripts" / "acceptance_config.json").read_text())
    doc["calibration"]["enabled"] = False
    doc["learn"].update(theta_radius=5.0, net_spacing=0.5)
    cfg = ExperimentConfig.from_dict(doc)
    inst = build_instance(cfg)
    return inst, cfg.learn, collect(inst, 1000, [cfg.data.seed, 0])


class TestStackedRidge:
    """``_stage_sets`` solves a stage set's combos in stacked blocks of
    ceil(RIDGE_BLOCK / n) combos; the anchors must equal the per-combo
    ``reference_sets`` bit for bit whatever the block size, and the products
    must be one per block, not one per combo."""

    @staticmethod
    def netted(config, combo_cap):
        return replace(config, net_spacing=0.8, theta_radius=2.0, beta=1e9, grid_per_stage=12, combo_cap=combo_cap)

    @pytest.mark.parametrize("combo_cap", [5, 64], ids=["subsampled", "enumerated"])
    @pytest.mark.parametrize("rows", [1, 3], ids=["per-combo", "three-combo"])
    def test_any_block_size_gives_the_reference(self, setup, monkeypatch, combo_cap, rows):
        # a budget of one element solves each combo alone; n * 2 + 1 elements give
        # blocks of three combos, which split a stage set's combos mid-block
        mdp, fm, behavior, guess, config, ds = setup
        monkeypatch.setattr(learner, "RIDGE_BLOCK", 1 if rows == 1 else 2 * ds.n + 1)
        cfg = self.netted(config, combo_cap)
        got = TestSuffixSharing.check(ds, guess_grid(guess, 0.3, 8, seed=2), cfg)
        stages = [s for sets in got for s in sets.stage_sets]
        # sampled combos with the cap of 5, enumerated ones past one block with 64
        assert any(s.subsampled == (combo_cap == 5) and s.combos > 3 and s.combos % 3 for s in stages)

    @pytest.mark.parametrize("budget", [None, 1, 1000])
    def test_one_stacked_product_per_block(self, setup, monkeypatch, budget):
        # a per-combo loop would make one phi.T product per combo
        mdp, fm, behavior, guess, config, ds = setup
        if budget is not None:
            monkeypatch.setattr(learner, "RIDGE_BLOCK", budget)
        seen = []

        def counting_covariance(*args):
            cov = stage_covariance(*args)
            cov.phi = cov.phi.view(CountingPhi)
            return cov

        monkeypatch.setattr(learner, "stage_covariance", counting_covariance)
        real = learner._stage_sets

        def counted(*args):
            before = CountingPhi.products
            sets = real(*args)
            seen.append((sets.combos, CountingPhi.products - before))
            return sets

        monkeypatch.setattr(learner, "_stage_sets", counted)
        monkeypatch.setattr(learner.StageCovariance, "ridge", None)  # the per-combo solve
        cfg = replace(self.netted(config, 64), grid_per_stage=8)
        build_confidence_sets(ds, guess_grid(guess, 0.3, 8, seed=2), cfg)
        block = math.ceil(learner.RIDGE_BLOCK / ds.n)
        for combos, products in seen:
            assert products == math.ceil(combos / block) <= math.ceil(combos * ds.n / learner.RIDGE_BLOCK)
        assert max(combos for combos, _ in seen) > block
        if budget != 1:
            assert sum(p for _, p in seen) < sum(c for c, _ in seen)


class TestPoolRule:
    """A stage set whose pool is its anchors alone, or whose distinct anchors number
    at least ``grid_per_stage``, keeps its first ``grid_per_stage`` anchors without
    scoring the pool; its members must still equal ``reference_sets``, which
    scores the whole pool."""

    @staticmethod
    def guarded(grid_per_stage, calls):
        """``_anchor_distance`` that refuses the stage sets the rule covers and records the others."""
        real = learner._anchor_distance

        def distance(anchors, matrix, thetas):
            assert thetas is not anchors and anchors.shape[0] < grid_per_stage, "a full pool was scored"
            calls.append(anchors.shape[0])
            return real(anchors, matrix, thetas)

        return mock.patch.object(learner, "_anchor_distance", distance)

    @pytest.mark.parametrize("net_spacing, combo_cap", [(0.8, 5), (0.5, 64)])
    def test_netted_grid(self, setup, net_spacing, combo_cap):
        mdp, fm, behavior, guess, config, ds = setup
        cfg = replace(config, net_spacing=net_spacing, theta_radius=2.0, beta=1e9, grid_per_stage=12,
                      combo_cap=combo_cap)
        calls = []
        with self.guarded(cfg.grid_per_stage, calls):
            got = TestSuffixSharing.check(ds, guess_grid(guess, 0.3, 8, seed=2), cfg)
        assert calls  # pools short of anchors are still scored
        # at most combo_cap anchors: a cap of 5 never fills a pool of 12
        full = any(s.anchors.shape[0] >= cfg.grid_per_stage for sets in got for s in sets.stage_sets)
        assert full == (combo_cap >= cfg.grid_per_stage)

    def test_anchors_alone_are_never_scored(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        calls = []
        with self.guarded(1, calls):
            outcome = solve(ds, guess_grid(guess, 0.3, 8, seed=2), config, fm)
        assert not calls and outcome.feasible_count > 0

    def test_netted_sets_solve(self):
        inst, config, ds = netted_sets_inputs()
        calls = []
        with self.guarded(config.grid_per_stage, calls):
            outcome = solve(ds, inst.guesses, config, inst.featmap)
        stages = [s for r in outcome.reports for s in r.sets.stage_sets]
        assert calls and any(s.anchors.shape[0] >= config.grid_per_stage for s in stages)
        for guess, report in zip(inst.guesses[:4], outcome.reports):
            assert_matches_reference(report.sets, ds, guess, config)

    @given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(REWARD_KINDS), multi=st.sampled_from(["net", "extras"]))
    @settings(max_examples=30, deadline=None)
    def test_grid_around_an_anchor_count(self, seed, kind, multi):
        # grid_per_stage at m - 1, m and m + 1 around a stage's anchor count m: the
        # pool is scored only below m; stage H-1 always has one anchor
        rng = np.random.default_rng(seed)
        d, A = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H = int(rng.choice([2, 3, 4]))
        sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
        mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)), reward_kind=kind)
        ds = sample_trajectories(mdp, uniform_policy(mdp), int(rng.integers(1, 200)), int(rng.integers(0, 2**31)), fm)
        config, extras = TestTailGrouping.config_for(rng, d, H, multi, 64)
        guess = random_guess(rng, H, d)
        (free,) = build_confidence_sets(ds, [guess], replace(config, grid_per_stage=64),
                                        extra_candidates=extras)
        m = max(s.anchors.shape[0] for s in free.stage_sets if s is not None)
        for grid in sorted({m - 1, m, m + 1} - {0}):
            with self.guarded(grid, []):
                TestTailGrouping.check(ds, guess, replace(config, grid_per_stage=grid), extras)


def dedupe_reference(arr):
    """``_dedupe_rows`` before arrays of at most one row were returned as they are."""
    _, idx = np.unique(arr, axis=0, return_index=True)
    return arr[np.sort(idx)]


@given(data=st.data(), rows=st.integers(0, 7), cols=st.integers(1, 3), dtype=st.sampled_from([float, np.int64]))
@settings(max_examples=200, deadline=None)
def test_dedupe_rows_matches_unique(data, rows, cols, dtype):
    # a small value pool repeats rows often; -0.0 and 0.0 are one value to np.unique
    values = [0.0, -0.0, 1.0, 2.5] if dtype is float else [0, 1, 2]
    cells = data.draw(st.lists(st.sampled_from(values), min_size=rows * cols, max_size=rows * cols))
    arr = np.array(cells, dtype=dtype).reshape(rows, cols)
    got, want = _dedupe_rows(arr), dedupe_reference(arr)
    assert (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()
    # the pool skips a second pass over the deduplicated anchors
    assert _dedupe_rows(got).tobytes() == dedupe_reference(got).tobytes() == got.tobytes()


class TestTailPaths:
    def test_first_and_back_reproduce_every_tail(self):
        rng = np.random.default_rng(811)
        for _ in range(20):
            d, H, A = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
            ds = hand_built_dataset(rng, int(rng.integers(1, 200)), H, A, d)
            rows = np.stack([r for _, r in ds.visited_blocks], axis=1)
            for h, (first, back) in enumerate(ds.tail_paths):
                assert first.shape == (len(set(back.tolist())),) and back.shape == (ds.n,)
                same = first[back]
                assert np.array_equal(rows[same, h + 1 :], rows[:, h + 1 :])
                assert ds.rewards[same, h:H].tobytes() == ds.rewards[:, h:H].tobytes()
                distinct = {(rows[j, h + 1 :].tobytes(), ds.rewards[j, h:H].tobytes()) for j in range(ds.n)}
                assert len(first) == len(distinct)



class TestLearnerConfig:
    POSITIVE = {"lam": 1.0, "beta": 5.0, "eps_bar": 1.0, "theta_radius": 10.0}

    @pytest.mark.parametrize("name", ["lam", "beta", "eps_bar", "theta_radius", "net_spacing"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
    def test_nan_or_non_positive_refused_by_name(self, name, value):
        # NaN passed `min(...) <= 0` and reached solve, which quietly set all_rejected;
        # a NaN net_spacing failed in epsilon_net's int(floor(nan))
        with pytest.raises(ValidationError, match=f"^{name} must be positive, got {value!r}$"):
            LearnerConfig(**{**self.POSITIVE, name: value})

    @pytest.mark.parametrize("name", ["lam", "beta", "eps_bar", "theta_radius", "alpha", "net_spacing"])
    @pytest.mark.parametrize("value", [True, False, "10", [1.0]], ids=["true", "false", "string", "list"])
    def test_non_real_settings_refused_by_name(self, name, value):
        # "net_spacing": true built an epsilon-net of spacing 1.0 and "beta": true ran as
        # beta = 1.0; "beta": "10" raised a bare TypeError from the comparison
        with pytest.raises(ValidationError, match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
            LearnerConfig(**{name: value})

    def test_numpy_reals_and_integers_stay_legal(self):
        config = LearnerConfig(lam=np.float32(0.5), beta=np.int64(10), eps_bar=2, alpha=np.float64(0.3),
                               net_spacing=np.float64(0.5))
        assert config.beta == 10 and config.net_spacing == 0.5
        with pytest.raises(ValidationError, match=r"^lam must be a real number, got None$"):
            LearnerConfig(lam=None)

    def test_inf_stays_legal(self):
        # solve's fallback builds with beta = theta_radius = inf
        inf = dict.fromkeys(["lam", "beta", "eps_bar", "theta_radius", "net_spacing"], math.inf)
        LearnerConfig(**inf)

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, -0.5, 1.5])
    def test_alpha_outside_unit_interval_refused(self, alpha):
        with pytest.raises(ValidationError, match=rf"^alpha must lie in \(0, 1\], got {alpha!r}$"):
            LearnerConfig(alpha=alpha)

    @pytest.mark.parametrize("name, value, named", [
        ("grid_per_stage", 8.0, "grid_per_stage must be an integer, got 8.0"),
        ("combo_cap", 2.5, "combo_cap must be an integer, got 2.5"),
        ("combo_cap", True, "combo_cap must be an integer, got True"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
        ("seed", False, "seed must be an integer, got False"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ], ids=["float-grid", "fractional-cap", "bool-cap", "float-seed", "bool-seed", "negative-seed"])
    def test_integer_settings_refused_by_name(self, name, value, named):
        # grid_per_stage 8.0 failed only inside solve as a bad slice index, combo_cap 2.5
        # and seed -1 only once the combos were subsampled, and True ran as 1
        with pytest.raises(ValidationError, match=f"^{named}$"):
            LearnerConfig(**{name: value})
        LearnerConfig(**{name: np.int64(2)})


class TestDimensions:
    """Every guess's panel width, ``featmap.d`` and ``dataset.dim`` must agree."""

    MISMATCH = r"dimension mismatch: (dataset\.dim = 50 but featmap\.d = 2|guess 0 dim = 2 but dataset\.dim = 50)"

    def test_skip_dimension_mismatch_refused(self, setup):
        # the skip threshold alpha / sqrt(2 d) takes d from the data, so data of another
        # width than the feature map and the guesses is refused; a skip width of 50 on
        # this d = 2 data used to move the chosen guess and theta_0 without a warning
        mdp, fm, behavior, guess, config, ds = setup
        wide = dense_dataset(ds.states, ds.actions, ds.rewards, np.pad(ds.features, [(0, 0)] * 3 + [(0, 48)]))
        with pytest.raises(ValidationError, match=self.MISMATCH):
            solve(wide, [guess], config, fm)
        with pytest.raises(ValidationError, match=self.MISMATCH):
            lstsq_anchor(wide, 0, guess, np.zeros((mdp.horizon, 50)), config)
        with pytest.raises(ValidationError, match=self.MISMATCH):
            build_confidence_sets(wide, [guess], config)

    def test_featmap_dimension_mismatch_refused(self, setup):
        # a d = 3 feature map of the same shape used to fail inside numpy's matmul
        mdp, fm, behavior, guess, config, ds = setup
        _, fm3 = random_linear_mdp(3, mdp.horizon, mdp.stage_sizes, mdp.num_actions, seed=0)
        with pytest.raises(ValidationError, match=r"dataset\.dim = 2 but featmap\.d = 3"):
            solve(ds, [guess], config, fm3)

    def test_guess_width_mismatch_refused(self, setup):
        # a width-3 guess used to fail inside numpy's matmul
        mdp, fm, behavior, guess, config, ds = setup
        wide = zero_guess(mdp.horizon, 3)
        with pytest.raises(ValidationError, match=r"guess 1 dim = 3 but featmap\.d = 2"):
            solve(ds, [guess, wide], config, fm)
        with pytest.raises(ValidationError, match=r"guess 0 dim = 3"):
            lstsq_anchor(ds, 0, wide, np.zeros((mdp.horizon, 2)), config)
        with pytest.raises(ValidationError, match=r"guess 0 dim = 3"):
            calibrate(mdp, fm, behavior, wide, [50], config, replicates=2, delta=0.5, seed=0)

    def test_oracle_guess_width_refused(self, setup):
        # a width-3 guess on the d = 2 feature map used to fail inside numpy's matmul
        mdp, fm, behavior, guess, config, ds = setup
        wide = zero_guess(mdp.horizon, 3)
        with pytest.raises(ValidationError, match=r"guess dim = 3 but featmap\.d = 2"):
            skip_optimal_policy(mdp, fm, wide, behavior, SkipParams(config.alpha))
        with pytest.raises(ValidationError, match=r"guess dim = 3 but featmap\.d = 2"):
            omega_tables(wide, fm, SkipParams(config.alpha))
        with pytest.raises(ValidationError, match=r"guess dim = 3 but featmap\.d = 2"):
            check_skip_realizability(mdp, fm, wide, behavior, lambda t, s: 0.0, 0, SkipParams(config.alpha))
        omega_tables(zero_guess(1, 3), random_linear_mdp(2, 1, (1, 1), 2, seed=0)[1], SkipParams(config.alpha))  # no panels to compare

    @pytest.mark.parametrize("horizon", [2, 4])
    def test_guess_horizon_mismatch_refused(self, setup, horizon):
        # an H = 4 guess on H = 3 data used to solve silently from its first panels,
        # and an H = 2 one to fail as an IndexError or "no panel at stage 2"
        mdp, fm, behavior, guess, config, ds = setup
        other = zero_guess(horizon, 2)
        with pytest.raises(ValidationError, match=rf"^horizon mismatch: guess 1 horizon = {horizon} but featmap\.horizon = 3$"):
            solve(ds, [guess, other], config, fm)
        with pytest.raises(ValidationError, match=rf"^horizon mismatch: guess 0 horizon = {horizon} but dataset\.horizon = 3$"):
            build_confidence_sets(ds, [other], config)
        with pytest.raises(ValidationError, match=rf"^horizon mismatch: guess 0 horizon = {horizon} but dataset\.horizon = 3$"):
            lstsq_anchor(ds, 0, other, np.zeros((mdp.horizon, 2)), config)
        with pytest.raises(ValidationError, match=rf"^horizon mismatch: guess 0 horizon = {horizon} but featmap\.horizon = 3$"):
            calibrate(mdp, fm, behavior, other, [50], config, replicates=2, delta=0.5, seed=0)
        fm_other = random_linear_mdp(2, horizon, (1,) + (4,) * (horizon - 1) + (1,), mdp.num_actions, seed=0)[1]
        with pytest.raises(ValidationError, match=rf"^horizon mismatch: dataset\.horizon = 3 but featmap\.horizon = {horizon}$"):
            solve(ds, [guess], config, fm_other)

    @pytest.mark.parametrize("horizon", [2, 4])
    def test_oracle_guess_horizon_refused(self, setup, horizon):
        # an H = 2 guess used to run skip_optimal_policy on the wrong omega tables, and
        # the scalar chain took both: check_skip_realizability returned a slack of 4.4e-16
        # (H = 2, stage 2 never skipped) and 6.7e-16 (H = 4)
        mdp, fm, behavior, guess, config, ds = setup
        other = zero_guess(horizon, 2)
        match = rf"^horizon mismatch: guess horizon = {horizon} but featmap\.horizon = 3$"
        with pytest.raises(ValidationError, match=match):
            skip_optimal_policy(mdp, fm, other, behavior, SkipParams(config.alpha))
        with pytest.raises(ValidationError, match=match):
            omega_tables(other, fm, SkipParams(config.alpha))
        with pytest.raises(ValidationError, match=match):
            check_skip_realizability(mdp, fm, other, behavior, lambda t, s: 0.0, 0, SkipParams(config.alpha))
        with pytest.raises(ValidationError, match=match):
            skip_probability(other, fm, 2, 0, SkipParams(config.alpha))
        with pytest.raises(ValidationError, match=match):
            guess_range(other, fm, 1, 0)

    def test_action_count_mismatch_refused(self, setup):
        # an A = 2 dataset against an A = 3 feature map used to solve into a 3-action policy
        mdp, fm, behavior, guess, config, ds = setup
        _, fm3 = random_linear_mdp(2, mdp.horizon, mdp.stage_sizes, 3, seed=0)
        with pytest.raises(ValidationError, match=r"^action count mismatch: dataset action count = 2 but "
                                                  r"featmap action count = 3$"):
            solve(ds, [guess], config, fm3)

    def test_guess_without_panels_exempt(self):
        # with H = 1 a guess has no panels, so it carries no dimension to compare
        feats = np.ones((3, 1, 2, 1))
        rewards = np.array([[0.5, 0.0], [0.25, 0.0], [0.5, 0.0]])
        ds = dense_dataset(np.zeros((3, 2), dtype=int), np.zeros((3, 2), dtype=int), rewards, feats)
        config = LearnerConfig(lam=1.0, beta=1.0, eps_bar=1.0, theta_radius=10.0, alpha=0.5)
        (sets,) = build_confidence_sets(ds, [zero_guess(1, 5)], config)
        assert sets.empty_stage is None


class TestCalibration:
    def test_produces_usable_thresholds(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        (cal,) = calibrate(mdp, fm, behavior, guess, [400], config, replicates=4, delta=0.25, seed=17)
        assert cal.beta > 0 and cal.eps_bar > 0
        assert len(cal.anchor_stats) == 4
        assert np.isfinite(cal.tightness_values).all()

    def test_stage_data_one_replicate_at_a_time(self, fixed_instance, monkeypatch):
        # each pass builds a replicate's H stage objects one stage at a time, each
        # dropped before the next is built: one alive, and 2H built per replicate per n
        mdp, fm = fixed_instance
        H = mdp.horizon
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
        config = LearnerConfig(lam=1.0, beta=5.0, eps_bar=1.0, theta_radius=100.0, alpha=0.2)
        built, alive_at_build = [], []

        def tracked(*args, **kwargs):
            cov = stage_covariance(*args, **kwargs)
            built.append((args[1], weakref.ref(cov)))
            alive_at_build.append(sum(ref() is not None for _, ref in built))
            return cov

        monkeypatch.setattr(learner, "stage_covariance", tracked)
        grid, replicates = [50, 30], 3
        calibrate(mdp, fm, uniform_policy(mdp), guess, grid, config, replicates=replicates, delta=0.5, seed=3)
        assert max(alive_at_build) == 1
        assert len(built) == 2 * H * replicates * len(grid)
        # the own-tail pass runs forward over the stages, the confidence sets backward
        own_tail, backward = list(range(H)) * replicates, list(range(H - 1, -1, -1)) * replicates
        assert [h for h, _ in built] == (own_tail + backward) * len(grid)

    @pytest.mark.parametrize("entry", ["solve", "calibrate"])
    def test_one_stage_covariance_alive_at_a_time(self, setup, monkeypatch, entry):
        # a stage's covariance is built where the backward pass reads it and released
        # before the next stage's; solve used to hold all H and calibrate a replicate's H
        mdp, fm, behavior, guess, config, ds = setup
        assert mdp.horizon >= 3
        live, others = weakref.WeakSet(), []

        def tracked(*args):
            others.append(len(live))
            cov = stage_covariance(*args)
            live.add(cov)
            return cov

        monkeypatch.setattr(learner, "stage_covariance", tracked)
        if entry == "solve":
            solve(ds, guess_grid(guess, 0.3, 6, seed=2), config, fm)
            builds = mdp.horizon
        else:
            calibrate(mdp, fm, behavior, guess, [200, 100], config, replicates=3, delta=0.5, seed=3)
            builds = 2 * mdp.horizon * 3 * 2  # two passes per replicate per n
        assert len(others) == builds and max(others) <= 1

    def test_grid_equals_one_n_calls(self, setup):
        # one sample at the largest n, sliced for the others, gives each n the
        # result of its own call, field by field and bit for bit
        mdp, fm, behavior, guess, config, _ = setup
        grid = [130, 400, 60, 400]
        results = calibrate(mdp, fm, behavior, guess, grid, config, replicates=3, delta=0.34, seed=21)
        assert len(results) == len(grid)
        for n, got in zip(grid, results):
            (want,) = calibrate(mdp, fm, behavior, guess, [n], config, replicates=3, delta=0.34, seed=21)
            for f in fields(CalibrationResult):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), (n, f.name)

    @pytest.mark.parametrize("n_values, match", [
        ([60, -5], "n = -5 gives zero trajectories"),  # slicing would have kept n_max - 5 rows
        ([60, 0], "zero trajectories"),
        ([40.5], "must be an integer, got 40.5"),
        ([True], "must be an integer, got True"),
        ([], "at least one n"),
    ], ids=["negative", "zero", "fraction", "bool", "empty"])
    def test_bad_n_refused_before_sampling(self, setup, monkeypatch, n_values, match):
        mdp, fm, behavior, guess, config, _ = setup

        def no_sampling(*args, **kwargs):
            raise AssertionError("calibration sampled before checking n")

        monkeypatch.setattr(learner, "sample_trajectories", no_sampling)
        with pytest.raises(ValidationError, match=match):
            calibrate(mdp, fm, behavior, guess, n_values, config, replicates=2, delta=0.5, seed=0)

    @pytest.mark.parametrize("replicates", [2.0, 2.5, True, np.float64(3.0), "2"],
                             ids=["float", "fraction", "bool", "numpy-float", "str"])
    def test_non_integer_replicates_refused_before_sampling(self, setup, monkeypatch, replicates):
        # 2.0 and 2.5 used to fail in range() with a bare TypeError, and True ran as 1
        mdp, fm, behavior, guess, config, _ = setup

        def no_sampling(*args, **kwargs):
            raise AssertionError("calibration sampled before checking replicates")

        monkeypatch.setattr(learner, "sample_trajectories", no_sampling)
        with pytest.raises(ValidationError) as err:
            calibrate(mdp, fm, behavior, guess, [60], config, replicates=replicates, delta=0.5, seed=0)
        assert str(err.value) == f"calibration replicates must be an integer >= 1, got {replicates!r}"

    def test_quantile_respects_delta(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        (cal,) = calibrate(mdp, fm, behavior, guess, [400], config, replicates=8, delta=0.5, seed=18)
        # with delta = 0.5 the radius is the median-order statistic, so some
        # replicates may exceed it
        assert cal.beta <= cal.anchor_stats.max() + 1e-12


def calibrate_at_reference(pool, n, guess, psi, config, delta):
    """``learner._calibrate_at`` as it was when every held-out replicate's H stage
    objects were built first and shared by the own-tail and tightness passes: each
    ``stage_covariance`` call reads a table built before either pass."""
    datasets = [ds.prefix(n) for ds in pool]
    H = pool[0].horizon
    built = {(id(ds), h): stage_covariance(ds, h, config.lam) for ds in datasets for h in range(H)}

    def prebuilt(ds, h, lam):
        assert lam == config.lam
        return built[id(ds), h]

    with mock.patch.object(learner, "stage_covariance", prebuilt):
        stats = np.array([_own_tail_distance(ds, guess, psi, config) for ds in datasets])
        beta = max(float(np.quantile(stats, 1.0 - delta, method="higher")), 1e-9)
        extras = {h: psi[h][None, :] for h in range(H)}
        cfg = replace(config, beta=beta)
        sets_of = [build_confidence_sets(ds, [guess], cfg, extra_candidates=extras)[0] for ds in datasets]
    tight = np.zeros(len(pool))
    for c, sets in enumerate(sets_of):
        if sets.empty_stage is not None:
            raise ValidationError(f"the true guess's confidence set is empty at stage {sets.empty_stage} on held-out "
                                  f"replicate {c} (theta_radius = {config.theta_radius:g}) at n = {n}; "
                                  "eps_bar would be inf")
        tight[c] = max(sets.tightness)
    eps_bar = max(2.0 * float(tight.max()), 1e-9)
    return CalibrationResult(beta=beta, eps_bar=eps_bar, anchor_stats=stats, tightness_values=tight)


def calibration_bytes(*args):
    """Every field of every ``calibrate(*args)`` result as (type, bytes), or its refusal."""
    try:
        results = calibrate(*args)
    except ValidationError as err:
        return str(err)
    return [[(type(getattr(r, f.name)), np.asarray(getattr(r, f.name)).tobytes()) for f in fields(r)] for r in results]


class TestCalibrationAgainstAllAtOnce:
    """Building one replicate's stage data at a time changes no bit of ``calibrate``."""

    @given(seed=st.integers(0, 2**31 - 1), reward_kind=st.sampled_from(REWARD_KINDS),
           grid=st.lists(st.integers(1, 150), min_size=1, max_size=4), replicates=st.integers(1, 4),
           delta=st.sampled_from([0.05, 0.34, 0.5, 0.9]), sets=st.sampled_from(["wide", "narrow", "netted"]))
    @settings(max_examples=30, deadline=None)
    def test_equals_all_at_once_reference(self, seed, reward_kind, grid, replicates, delta, sets):
        # "narrow" sets may come out empty, so the refusal is compared too; "netted" ones hold several members
        rng = np.random.default_rng(seed)
        d, A, H = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
        mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)), reward_kind=reward_kind)
        radius, spacing = {"wide": (1e6, None), "narrow": (0.5, None), "netted": (2.0, 0.8)}[sets]
        config = LearnerConfig(lam=float(rng.uniform(0.1, 2.0)), theta_radius=radius, net_spacing=spacing,
                               alpha=float(rng.uniform(0.05, 1.0)), grid_per_stage=int(rng.integers(1, 9)))
        args = (mdp, fm, uniform_policy(mdp), random_guess(rng, H, d), grid, config, replicates, delta,
                int(rng.integers(0, 2**31)))
        got = calibration_bytes(*args)
        with mock.patch.object(learner, "_calibrate_at", calibrate_at_reference):
            assert got == calibration_bytes(*args)


class TestOwnTailDistance:
    """Calibration's distance computes the targets once per distinct tail; it must equal
    the all-rows reference, max over h of ||lstsq_anchor(ds, h, guess, psi[h+1:]) - psi[h]||."""

    @given(seed=st.integers(0, 2**31 - 1), source=st.sampled_from([*REWARD_KINDS, "hand-built"]))
    @settings(max_examples=40, deadline=None)
    def test_equals_lstsq_anchor_reference(self, seed, source):
        rng = np.random.default_rng(seed)
        d, A = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H = int(rng.choice([1, 2, 3, 4, 5, 9]))  # H = 9 sums targets of 8 or more terms
        n = int(rng.integers(1, 300))
        if source == "hand-built":  # features not a function of the state, -0.0/0.0 reward twins
            ds = hand_built_dataset(rng, n, H, A, d)
        else:
            sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
            mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)), reward_kind=source)
            ds = sample_trajectories(mdp, uniform_policy(mdp), n, int(rng.integers(0, 2**31)), fm)
            rewards, feats = ds.rewards.copy(), ds.features.copy()
            zero = rng.random((n, H)) < 0.3
            rewards[:, :H][zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
            h = int(rng.integers(0, H))
            feats[::2, h] = feats[::2, h, ::-1]  # even rows swap their actions' features at stage h
            ds = dense_dataset(ds.states, ds.actions, rewards, feats)
        config = LearnerConfig(lam=float(rng.uniform(0.1, 2.0)), beta=1.0, eps_bar=1.0, theta_radius=1e6,
                               alpha=float(rng.uniform(0.05, 1.0)))
        guess = random_guess(rng, H, d)
        psi = rng.normal(scale=float(np.exp(rng.uniform(-2.0, 2.0))), size=(H + 1, d))
        want = 0.0
        for h in range(H):
            cov = stage_covariance(ds, h, config.lam)
            want = max(want, cov.norm(lstsq_anchor(ds, h, guess, psi[h + 1 :], config) - psi[h]))
        assert _own_tail_distance(ds, guess, psi, config) == want
