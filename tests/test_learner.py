import json
from dataclasses import replace

import numpy as np
import pytest

from skiprl.design import build_true_guess, guess_grid, zero_guess
from skiprl.envs import fit_policy_params, random_linear_mdp, sample_policies
from skiprl.learner import (
    LearnerConfig,
    build_confidence_sets,
    calibrate,
    clipped_q,
    clipped_v,
    derived_constants,
    greedy_policy,
    lambda_from_bound,
    lstsq_anchor,
    serialize_outcome,
    skip_optimal_policy,
    solve,
    stage_covariance,
    start_value,
    tightness,
)
from skiprl.mdp import Dataset, ValidationError, evaluate_policy, sample_trajectories, uniform_policy
from skiprl.skipping import SkipParams


@pytest.fixture(scope="module")
def setup(fixed_instance):
    mdp, fm = fixed_instance
    behavior = uniform_policy(mdp)
    policies = sample_policies(mdp, 120, 5)
    guess = build_true_guess(mdp, fm, policies)
    config = LearnerConfig(
        lam=1.0, beta=5.0, eps_bar=1.0, theta_radius=100.0, skip=SkipParams(alpha=0.2, d=2), seed=0
    )
    ds = sample_trajectories(mdp, behavior, 600, [3000, 0], fm)
    return mdp, fm, behavior, guess, config, ds


def covs(ds, config):
    """The per-stage data ``build_confidence_sets`` takes."""
    return [stage_covariance(ds, h, config.lam) for h in range(ds.horizon)]


class TestClippedEstimators:
    def test_zero_theta(self, setup):
        _, fm, *_ = setup
        theta = np.zeros(2)
        assert clipped_q(theta, fm, 1, 0, 0) == 0.0
        assert clipped_v(theta, fm, 1, 0) == 0.0

    def test_clip_upper(self, setup):
        mdp, fm, *_ = setup
        theta = np.full(2, 50.0)  # simplex features: inner product is 50 > H
        assert clipped_q(theta, fm, 1, 0, 0) == mdp.horizon
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
                        qmax = max(clipped_q(theta, fm, stage, s, a) for a in range(mdp.num_actions))
                        assert clipped_v(theta, fm, stage, s) == pytest.approx(qmax, abs=1e-12)


class TestStageCovariance:
    def test_zero_features_lambda_identity(self, setup):
        *_, ds = setup
        blank = Dataset(ds.states, ds.actions, ds.rewards, np.zeros_like(ds.features))
        cov = stage_covariance(blank, 0, 0.7)
        np.testing.assert_allclose(cov.matrix, 0.7 * np.eye(2), atol=1e-15)

    def test_single_basis_vector(self, setup):
        *_, ds = setup
        feats = np.zeros_like(ds.features[:1])
        feats[0, :, :, 0] = 1.0
        one = Dataset(ds.states[:1], ds.actions[:1], ds.rewards[:1], feats)
        cov = stage_covariance(one, 1, 0.5)
        expect = 0.5 * np.eye(2)
        expect[0, 0] += 1.0
        np.testing.assert_allclose(cov.matrix, expect, atol=1e-15)

    def test_eigenvalues_at_least_lambda(self, setup):
        *_, ds = setup
        for h in range(3):
            cov = stage_covariance(ds, h, 0.3)
            assert np.linalg.eigvalsh(cov.matrix).min() >= 0.3 - 1e-9


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

            omega = dataset_omega(ds, guess, config.skip)
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
        sets = build_confidence_sets(ds, guess, config, covs(ds, config))
        np.testing.assert_array_equal(sets.members_at(mdp.horizon), np.zeros((1, 2)))

    def test_anchors_are_members(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        sets = build_confidence_sets(ds, guess, config, covs(ds, config))
        for h in range(mdp.horizon):
            for anchor in sets.stage_sets[h].anchors:
                assert sets.is_member(h, anchor, config)
                assert sets.ellipsoid_statistic(h, anchor) <= 1e-9

    def test_tiny_radius_gives_empty_signal(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        strict = replace(config, theta_radius=1e-9)
        sets = build_confidence_sets(ds, guess, strict, covs(ds, strict))
        assert sets.empty_stage is not None
        with pytest.raises(ValidationError):
            sets.members_at(0)

    def test_extras_join_when_close(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        psi = fit_policy_params(mdp, fm, skip_optimal_policy(mdp, fm, guess, behavior, config.skip)[0]).theta
        extras = {h: psi[h][None, :] for h in range(mdp.horizon)}
        sets = build_confidence_sets(ds, guess, config, covs(ds, config), extra_candidates=extras)
        for h in range(mdp.horizon):
            assert sets.empty_stage is None
            if sets.is_member(h, psi[h], config):
                members = sets.members_at(h)
                assert np.min(np.linalg.norm(members - psi[h], axis=1)) <= 1e-12

    def test_net_points_enter_pool(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        netted = replace(config, net_spacing=1.0, theta_radius=2.0, beta=1e9, grid_per_stage=40)
        sets = build_confidence_sets(ds, guess, netted, covs(ds, netted))
        assert sets.members_at(0).shape[0] > sets.stage_sets[0].anchors.shape[0]

    def test_subsampled_combos_deterministic(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        cfg = replace(config, net_spacing=0.8, theta_radius=2.0, beta=1e9, grid_per_stage=12, combo_cap=5)
        a = build_confidence_sets(ds, guess, cfg, covs(ds, cfg))
        b = build_confidence_sets(ds, guess, cfg, covs(ds, cfg))
        for h in range(mdp.horizon):
            np.testing.assert_array_equal(a.stage_sets[h].anchors, b.stage_sets[h].anchors)
            np.testing.assert_array_equal(a.stage_sets[h].members, b.stage_sets[h].members)


class TestTightness:
    def test_singleton_zero(self, setup):
        *_, ds = setup
        assert tightness(stage_covariance(ds, 0, 1.0).phi, np.zeros((1, 2)), ds.horizon) == 0.0

    def test_zero_and_saturating_theta(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        big = np.full((1, 2), 50.0)  # clips to H on every simplex feature
        val = tightness(stage_covariance(ds, 1, 1.0).phi, np.vstack([np.zeros((1, 2)), big]), ds.horizon)
        assert val == pytest.approx(mdp.horizon, abs=1e-12)

    def test_bounds(self, setup):
        mdp, *_, ds = setup[0], *setup[1:]
        rng = np.random.default_rng(5)
        thetas = rng.normal(size=(6, 2))
        val = tightness(stage_covariance(setup[5], 2, 1.0).phi, thetas, setup[5].horizon)
        assert 0.0 <= val <= setup[0].horizon


class TestSolve:
    def test_single_feasible_guess(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        out = solve(ds, [guess], config, fm)
        assert out.chosen_guess == 0 and not out.all_rejected

    def test_featureless_dataset_rejected(self, setup):
        # sampled without a feature map: the learner refuses it by name
        mdp, fm, behavior, guess, config, _ = setup
        bare = sample_trajectories(mdp, behavior, 20, 6)
        with pytest.raises(ValidationError, match="no features"):
            solve(bare, [guess], config, fm)

    def test_zero_reward_env(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=10, reward_scale=0.0)
        behavior = uniform_policy(mdp)
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
        ds = sample_trajectories(mdp, behavior, 100, 4, fm)
        config = LearnerConfig(lam=1.0, beta=5.0, eps_bar=1.0, theta_radius=10.0, skip=SkipParams(alpha=0.2, d=2))
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
                assert out.vbar_start >= start_value(theta, fm) - 1e-9

    def test_optimism_against_skip_optimal_parameter(self, setup):
        # when psi_1(pi*_G) enters the candidate sets, the optimistic value dominates it
        mdp, fm, behavior, guess, config, ds = setup
        psi = fit_policy_params(mdp, fm, skip_optimal_policy(mdp, fm, guess, behavior, config.skip)[0]).theta
        extras = {h: psi[h][None, :] for h in range(mdp.horizon)}
        sets = build_confidence_sets(ds, guess, config, covs(ds, config), extra_candidates=extras)
        assert sets.is_member(0, psi[0], config)
        vals = [start_value(t, fm) for t in sets.members_at(0)]
        assert max(vals) >= start_value(psi[0], fm) - 1e-9

    def test_vbar_matches_reevaluation(self, setup):
        mdp, fm, behavior, guess, config, ds = setup
        out = solve(ds, [guess], config, fm)
        assert out.vbar_start == pytest.approx(start_value(out.thetas[0], fm), abs=1e-12)

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

    def test_greedy_ties_break_low(self, setup):
        mdp, fm, *_ = setup
        pi = greedy_policy(fm, np.zeros((4, 2)))
        for table in pi.tables:
            assert np.all(np.argmax(table, axis=1) == 0)


class TestSkipOptimalPolicy:
    def test_consistent_with_its_own_evaluation(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        pistar, vals = skip_optimal_policy(mdp, fm, guess, behavior, config.skip)
        again = evaluate_policy(mdp, pistar)
        for h in range(mdp.horizon + 1):
            np.testing.assert_allclose(vals.v[h], again.v[h], atol=1e-12)

    def test_zero_guess_mixes_toward_behavior(self, setup):
        # zero guess: every interior range is 0, so omega = 1 and the policy
        # follows the behavior policy at interior stages
        mdp, fm, behavior, _, config, _ = setup
        pistar, _ = skip_optimal_policy(mdp, fm, zero_guess(mdp.horizon, 2), behavior, config.skip)
        for h in range(1, mdp.horizon):
            np.testing.assert_allclose(pistar.tables[h], behavior.tables[h], atol=1e-12)

    def test_greedy_at_start(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        pistar, vals = skip_optimal_policy(mdp, fm, guess, behavior, config.skip)
        assert pistar.tables[0][0].max() == 1.0


class TestVisitedBlocksShared:
    """Every guess of a solve, and both calibration passes over a replicate, share
    one grouping of each stage's feature blocks."""

    @pytest.fixture
    def groupings(self, monkeypatch):
        calls = []
        unique = np.unique

        def counting(ar, *args, **kwargs):
            if ar.dtype.kind == "V":  # the byte keys of one stage's blocks
                calls.append(ar.shape)
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        return calls

    def test_solve_groups_each_stage_once(self, setup, groupings):
        mdp, fm, behavior, guess, config, _ = setup
        ds = sample_trajectories(mdp, behavior, 300, [3000, 1], fm)
        guesses = guess_grid(guess, 0.3, 16, seed=2)
        assert len(guesses) == 16
        solve(ds, guesses, config, fm)
        assert len(groupings) == ds.horizon
        assert ds.visited_blocks is ds.visited_blocks
        assert len(groupings) == ds.horizon

    def test_calibrate_groups_each_replicate_once(self, setup, groupings):
        mdp, fm, behavior, guess, config, _ = setup
        calibrate(mdp, fm, behavior, guess, 200, config, replicates=2, delta=0.5, seed=19)
        assert len(groupings) == 2 * mdp.horizon


class TestCalibration:
    def test_produces_usable_thresholds(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        cal = calibrate(mdp, fm, behavior, guess, 400, config, replicates=4, delta=0.25, seed=17)
        assert cal.beta > 0 and cal.eps_bar > 0
        assert len(cal.anchor_stats) == 4
        assert np.isfinite(cal.tightness_values).all()

    def test_quantile_respects_delta(self, setup):
        mdp, fm, behavior, guess, config, _ = setup
        cal = calibrate(mdp, fm, behavior, guess, 400, config, replicates=8, delta=0.5, seed=18)
        # with delta = 0.5 the radius is the median-order statistic, so some
        # replicates may exceed it
        assert cal.beta <= cal.anchor_stats.max() + 1e-12


class TestDerivedConstants:
    def test_alpha_formula(self):
        dc = derived_constants(d=2, horizon=11, eps=1.2, delta=0.05, l1=1.0, l2=1.0, eta=0.0, c_conc=2.0, n=1000)
        assert dc.alpha == pytest.approx(1.2 / 144.0, abs=1e-15)

    def test_zero_misspecification_propagates(self):
        dc = derived_constants(d=2, horizon=3, eps=0.5, delta=0.05, l1=1.0, l2=2.0, eta=0.0, c_conc=1.5, n=500)
        assert dc.eta_bar == 0.0

    def test_lambda_from_bound_example(self):
        assert lambda_from_bound(4, 2, 16.0) == pytest.approx(1.0, abs=1e-12)

    def test_table_is_finite_and_positive(self):
        dc = derived_constants(d=3, horizon=4, eps=0.8, delta=0.1, l1=1.0, l2=3.0, eta=1e-4, c_conc=2.0, n=10_000)
        for name in ("l2_bar", "sqrt_lam", "lam", "eps_check", "beta_bar", "beta", "eps_bar", "eps_tilde"):
            assert np.isfinite(getattr(dc, name)) and getattr(dc, name) > 0
        assert dc.log_guess_cover > 0
        assert dc.d0 == 18  # 4 * 3 * ln ln 3 + 16 = 17.13, ceiled

    def test_lambda_consistent_with_bound(self):
        dc = derived_constants(d=2, horizon=4, eps=1.0, delta=0.05, l1=1.0, l2=1.0, eta=0.0, c_conc=1.0, n=100)
        assert dc.lam == pytest.approx(lambda_from_bound(4, 2, dc.l2_bar), rel=1e-12)
