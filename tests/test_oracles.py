import itertools

import numpy as np
import pytest

from conftest import one_step_bandit, random_tabular_mdp
from skiprl.design import build_true_guess, guess_from_fit, guess_grid, zero_guess
from skiprl.envs import fit_policy_stack, random_linear_mdp, sample_policies
from skiprl.learner import clipped_v
from skiprl.mdp import (
    Policy,
    StagedMdp,
    ValidationError,
    count_deterministic_policies,
    deterministic_policy,
    evaluate_policy,
    mix_policies,
    occupancy,
    optimal_policy,
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
    expected_skip_target,
    skip_target,
    suboptimality,
)
from skiprl.skipping import SkipParams


def _concentrability_by_loop(mdp, behavior):
    """Reference: one backward DP per target state, then a scalar scan that keeps the
    first worst ratio; ``(c_conc, witness, max_reach)``."""
    mu = occupancy(mdp, behavior).nu
    reach = [np.zeros(k) for k in mdp.stage_sizes[:-1]]
    for stage, target in ((h, s) for h in range(mdp.horizon) for s in range(mdp.stage_sizes[h])):
        u = np.eye(mdp.stage_sizes[stage])[target]
        for h in range(stage - 1, -1, -1):
            u = (mdp.transitions[h] @ u).max(axis=1)
        reach[stage][target] = u[0]
    best, witness = 0.0, (0, 0, 0)
    for h, (s, a) in ((h, sa) for h in range(mdp.horizon) for sa in np.ndindex(mu[h].shape)):
        ratio = float("inf") if mu[h][s, a] <= 0.0 else reach[h][s] / mu[h][s, a]
        if reach[h][s] > 0.0 and ratio > best:
            best, witness = ratio, (h, s, a)
    return best, witness, reach


def _skip_target_by_paths(mdp, fm, guess, behavior, f, h, params):
    """Reference: the scalar skip target of every (s, a) at stage h and every suffix of
    states and actions after it, weighted by its behavior and transition probability."""
    H, A = mdp.horizon, mdp.num_actions
    out = np.zeros((mdp.stage_sizes[h], A))
    for s, a in np.ndindex(out.shape):
        for suffix in itertools.product(*map(range, mdp.stage_sizes[h + 1:]), *[range(A)] * (H - h - 1)):
            states, acts = [0] * h + [s, *suffix[:H - h]], [0] * h + [a, *suffix[H - h:]]
            weight = np.prod([mdp.transitions[t][states[t], acts[t], states[t + 1]] for t in range(h, H)])
            weight *= np.prod([behavior.tables[t][states[t], acts[t]] for t in range(h + 1, H)])
            rewards = [mdp.reward_means[t][states[t], acts[t]] for t in range(H)]
            out[s, a] += weight * skip_target(guess, fm, states, rewards, h, f, params)
    return out


class TestConcentrability:
    def test_single_chain_uniform_behavior(self):
        # one state per stage, two actions: best reachability is 1, mu = 1/2
        transitions = [np.ones((1, 2, 1)), np.ones((1, 2, 1))]
        rewards = [np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2))]
        mdp = StagedMdp(2, (1, 1, 1), 2, transitions, rewards)
        report = concentrability(mdp, uniform_policy(mdp))
        assert report.c_conc == pytest.approx(2.0, abs=1e-12)

    def test_single_action_everything_is_one(self):
        rng = np.random.default_rng(0)
        mdp = random_tabular_mdp(rng, horizon=3, max_states=3, max_actions=1)
        report = concentrability(mdp, uniform_policy(mdp))
        assert report.c_conc == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_behavior_support_ratio_one(self):
        # deterministic MDP + deterministic behavior: on-support ratios are exactly 1
        transitions = [
            np.array([[[1.0, 0.0], [0.0, 1.0]]]),
            np.array([[[1.0], [1.0]], [[1.0], [1.0]]]),
        ]
        rewards = [np.zeros((1, 2)), np.zeros((2, 2)), np.zeros((1, 2))]
        mdp = StagedMdp(2, (1, 2, 1), 2, transitions, rewards)
        behavior = deterministic_policy(mdp, [[0], [1, 1], [0]])
        report = concentrability(mdp, behavior)
        mu = report.mu
        for h in range(mdp.horizon):
            for s in range(mdp.stage_sizes[h]):
                for a in range(mdp.num_actions):
                    if mu[h][s, a] > 0:
                        assert report.max_reach[h][s] / mu[h][s, a] == pytest.approx(1.0, abs=1e-12)
        assert report.c_conc == np.inf  # off-support pairs are reachable

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 10:
            mdp = random_tabular_mdp(rng, max_states=3, max_actions=2)
            if count_deterministic_policies(mdp) > 4096:
                continue
            behavior = mix_policies(uniform_policy(mdp), random_policy(mdp, rng), 0.5)
            dp = concentrability(mdp, behavior).c_conc
            brute = concentrability_by_enumeration(mdp, behavior)
            assert dp == pytest.approx(brute, abs=1e-10)
            done += 1

    def test_stacked_reach_matches_per_target_loop(self):
        # byte for byte, also where zero-mass pairs tie at an infinite ratio
        rng = np.random.default_rng(2)
        for i in range(60):
            mdp = random_tabular_mdp(rng, max_states=5, max_actions=3)
            behavior = optimal_policy(mdp)[0] if i % 3 == 0 else mix_policies(
                uniform_policy(mdp), random_policy(mdp, rng), float(rng.uniform()))
            report = concentrability(mdp, behavior)
            c_conc, witness, reach = _concentrability_by_loop(mdp, behavior)
            assert (report.c_conc, report.witness) == (c_conc, witness)
            assert [r.tobytes() for r in report.max_reach] == [r.tobytes() for r in reach]

    def test_tied_ratios_keep_first_witness(self):
        # stage 1 ties at ratio 10 on (1, 0, 1) and (1, 1, 0); the first one is kept
        transitions = [np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.ones((2, 2, 1))]
        rewards = [np.zeros((1, 2)), np.zeros((2, 2)), np.zeros((1, 2))]
        mdp = StagedMdp(2, (1, 2, 1), 2, transitions, rewards)
        behavior = Policy([np.full((1, 2), 0.5), np.array([[0.8, 0.2], [0.2, 0.8]]), np.full((1, 2), 0.5)])
        report = concentrability(mdp, behavior)
        assert (report.c_conc, report.witness) == (10.0, (1, 0, 1))
        assert (report.c_conc, report.witness) == _concentrability_by_loop(mdp, behavior)[:2]

    def test_witness_reproduces_coefficient(self, fixed_instance):
        mdp, _ = fixed_instance
        report = concentrability(mdp, uniform_policy(mdp))
        h, s, a = report.witness
        assert report.max_reach[h][s] / report.mu[h][s, a] == pytest.approx(report.c_conc, abs=1e-10)
        assert report.c_conc >= 1.0


class TestLsqDecomposition:
    def test_hundred_draws_no_violation(self):
        assert check_lsq_decomposition(seed=0) >= -1e-9

    def test_clean_regression_recovers_parameter(self):
        # gamma = delta = 0 and lam -> 0: theta_hat = theta*, so the bound is loose
        rng = np.random.default_rng(2)
        A = rng.normal(size=(30, 3))
        theta = rng.normal(size=3)
        lam = 1e-12
        V = lam * np.eye(3) + A.T @ A
        theta_hat = np.linalg.solve(V, A.T @ (A @ theta))
        lhs = np.sqrt((theta_hat - theta) @ V @ (theta_hat - theta))
        assert lhs <= np.sqrt(lam) * np.linalg.norm(theta) + 1e-6

    def test_no_model_error_term(self):
        # delta = 0: bound reduces to sqrt(lam)||theta|| + ||iota||_{V^-1}
        rng = np.random.default_rng(3)
        A = rng.normal(size=(20, 2))
        theta = rng.normal(size=2)
        gamma = rng.normal(size=20)
        lam = 0.5
        V = lam * np.eye(2) + A.T @ A
        theta_hat = np.linalg.solve(V, A.T @ (A @ theta + gamma))
        iota = A.T @ gamma
        lhs = np.sqrt((theta_hat - theta) @ V @ (theta_hat - theta))
        rhs = np.sqrt(lam) * np.linalg.norm(theta) + np.sqrt(iota @ np.linalg.solve(V, iota))
        assert lhs <= rhs + 1e-9


class TestEllipticalPotential:
    def test_hundred_draws_no_violation(self):
        assert check_elliptical_potential(seed=0) >= -1e-9

    def test_zero_vectors(self):
        # degenerate stream contributes nothing to the left side
        lam, d, n, L = 1.0, 3, 10, 1.0
        rhs = 2 * d * np.log((d * lam + n * L * L) / (d * lam))
        assert 0.0 <= rhs

    def test_single_step(self):
        lam, L = 1.0, 1.0
        a = np.array([L])
        lhs = min(1.0, float(a @ a) / lam)
        rhs = 2 * np.log((lam + L * L) / lam)
        assert lhs <= rhs + 1e-12


class TestProjectionBound:
    def test_hundred_draws_no_violation(self):
        assert check_projection_bound(seed=0) >= -1e-9

    def test_zero_scalars(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(5, 2))
        M = np.eye(2) + A.T @ A
        v = A.T @ np.zeros(5)
        assert v @ np.linalg.solve(M, v) == 0.0

    def test_rank_one_closed_form(self):
        a = np.array([1.5, -0.5])
        b, c, lam = 0.7, 0.7, 0.3
        v = a * b
        M = np.outer(a, a) + lam * np.eye(2)
        lhs = float(v @ np.linalg.solve(M, v))
        closed = b * b * float(a @ a) / (float(a @ a) + lam)
        assert lhs == pytest.approx(closed, abs=1e-12)
        assert lhs <= c * c + 1e-12


class TestPerformanceDifference:
    def test_same_policy_zero(self):
        rng = np.random.default_rng(5)
        mdp = random_tabular_mdp(rng)
        pi = random_policy(mdp, rng)
        assert check_perf_diff(mdp, pi, pi) <= 1e-12

    def test_random_pairs_tiny_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mdp = random_tabular_mdp(rng, max_states=5, max_actions=3)
            assert check_perf_diff(mdp, random_policy(mdp, rng), random_policy(mdp, rng)) <= 1e-10

    def test_hand_equality_on_bandit(self):
        # det arm 1 vs uniform: v-diff = 0.7 - 0.5 = 0.2 equals E_det[q_unif - v_unif]
        mdp = one_step_bandit()
        det = deterministic_policy(mdp, [[1], [0]])
        unif = uniform_policy(mdp)
        v_det = evaluate_policy(mdp, det).v[0][0]
        v_unif = evaluate_policy(mdp, unif).v[0][0]
        assert v_det - v_unif == pytest.approx(0.2, abs=1e-12)
        assert check_perf_diff(mdp, det, unif) <= 1e-12


class TestRangeBound:
    def test_zero_reward_both_sides_zero(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=0, reward_scale=0.0)
        fit = fit_policy_stack(mdp, fm, sample_policies(mdp, 20, 0))
        assert check_range_bound(mdp, fm, guess_from_fit(fit), fit) >= -1e-12

    def test_single_action_both_sides_zero(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 1, seed=1)
        fit = fit_policy_stack(mdp, fm, sample_policies(mdp, 10, 0))
        assert check_range_bound(mdp, fm, guess_from_fit(fit), fit) >= -1e-12

    def test_random_instances_no_violation(self, small_linear_batch):
        for mdp, fm, fit, guess in small_linear_batch[:6]:
            assert check_range_bound(mdp, fm, guess, fit) >= -1e-6


class TestSkipRealizability:
    def test_zero_everything(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=3, reward_scale=0.0)
        behavior = uniform_policy(mdp)
        guess = zero_guess(3, 2)
        params = SkipParams(alpha=0.3)
        res = check_skip_realizability(mdp, fm, guess, behavior, lambda t, s: 0.0, 0, params)
        assert res <= 1e-12

    def test_never_skip_reduces_to_one_step(self):
        # alpha tiny: the stop is always at h+1 and the target is the one-step
        # backup, which is linear on exact instances
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 3, 1), 2, seed=4)
        behavior = uniform_policy(mdp)
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 30, 0))
        params = SkipParams(alpha=1e-9)
        theta = np.array([0.2, -0.4])
        f = lambda t, s: clipped_v(theta, fm, t, s)
        for h in range(mdp.horizon):
            assert check_skip_realizability(mdp, fm, guess, behavior, f, h, params) <= 1e-8

    def test_random_value_functions_realizable(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=5)
        behavior = uniform_policy(mdp)
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 40, 0))
        params = SkipParams(alpha=0.4)
        rng = np.random.default_rng(9)
        for _ in range(3):
            theta = rng.normal(size=2)
            f = lambda t, s: clipped_v(theta, fm, t, s)
            for h in range(mdp.horizon):
                assert check_skip_realizability(mdp, fm, guess, behavior, f, h, params) <= 1e-6

    def test_recursion_matches_path_enumeration(self):
        # true, random and zero guesses, several alpha, clipped value functions
        rng = np.random.default_rng(13)
        worst = 0.0
        for seed in range(8):
            H = int(rng.integers(2, 4))
            sizes = (1, *rng.integers(1, 4, size=H - 1).tolist(), 1)
            mdp, fm = random_linear_mdp(2, H, sizes, int(rng.integers(1, 3)), seed=seed)
            behavior = random_policy(mdp, rng)
            true = build_true_guess(mdp, fm, sample_policies(mdp, 20, seed))
            theta = rng.normal(size=2)
            f = lambda t, s: clipped_v(theta, fm, t, s)
            for guess, alpha in itertools.product(guess_grid(true, 0.3, 3, seed), (0.05, 0.4, 1.0)):
                params = SkipParams(alpha=alpha)
                for h in range(H):
                    dp = expected_skip_target(mdp, fm, guess, behavior, f, h, params)
                    paths = _skip_target_by_paths(mdp, fm, guess, behavior, f, h, params)
                    worst = max(worst, float(np.abs(dp - paths).max()))
        assert worst <= 1e-12

    def test_long_horizon_checked(self):
        # 1 679 616 suffix paths from stage 0: the recursion checks it in one pass
        mdp, fm = random_linear_mdp(2, 9, (1, *[3] * 8, 1), 2, seed=14)
        behavior = uniform_policy(mdp)
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
        params = SkipParams(alpha=0.4)
        theta = np.array([0.6, -0.2])
        f = lambda t, s: clipped_v(theta, fm, t, s)
        for h in range(mdp.horizon):
            assert check_skip_realizability(mdp, fm, guess, behavior, f, h, params) <= 1e-10

    def test_terminal_value_contract(self):
        mdp, fm = random_linear_mdp(2, 2, (1, 3, 1), 2, seed=7)
        behavior = uniform_policy(mdp)
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 10, 0))
        with pytest.raises(ValidationError):
            check_skip_realizability(
                mdp, fm, guess, behavior, lambda t, s: 1.0, 0, SkipParams(alpha=0.3)
            )

    def test_expectation_matches_sampled_targets(self):
        # independent cross-check of the enumeration: Monte-Carlo average of
        # per-trajectory skip targets from a forced (s, a) start
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=8)
        behavior = uniform_policy(mdp)
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
        params = SkipParams(alpha=0.5)
        theta = np.array([0.5, 0.1])
        f = lambda t, s: clipped_v(theta, fm, t, s)
        h, s, a = 0, 0, 1
        exact = expected_skip_target(mdp, fm, guess, behavior, f, h, params)[s, a]
        forced = [t.copy() for t in behavior.tables]
        forced[h] = np.zeros_like(forced[h])
        forced[h][s, a] = 1.0
        from skiprl.mdp import Policy

        trajs = sample_trajectories(mdp, Policy(forced), 20_000, 31, fm)
        samples = np.array([skip_target(guess, fm, states, rewards, h, f, params)
                            for states, rewards in zip(trajs.states, trajs.rewards)])
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - exact) <= 3 * se + 1e-9


class TestSuboptimality:
    def test_optimal_policy_zero(self):
        rng = np.random.default_rng(10)
        mdp = random_tabular_mdp(rng)
        pi, _ = optimal_policy(mdp)
        assert abs(suboptimality(mdp, pi)) <= 1e-12

    def test_zero_reward_any_policy(self):
        rng = np.random.default_rng(11)
        mdp = random_tabular_mdp(rng)
        zero = StagedMdp(
            mdp.horizon,
            mdp.stage_sizes,
            mdp.num_actions,
            mdp.transitions,
            [np.zeros_like(r) for r in mdp.reward_means],
        )
        assert suboptimality(zero, random_policy(zero, rng)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_on_bandit(self):
        mdp = one_step_bandit()
        worst = deterministic_policy(mdp, [[0], [0]])
        assert suboptimality(mdp, worst) == pytest.approx(0.4, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mdp = random_tabular_mdp(rng)
            assert suboptimality(mdp, random_policy(mdp, rng)) >= -1e-10


def test_checks_deterministic_given_seed():
    assert check_lsq_decomposition(5) == check_lsq_decomposition(5)
    assert check_elliptical_potential(5) == check_elliptical_potential(5)
    assert check_projection_bound(5) == check_projection_bound(5)
