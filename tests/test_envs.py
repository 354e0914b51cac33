import numpy as np
import pytest

from conftest import random_tabular_mdp
from skiprl.envs import (
    FeatureMap,
    GenerationError,
    StackParams,
    estimate_misspecification,
    fit_policy_stack,
    random_linear_mdp,
    sample_policies,
    stage_ranges,
)
from skiprl.mdp import (
    StagedMdp,
    ValidationError,
    enumerate_deterministic_policies,
    evaluate_policy,
    optimal_policy,
    random_policy,
    uniform_policy,
)


def ones_featmap(mdp):
    """d=1 feature map with phi identically (1,) on non-terminal stages."""
    phi = [np.ones((k, mdp.num_actions, 1)) for k in mdp.stage_sizes[:-1]]
    phi.append(np.zeros((1, mdp.num_actions, 1)))
    return FeatureMap(d=1, phi=phi, l1_bound=1.0)


class TestGenerator:
    def test_output_valid_and_norm_bounded(self):
        mdp, fm = random_linear_mdp(3, 4, (1, 5, 4, 3, 1), 3, seed=0)
        fm.check_against(mdp)  # raises on any inconsistency
        for h in range(mdp.horizon):
            assert np.linalg.norm(fm.phi[h], axis=2).max() <= fm.l1_bound + 1e-12

    def test_fifty_policies_fit_exactly(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 3, 1), 2, seed=1)
        rng = np.random.default_rng(0)
        fit = fit_policy_stack(mdp, fm, [random_policy(mdp, rng) for _ in range(50)])
        assert np.all(fit.residuals <= 1e-8)

    def test_constant_feature_constant_reward(self):
        # phi = (1), rewards all c: q at stage h is c * (H - h), so theta_h = c (H - h)
        c = 0.35
        rng = np.random.default_rng(9)
        base = random_tabular_mdp(rng, horizon=3, max_states=3, max_actions=2)
        rewards = [np.full_like(r, c) for r in base.reward_means[:-1]] + [base.reward_means[-1]]
        mdp = StagedMdp(base.horizon, base.stage_sizes, base.num_actions, base.transitions, rewards)
        fm = ones_featmap(mdp)
        params = fit_policy_stack(mdp, fm, [uniform_policy(mdp)])
        for h in range(mdp.horizon):
            assert params.theta[h, 0, 0] == pytest.approx(c * (mdp.horizon - h), abs=1e-10)
        assert params.residuals[0] <= 1e-10

    def test_reward_scale_zero(self):
        mdp, _ = random_linear_mdp(2, 2, (1, 3, 1), 2, seed=4, reward_scale=0.0)
        assert all(np.all(r == 0) for r in mdp.reward_means)

    def test_rejects_bad_arguments(self):
        with pytest.raises(GenerationError):
            random_linear_mdp(0, 2, (1, 2, 1), 2, seed=0)
        with pytest.raises(GenerationError):
            random_linear_mdp(2, 2, (1, 2), 2, seed=0)

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"reward_kind": "bogus"}, "reward_kind"),
            ({"num_actions": 0}, "num_actions"),
            ({"num_actions": -1}, "num_actions"),
            ({"stage_sizes": (2, 3, 1)}, "exactly one state"),
            ({"horizon": 0, "stage_sizes": (1,)}, "horizon"),
            ({"stage_sizes": (1, 4.7, 1)}, "stage 1 size must be a positive integer, got 4.7"),
            ({"stage_sizes": (1, True, 1)}, "stage 1 size must be a positive integer, got True"),
        ],
        ids=["reward-kind", "no-actions", "negative-actions", "wide-first-stage", "zero-horizon", "fraction-size",
             "bool-size"],
    )
    def test_invalid_structure_named_at_once(self, change, named):
        kwargs = dict(d=2, horizon=2, stage_sizes=(1, 3, 1), num_actions=2, seed=0)
        kwargs.update(change)
        with pytest.raises(GenerationError) as info:
            random_linear_mdp(**kwargs)
        assert named in str(info.value) and "round" not in str(info.value)


class TestFitPolicyParams:
    """``fit_policy_stack`` on one policy, the P = 1 stack."""

    def test_zero_rewards_zero_theta(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=2, reward_scale=0.0)
        params = fit_policy_stack(mdp, fm, [uniform_policy(mdp)])
        np.testing.assert_allclose(params.theta, 0.0, atol=1e-12)
        assert params.residuals[0] <= 1e-12

    def test_terminal_theta_zero(self):
        mdp, fm = random_linear_mdp(2, 2, (1, 3, 1), 2, seed=3)
        params = fit_policy_stack(mdp, fm, [uniform_policy(mdp)])
        assert np.all(params.theta[-1] == 0.0)

    def test_nonzero_terminal_block_rejected(self):
        theta = np.zeros((3, 2, 2))
        StackParams(theta=theta, l2_bounds=np.zeros(2), residuals=np.zeros(2))
        theta[-1, 1, 0] = 1e-300
        with pytest.raises(ValidationError, match="terminal"):
            StackParams(theta=theta, l2_bounds=np.zeros(2), residuals=np.zeros(2))

    def test_residual_invariant_to_state_permutation(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=5)
        pi = uniform_policy(mdp)
        base = fit_policy_stack(mdp, fm, [pi]).residuals[0]
        perm = np.array([2, 0, 3, 1])
        transitions = list(mdp.transitions)
        transitions[0] = mdp.transitions[0][:, :, perm]
        transitions[1] = mdp.transitions[1][perm]
        rewards = list(mdp.reward_means)
        rewards[1] = mdp.reward_means[1][perm]
        phi = list(fm.phi)
        phi[1] = fm.phi[1][perm]
        permuted = StagedMdp(mdp.horizon, mdp.stage_sizes, mdp.num_actions, transitions, rewards)
        pfm = FeatureMap(d=fm.d, phi=phi, l1_bound=fm.l1_bound)
        assert fit_policy_stack(permuted, pfm, [pi]).residuals[0] == pytest.approx(base, abs=1e-12)

    def test_l2_bound_covers_all_stages(self):
        mdp, fm = random_linear_mdp(3, 3, (1, 4, 4, 1), 2, seed=6)
        params = fit_policy_stack(mdp, fm, [uniform_policy(mdp)])
        assert params.l2_bounds[0] >= np.linalg.norm(params.theta[:, 0], axis=1).max() - 1e-15

    def test_rank_deficiency_flagged(self):
        # two-dimensional features confined to a line: stage matrix has rank 1
        mdp = random_tabular_mdp(np.random.default_rng(12), horizon=2, max_states=2, max_actions=2)
        phi = []
        for k in mdp.stage_sizes[:-1]:
            block = np.zeros((k, mdp.num_actions, 2))
            block[..., 0] = 1.0
            phi.append(block)
        phi.append(np.zeros((1, mdp.num_actions, 2)))
        fm = FeatureMap(d=2, phi=phi, l1_bound=1.0)
        params = fit_policy_stack(mdp, fm, [uniform_policy(mdp)])
        assert params.rank_deficient_stages == tuple(range(mdp.horizon))

    def test_optimal_policy_parameters_reproduce_qstar(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=8)
        pistar, star = optimal_policy(mdp)
        params = fit_policy_stack(mdp, fm, [pistar])
        for h in range(mdp.horizon):
            fitted = fm.phi[h] @ params.theta[h, 0]
            assert np.abs(fitted - star.q[h]).max() <= 1e-8


class TestMisspecification:
    def test_exact_linear_is_tiny(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=7)
        assert estimate_misspecification(mdp, fm, 50, seed=0) <= 1e-8

    def test_monotone_in_policy_sample(self):
        mdp, fm = random_linear_mdp(2, 2, (1, 3, 1), 2, seed=9)
        rng = np.random.default_rng(1)
        residuals = list(fit_policy_stack(mdp, fm, [random_policy(mdp, rng) for _ in range(30)]).residuals)
        for k in range(1, 31):
            assert max(residuals[:k]) <= max(residuals) + 1e-18

    def test_shared_feature_different_values_positive(self):
        # two stage-1 states with identical phi but different rewards: no theta fits both
        transitions = [
            np.array([[[0.5, 0.5], [0.5, 0.5]]]),
            np.array([[[1.0], [1.0]], [[1.0], [1.0]]]),
        ]
        rewards = [np.array([[0.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros((1, 2))]
        mdp = StagedMdp(2, (1, 2, 1), 2, transitions, rewards)
        fm = ones_featmap(mdp)
        eta = estimate_misspecification(mdp, fm, 10, seed=0)
        assert eta >= 0.5 - 1e-12


def state_ranges(mdp, fm, policies, stage):
    """``stage_ranges`` of the policies' fitted stage parameters: one range per state."""
    return stage_ranges(fm, fit_policy_stack(mdp, fm, policies).theta[stage], stage)


class TestStateRange:
    def test_single_action_zero(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 1, seed=10)
        policies = sample_policies(mdp, 10, 0)
        assert not state_ranges(mdp, fm, policies, 1).any()

    def test_identical_action_features_zero(self):
        rng = np.random.default_rng(15)
        mdp = random_tabular_mdp(rng, horizon=2, max_states=2, max_actions=3)
        fm = ones_featmap(mdp)
        policies = [uniform_policy(mdp), random_policy(mdp, rng)]
        assert not state_ranges(mdp, fm, policies, 1).any()

    def test_matches_value_spread_on_exact_instances(self):
        # brute force: max over deterministic policies of max_{a,a'} q(s,a) - q(s,a')
        mdp, fm = random_linear_mdp(2, 2, (1, 3, 1), 2, seed=11)
        policies = list(enumerate_deterministic_policies(mdp))
        ranges = state_ranges(mdp, fm, policies, 1)
        for s in range(mdp.stage_sizes[1]):
            spread = 0.0
            for pi in policies:
                q = evaluate_policy(mdp, pi).q[1][s]
                spread = max(spread, float(q.max() - q.min()))
            assert ranges[s] == pytest.approx(spread, abs=1e-9)

    def test_value_sandwich_with_range(self):
        # |v^pi(s) - q^pi(s,a)| <= range(s) + 2 eta_hat + 1e-6 over the sampled policies
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=13)
        policies = sample_policies(mdp, 40, 1)
        eta_hat = estimate_misspecification(mdp, fm, 40, seed=1)
        for stage in range(1, mdp.horizon):
            ranges = state_ranges(mdp, fm, policies, stage)
            for s in range(mdp.stage_sizes[stage]):
                rng_val = ranges[s]
                for pi in policies:
                    vals = evaluate_policy(mdp, pi)
                    gap = np.abs(vals.v[stage][s] - vals.q[stage][s]).max()
                    assert gap <= rng_val + 2 * eta_hat + 1e-6
