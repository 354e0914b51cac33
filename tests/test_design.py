import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skiprl.design import (
    DesignError,
    Guess,
    approx_optimal_design,
    build_true_guess,
    covers,
    epsilon_net,
    guess_from_fit,
    guess_grid,
    panel_size,
    zero_guess,
)
from skiprl.envs import fit_policy_stack, random_linear_mdp, sample_policies
from skiprl.mdp import ValidationError


class TestPanelSize:
    def test_small_dimensions_clamp_to_16(self):
        assert panel_size(1) == 16
        assert panel_size(2) == 16  # ln ln 2 < 0

    def test_d4_value(self):
        # 4 * 4 * ln(ln 4) + 16 = 21.226..., ceil -> 22
        assert panel_size(4) == 22

    def test_monotone(self):
        vals = [panel_size(d) for d in range(1, 41)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestApproxOptimalDesign:
    def test_standard_basis_uniform(self):
        for d in (2, 3, 5):
            res = approx_optimal_design(np.eye(d))
            np.testing.assert_allclose(np.sort(res.weights), np.full(d, 1.0 / d), atol=1e-12)
            assert res.max_dual == pytest.approx(d, abs=1e-9)

    def test_single_vector(self):
        res = approx_optimal_design(np.array([[0.3, -1.2, 0.5]]))
        assert res.weights.shape == (1,)
        assert res.weights[0] == pytest.approx(1.0)
        assert res.max_dual == pytest.approx(1.0, abs=1e-9)

    def test_duplicates_do_not_change_design(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        doubled = np.vstack([X, X[::-1]])
        a = approx_optimal_design(X)
        b = approx_optimal_design(doubled)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_conditions_on_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 40))
        X = rng.normal(size=(m, d)) * rng.uniform(0.1, 5.0)
        res = approx_optimal_design(X)
        assert res.max_dual <= 2 * d + 1e-6
        assert res.kernel_residual <= 1e-8
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert res.support.shape[0] <= panel_size(d)

    def test_subspace_inputs(self):
        # vectors confined to a plane in R^4; kernel condition must still hold
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(2, 4))
        X = rng.normal(size=(20, 2)) @ basis
        res = approx_optimal_design(X)
        assert res.max_dual <= 8 + 1e-6
        assert res.kernel_residual <= 1e-8

    def test_all_zero_inputs(self):
        res = approx_optimal_design(np.zeros((4, 3)))
        assert res.support.shape == (1, 3)
        assert res.max_dual == 0.0

    def test_nonconvergence_reports_worst(self):
        with pytest.raises(DesignError) as err:
            approx_optimal_design(np.eye(3), max_iters=0)
        assert err.value.worst is not None


class TestTrueGuess:
    def test_zero_reward_panels_zero(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=0, reward_scale=0.0)
        guess = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
        for p in guess.panels:
            np.testing.assert_allclose(p, 0.0, atol=1e-12)

    def test_panels_subset_of_fitted_parameters(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=1)
        policies = sample_policies(mdp, 60, 0)
        fitted = fit_policy_stack(mdp, fm, policies)
        guess = build_true_guess(mdp, fm, policies)
        for stage in range(1, mdp.horizon):
            pool = fitted.theta[stage]
            for row in guess.panel(stage):
                if np.all(row == 0):
                    continue  # zero padding
                assert np.min(np.linalg.norm(pool - row, axis=1)) <= 1e-10

    def test_deterministic(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=2)
        policies = sample_policies(mdp, 40, 0)
        a = build_true_guess(mdp, fm, policies)
        b = build_true_guess(mdp, fm, policies)
        for pa, pb in zip(a.panels, b.panels):
            np.testing.assert_array_equal(pa, pb)

    def test_empty_policy_sample_rejected(self):
        mdp, fm = random_linear_mdp(2, 2, (1, 2, 1), 2, seed=3)
        with pytest.raises(ValidationError):
            build_true_guess(mdp, fm, [])

    def test_guess_from_fit_is_the_true_guess(self):
        # the range check builds its guess from the fit it then reads
        for seed in range(4):
            mdp, fm = random_linear_mdp(3, 4, (1, 4, 3, 5, 1), 3, seed=seed)
            policies = sample_policies(mdp, 60, seed)
            want = build_true_guess(mdp, fm, policies)
            got = guess_from_fit(fit_policy_stack(mdp, fm, policies))
            assert (got.horizon, got.radius_bound) == (want.horizon, want.radius_bound)
            assert [p.tobytes() for p in got.panels] == [p.tobytes() for p in want.panels]


class TestGuessType:
    def test_padding_and_accessors(self):
        g = Guess.from_stage_vectors(3, 2, {1: [[1.0, 0.0]], 2: [[0.0, 2.0], [1.0, 1.0]]})
        assert g.panel(1).shape == (panel_size(2), 2)
        assert g.panel(2)[1, 1] == 1.0
        with pytest.raises(ValidationError):
            g.panel(0)
        with pytest.raises(ValidationError):
            g.panel(3)

    def test_radius_enforced(self):
        with pytest.raises(ValidationError):
            Guess.from_stage_vectors(2, 2, {1: [[5.0, 0.0]]}, radius_bound=1.0)


class TestGuessGrid:
    def test_cap_one_returns_true_guess(self):
        g = Guess.from_stage_vectors(3, 2, {1: [[0.5, 0.0]]}, radius_bound=1.0)
        out = guess_grid(g, 0.3, 1, seed=0)
        assert out == [g]

    def test_grid_contents(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=5)
        tg = build_true_guess(mdp, fm, sample_policies(mdp, 30, 0))
        out = guess_grid(tg, 0.4, 9, seed=1)
        assert len(out) == 9
        assert out[0] is tg
        for p in out[-1].panels:  # the all-zero guess closes the grid
            assert np.all(p == 0)
        for g in out:
            for p in g.panels:
                assert np.linalg.norm(p, axis=1).max() <= g.radius_bound + 1e-9

    @pytest.mark.parametrize("cap", [2.5, 3.0, True], ids=["fractional", "float", "bool"])
    def test_non_integer_cap_refused(self, cap):
        # a cap of 2.5 used to build 3 guesses
        g = Guess.from_stage_vectors(3, 2, {1: [[0.5, 0.0]]}, radius_bound=1.0)
        with pytest.raises(ValidationError, match=f"^count_cap must be an integer, got {cap!r}$"):
            guess_grid(g, 0.3, cap, seed=0)
        assert len(guess_grid(g, 0.3, np.int64(3), seed=0)) == 3

    def test_zero_spread_copies_equal_true_guess(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=6)
        tg = build_true_guess(mdp, fm, sample_policies(mdp, 30, 0))
        out = guess_grid(tg, 0.0, 5, seed=2)
        for g in out[1:-1]:
            for pa, pb in zip(g.panels, tg.panels):
                np.testing.assert_array_equal(pa, pb)


class TestEpsilonNet:
    def test_radius_below_xi_single_origin(self):
        net = epsilon_net(0.4, 3, 0.5)
        np.testing.assert_array_equal(net, np.zeros((1, 3)))

    def test_one_dimensional_cover(self):
        net = epsilon_net(1.0, 1, 0.5)
        assert net.shape[0] <= 5
        points = np.linspace(-1, 1, 201)[:, None]
        assert covers(points, net, 0.5)

    def test_monte_carlo_cover(self):
        rng = np.random.default_rng(8)
        for d, radius, xi in ((2, 1.0, 0.3), (3, 0.8, 0.4)):
            net = epsilon_net(radius, d, xi)
            raw = rng.normal(size=(10_000, d))
            raw = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            pts = raw * (rng.uniform(0, 1, size=(10_000, 1)) ** (1.0 / d)) * radius
            assert covers(pts, net, xi)

    def test_cardinality_bound(self):
        for d, radius, xi in ((1, 1.0, 0.5), (2, 1.0, 0.25), (3, 1.5, 0.5)):
            net = epsilon_net(radius, d, xi)
            assert net.shape[0] <= (1 + 2 * radius / xi) ** d * 4**d

    def test_cap_error(self):
        with pytest.raises(ValidationError):
            epsilon_net(1.0, 4, 1e-3, max_points=1000)

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            epsilon_net(-1.0, 2, 0.1)
        with pytest.raises(ValidationError):
            epsilon_net(1.0, 2, 0.0)


def test_zero_guess_shape():
    g = zero_guess(4, 3)
    assert len(g.panels) == 3
    assert all(np.all(p == 0) for p in g.panels)
