import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_dataset, unit_featmap
from skiprl.design import Guess, build_true_guess, guess_grid, panel_size, zero_guess
from skiprl.envs import FeatureMap, random_linear_mdp, sample_policies
from skiprl.learner import _clipped_vbar_rows, clipped_v
from skiprl.mdp import ValidationError, sample_trajectories, uniform_policy
from skiprl.oracles import (
    ContractError,
    guess_range,
    probability_from_range,
    skip_probability,
    skip_target,
    stop_distribution,
)
from skiprl.skipping import (
    SkipParams,
    batch_skip_targets,
    block_omega,
    dataset_omega,
    omega_tables,
    stacked_block_omega,
    stop_probabilities,
    targets_under_law,
)


def two_state_featmap(horizon, values):
    """d=1 map: at interior stages action 0 sees feature (values[stage]), action 1 sees (0)."""
    phi = [np.ones((1, 2, 1))]
    for stage in range(1, horizon):
        block = np.zeros((1, 2, 1))
        block[0, 0, 0] = values.get(stage, 1.0)
        phi.append(block)
    phi.append(np.zeros((1, 2, 1)))
    return FeatureMap(d=1, phi=phi, l1_bound=max(1.0, max(abs(v) for v in values.values()) if values else 1.0))


class TestGuessRange:
    def test_zero_guess_is_zero(self, fixed_instance):
        mdp, fm = fixed_instance
        g = zero_guess(mdp.horizon, fm.d)
        for s in range(mdp.stage_sizes[1]):
            assert guess_range(g, fm, 1, s) == 0.0

    def test_single_action_zero(self):
        mdp, fm = random_linear_mdp(2, 3, (1, 3, 3, 1), 1, seed=0)
        g = Guess.from_stage_vectors(3, 2, {1: [[1.0, 0.5]], 2: [[0.3, 0.3]]}, radius_bound=2.0)
        assert guess_range(g, fm, 1, 0) == 0.0

    def test_hand_case(self):
        # phi(s, a0) = (1), phi(s, a1) = (0), panel vector (2): spread is 2
        fm = two_state_featmap(2, {1: 1.0})
        g = Guess.from_stage_vectors(2, 1, {1: [[2.0]]}, radius_bound=2.0)
        assert guess_range(g, fm, 1, 0) == pytest.approx(2.0, abs=1e-15)

    def test_nonnegative(self):
        fm = two_state_featmap(2, {1: -3.0})
        g = Guess.from_stage_vectors(2, 1, {1: [[2.0]]}, radius_bound=2.0)
        assert guess_range(g, fm, 1, 0) >= 0.0

    def test_domain_error(self):
        fm = two_state_featmap(2, {1: 1.0})
        g = Guess.from_stage_vectors(2, 1, {1: [[2.0]]}, radius_bound=2.0)
        with pytest.raises(ValidationError):
            guess_range(g, fm, 0, 0)


class TestSkipProbability:
    def test_branch_boundaries_agree(self):
        # at r = t both the constant branch and the interpolation give 1;
        # at r = 2t both give 0
        t = SkipParams(alpha=0.6).threshold(3)
        assert probability_from_range(t, t) == pytest.approx(1.0, abs=1e-12)
        assert probability_from_range(2 * t, t) == pytest.approx(0.0, abs=1e-12)
        assert 2.0 - t / t == pytest.approx(1.0)
        assert 2.0 - 2 * t / t == pytest.approx(0.0)

    def test_midpoint_interpolation(self):
        t = SkipParams(alpha=0.4).threshold(2)
        assert probability_from_range(1.5 * t, t) == pytest.approx(0.5, abs=1e-12)

    def test_zero_at_boundary_stages(self):
        fm = two_state_featmap(2, {1: 1.0})
        g = Guess.from_stage_vectors(2, 1, {1: [[2.0]]}, radius_bound=2.0)
        params = SkipParams(alpha=0.5)
        assert skip_probability(g, fm, 0, 0, params) == 0.0
        assert skip_probability(g, fm, 2, 0, params) == 0.0

    @given(
        r1=st.floats(0, 3, allow_nan=False),
        r2=st.floats(0, 3, allow_nan=False),
        alpha=st.floats(0.05, 1.0),
        d=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_in_range(self, r1, r2, alpha, d):
        t = SkipParams(alpha=alpha).threshold(d)
        lhs = abs(probability_from_range(r1, t) - probability_from_range(r2, t))
        assert lhs <= np.sqrt(2 * d) / alpha * abs(r1 - r2) + 1e-12

    def test_alpha_domain(self):
        with pytest.raises(ValidationError):
            SkipParams(alpha=0.0)
        with pytest.raises(ValidationError):
            SkipParams(alpha=1.5)


def single_path_mdp(horizon, rng=None, zero_rewards=False):
    """One state per stage, two actions; rewards random unless zeroed."""
    from skiprl.mdp import StagedMdp

    rng = rng or np.random.default_rng(0)
    transitions = [np.ones((1, 2, 1)) for _ in range(horizon)]
    rewards = [np.zeros((1, 2)) if zero_rewards else rng.uniform(0, 1, (1, 2)) for _ in range(horizon)]
    rewards.append(np.zeros((1, 2)))
    return StagedMdp(horizon, (1,) * (horizon + 1), 2, transitions, rewards)


def one_path(mdp, seed):
    """The states and rewards rows of one uniform-behaviour trajectory drawn from ``seed``."""
    ds = sample_trajectories(mdp, uniform_policy(mdp), 1, seed, unit_featmap(mdp))
    return ds.states[0], ds.rewards[0]


def make_omega_trajectory(horizon, omega_value, alpha=0.5):
    """Single-path MDP whose interior states all have skip probability omega_value."""
    params = SkipParams(alpha=alpha)
    t = params.threshold(1)
    r = (2.0 - omega_value) * t  # inverts the interpolation branch
    fm = two_state_featmap(horizon, {stage: 1.0 for stage in range(1, horizon)})
    g = Guess.from_stage_vectors(horizon, 1, {stage: [[r]] for stage in range(1, horizon)}, radius_bound=max(r, 1e-9))
    return fm, g, params


class TestStopDistribution:
    def test_no_skipping_point_mass(self, fixed_instance):
        mdp, fm = fixed_instance
        g = build_true_guess(mdp, fm, sample_policies(mdp, 30, 0))
        # alpha tiny: every interior range is above twice the threshold
        params = SkipParams(alpha=1e-9)
        states, _ = one_path(mdp, 1)
        for h in range(mdp.horizon):
            dist = stop_distribution(g, fm, states, h, params)
            assert dist.probs[0] == pytest.approx(1.0, abs=1e-15)

    def test_hand_product_formula(self):
        # H=2, start h=0, skip probability 0.4 at the single interior state:
        # F(1) = 0.6, F(2) = 0.4
        fm, g, params = make_omega_trajectory(2, 0.4)
        mdp = single_path_mdp(2, np.random.default_rng(0))
        states, _ = one_path(mdp, 3)
        dist = stop_distribution(g, fm, states, 0, params)
        np.testing.assert_allclose(dist.probs, [0.6, 0.4], atol=1e-12)
        assert list(dist.support) == [1, 2]

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3))
        H = int(rng.integers(2, 5))
        sizes = [1] + [int(rng.integers(1, 4)) for _ in range(H - 1)] + [1]
        mdp, fm = random_linear_mdp(d, H, sizes, 2, seed=int(rng.integers(0, 2**31)))
        g = build_true_guess(mdp, fm, sample_policies(mdp, 10, 0))
        params = SkipParams(alpha=float(rng.uniform(0.05, 1.0)))
        states, _ = one_path(mdp, int(rng.integers(0, 100)))
        for h in range(H):
            assert stop_distribution(g, fm, states, h, params).probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestSkipTarget:
    def test_zero_rewards_zero_f(self):
        fm, g, params = make_omega_trajectory(3, 0.7)
        zero = single_path_mdp(3, zero_rewards=True)
        states, rewards = one_path(zero, 0)
        assert skip_target(g, fm, states, rewards, 0, lambda t, s: 0.0, params) == 0.0

    def test_point_mass_reduces_to_one_step(self):
        fm, g, params = make_omega_trajectory(3, 0.0)  # never skip
        mdp = single_path_mdp(3, np.random.default_rng(4))
        states, rewards = one_path(mdp, 5)
        f = lambda t, s: 0.25 if t < 3 else 0.0
        got = skip_target(g, fm, states, rewards, 1, f, params)
        assert got == pytest.approx(float(rewards[1]) + 0.25, abs=1e-12)

    def test_matches_monte_carlo_stop_sampling(self):
        fm, g, params = make_omega_trajectory(4, 0.55)
        mdp = single_path_mdp(4, np.random.default_rng(6))
        states, rewards = one_path(mdp, 9)
        f = lambda t, s: 0.0 if t == 4 else 0.8
        dist = stop_distribution(g, fm, states, 0, params)
        exact = skip_target(g, fm, states, rewards, 0, f, params)
        draws = np.random.default_rng(7).choice(len(dist.probs), size=100_000, p=dist.probs)
        stages = np.arange(1, 5)[draws]
        cum = np.concatenate([[0.0], np.cumsum(rewards[:-1])])
        samples = np.array([cum[t] - 0.0 + f(t, 0) for t in stages])
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - exact) <= 3 * se + 1e-9

    def test_contract_violations(self):
        fm, g, params = make_omega_trajectory(2, 0.5)
        mdp = single_path_mdp(2, np.random.default_rng(8))
        states, rewards = one_path(mdp, 0)
        with pytest.raises(ContractError):
            skip_target(g, fm, states, rewards, 0, lambda t, s: 100.0, params)
        with pytest.raises(ContractError):
            skip_target(g, fm, states, rewards, 0, lambda t, s: 0.5, params)  # nonzero at terminal

    def test_value_within_bounds(self, fixed_instance):
        mdp, fm = fixed_instance
        g = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
        params = SkipParams(alpha=0.3)
        states, rewards = one_path(mdp, 11)
        f = lambda t, s: 0.0 if t == mdp.horizon else 1.5
        val = skip_target(g, fm, states, rewards, 0, f, params)
        assert 0.0 <= val <= 2 * mdp.horizon


class TestBatchTargets:
    @staticmethod
    def assert_batch_equals_scalar(mdp, fm, g, params, ds, theta, step):
        omega = dataset_omega(ds, g, params)
        H = mdp.horizon
        f = lambda t, s: 0.0 if t == H else clipped_v(theta, fm, t, s)
        for h in range(H):
            fvals = np.zeros((ds.n, H - h))
            for i, u in enumerate(range(h + 1, H)):
                fvals[:, i] = np.clip((ds.features[:, u] @ theta).max(axis=1), 0.0, H)
            batch = batch_skip_targets(ds.rewards, omega, fvals, h)
            for j in range(0, ds.n, step):
                assert batch[j] == skip_target(g, fm, ds.states[j], ds.rewards[j], h, f, params)

    def test_batch_agrees_with_scalar(self, fixed_instance):
        mdp, fm = fixed_instance
        g = build_true_guess(mdp, fm, sample_policies(mdp, 40, 0))
        params = SkipParams(alpha=0.25)
        ds = sample_trajectories(mdp, uniform_policy(mdp), 64, 77, fm)
        self.assert_batch_equals_scalar(mdp, fm, g, params, ds, np.array([0.4, -0.2]), 7)

    def test_batch_agrees_with_scalar_over_nine_stages(self):
        # stages 0 and 1 sum 9 and 8 terms, where np.sum switches to pairwise summation;
        # the stage-order sum keeps the scalar oracle's bits on every row
        mdp, fm = random_linear_mdp(2, 9, (1,) + (4,) * 8 + (1,), 2, seed=7)
        g = build_true_guess(mdp, fm, sample_policies(mdp, 40, 0))
        params = SkipParams(alpha=0.5)  # np.sum's pairwise order missed the oracle on 9 of 576 targets
        ds = sample_trajectories(mdp, uniform_policy(mdp), 64, 7, fm)
        omega = dataset_omega(ds, g, params)
        assert ((omega[:, 1:9] > 0.0) & (omega[:, 1:9] < 1.0)).any()  # the laws spread over several stages
        self.assert_batch_equals_scalar(mdp, fm, g, params, ds, np.array([0.4, -0.2]), 1)

    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 40), stages=st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_stage_order_sum_matches_np_sum(self, seed, rows, stages):
        # up to 7 stages the left-to-right sum has np.sum's bits; a row whose terms are
        # all -0.0 (-0.0 rewards and values, the terminal value included) sums to 0.0
        rng = np.random.default_rng(seed)
        omega = rng.choice([0.0, 0.5, 1.0, float(rng.random())], size=(rows, stages))
        omega[:, -1] = 0.0
        stop = stop_probabilities(omega)
        rewards = rng.choice([0.0, -0.0, 0.25, float(rng.random())], size=(rows, stages))
        cumrew = np.cumsum(rewards, axis=1)
        fvals = rng.choice([0.0, -0.0, 1.5, float(rng.uniform(0.0, 3.0))], size=(rows, stages))
        fvals[:, -1] = rng.choice([0.0, -0.0], size=rows)
        got = targets_under_law(stop, cumrew, fvals)
        assert got.tobytes() == np.sum(stop * (cumrew + fvals), axis=1).tobytes()

    def test_dataset_omega_edges(self, fixed_instance):
        mdp, fm = fixed_instance
        g = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
        params = SkipParams(alpha=0.3)
        ds = sample_trajectories(mdp, uniform_policy(mdp), 16, 5, fm)
        omega = dataset_omega(ds, g, params)
        assert np.all(omega[:, 0] == 0.0)
        assert np.all(omega[:, -1] == 0.0)
        assert np.all((omega >= 0.0) & (omega <= 1.0))


class TestOmegaAgainstScalar:
    """``omega_tables`` and ``dataset_omega`` against ``skip_probability``, state by state."""

    def test_random_instances(self):
        rng = np.random.default_rng(31)
        checked = interior = 0
        for _ in range(40):
            d, H, A = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
            sizes = [1] + [int(rng.integers(1, 6)) for _ in range(H - 1)] + [1]
            mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)))
            true_guess = build_true_guess(mdp, fm, sample_policies(mdp, 10, int(rng.integers(0, 2**31))))
            params = SkipParams(alpha=float(1.0 - rng.uniform(0.0, 0.98)))
            ds = sample_trajectories(mdp, uniform_policy(mdp), 12, int(rng.integers(0, 2**31)), fm)
            for g in guess_grid(true_guess, 0.5, 3, int(rng.integers(0, 2**31))):
                tables = omega_tables(g, fm, params)
                omega = dataset_omega(ds, g, params)
                for h in range(H + 1):
                    for s in range(mdp.stage_sizes[h]):
                        want = skip_probability(g, fm, h, s, params)
                        assert tables[h][s] == pytest.approx(want, abs=1e-12)
                        checked += 1
                        interior += 0.0 < want < 1.0
                    for j in range(ds.n):
                        want = skip_probability(g, fm, h, int(ds.states[j, h]), params)
                        assert omega[j, h] == pytest.approx(want, abs=1e-12)
        assert checked > 500 and interior > 20

    def test_clip_pinned_at_branch_boundaries(self):
        # d=2, alpha=0.5: t = 0.25 exactly; stage s has range r_s exactly
        params = SkipParams(alpha=0.5)
        t = params.threshold(2)
        assert t == 0.25
        ranges = {1: t, 2: 1.5 * t, 3: 2.0 * t}
        phi = [np.array([[[1.0, 0.0], [0.0, 0.0]]]) for _ in range(4)] + [np.zeros((1, 2, 2))]
        fm = FeatureMap(d=2, phi=phi, l1_bound=1.0)
        g = Guess.from_stage_vectors(4, 2, {s: [[r, 0.0]] for s, r in ranges.items()}, radius_bound=1.0)
        mdp = single_path_mdp(4)
        ds = sample_trajectories(mdp, uniform_policy(mdp), 3, 0, fm)
        tables = omega_tables(g, fm, params)
        omega = dataset_omega(ds, g, params)
        for stage, want in zip(ranges, [1.0, 0.5, 0.0]):
            assert skip_probability(g, fm, stage, 0, params) == want
            assert tables[stage][0] == want
            assert np.all(omega[:, stage] == want)


def omega_all_rows(ds, guess, params):
    """The all-rows omega formula that scored every row of every stage."""
    omega = np.zeros((ds.n, ds.horizon + 1))
    for stage in range(1, ds.horizon):
        scores = ds.features[:, stage] @ guess.panel(stage).T
        spread = (scores.max(axis=-2) - scores.min(axis=-2)).max(axis=-1)
        omega[:, stage] = np.clip(2.0 - spread / params.threshold(ds.dim), 0.0, 1.0)
    return omega


def vbar_all_rows(ds, h, thetas):
    """The all-rows v-bar formula: every row's clipped max over actions, shape (k, n)."""
    scores = np.einsum("nad,kd->kna", ds.features[:, h], thetas)
    return np.clip(scores.max(axis=2), 0.0, ds.horizon)


def hand_built_dataset(rng, n, H, A, d):
    """Rows whose features are not a function of the state: each stage's block comes
    from a small pool (including a -0.0/0.0 twin and an action permutation) or is fresh."""
    pool = rng.normal(size=(4, A, d))
    pool[0, 0, 0] = 0.0
    pool[1] = pool[0]
    pool[1, 0, 0] = -0.0
    pool[2] = pool[0, ::-1]
    feats = rng.normal(size=(n, H, A, d))
    from_pool = rng.random((n, H)) < 0.7
    feats[from_pool] = pool[rng.integers(0, 4, size=int(from_pool.sum()))]
    states = np.zeros((n, H + 1), dtype=int)
    states[:, 1:H] = rng.integers(0, 2, size=(n, H - 1))
    actions = rng.integers(0, A, size=(n, H + 1))
    return dense_dataset(states, actions, np.zeros((n, H + 1)), feats)


class TestDistinctBlocks:
    """``dataset_omega`` and ``_clipped_vbar_rows`` score each stage's distinct blocks
    once; they must equal the all-rows formulas bit for bit."""

    def check(self, ds, rng, d):
        H, checked = ds.horizon, 0
        for h, (blocks, rows) in enumerate(ds.visited_blocks):
            assert blocks[rows].tobytes() == np.ascontiguousarray(ds.features[:, h]).tobytes()
            thetas = rng.normal(scale=float(rng.choice([0.3, 3.0, 30.0])), size=(3, d))
            assert _clipped_vbar_rows(ds, h, thetas).tobytes() == vbar_all_rows(ds, h, thetas).tobytes()
        for _ in range(3):
            scale = float(np.exp(rng.uniform(-3.0, 1.0)))
            panels = [rng.normal(scale=scale, size=(panel_size(d), d)) for _ in range(H - 1)]
            guess = Guess(horizon=H, panels=panels, radius_bound=1e9)
            params = SkipParams(alpha=float(rng.uniform(0.05, 1.0)))
            omega = dataset_omega(ds, guess, params)
            assert omega.tobytes() == omega_all_rows(ds, guess, params).tobytes()
            checked += int(((omega > 0.0) & (omega < 1.0)).sum())
        return checked

    def test_sampled_datasets(self):
        rng = np.random.default_rng(808)
        interior = 0
        for _ in range(25):
            d, H, A = int(rng.integers(1, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 4))
            sizes = [1] + [int(rng.integers(1, 6)) for _ in range(H - 1)] + [1]
            mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)))
            n = int(rng.integers(1, 400))
            ds = sample_trajectories(mdp, uniform_policy(mdp), n, int(rng.integers(0, 2**31)), fm)
            for h, (blocks, _) in enumerate(ds.visited_blocks):
                if d >= 2:  # d = 1 simplex features are all 1, whatever the state
                    assert len(blocks) == len(np.unique(ds.states[:, h]))
            interior += self.check(ds, rng, d)
        assert interior > 100

    def test_features_not_a_function_of_the_state(self):
        rng = np.random.default_rng(809)
        for _ in range(25):
            d, H, A = int(rng.integers(1, 6)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
            ds = hand_built_dataset(rng, int(rng.integers(1, 300)), H, A, d)
            self.check(ds, rng, d)

    def test_signed_zero_and_permuted_blocks_stay_apart(self):
        block = np.array([[0.0, 0.5], [0.25, -1.0]])
        twin = block.copy()
        twin[0, 0] = -0.0
        stage1 = np.stack([block, twin, block[::-1], block, twin])  # equal values, three byte patterns
        feats = np.stack([np.ones((5, 2, 2)), stage1], axis=1)
        ds = dense_dataset(np.zeros((5, 3), dtype=int), np.zeros((5, 3), dtype=int), np.zeros((5, 3)), feats)
        blocks, rows = ds.visited_blocks[1]
        assert len(blocks) == 3 and len(ds.visited_blocks[0][0]) == 1
        assert rows[0] == rows[3] and rows[1] == rows[4] and len({rows[0], rows[1], rows[2]}) == 3
        self.check(ds, np.random.default_rng(810), 2)


class TestStackedBlockOmega:
    """``stacked_block_omega`` scores every guess's panel in one product; each row must
    equal that guess's ``block_omega`` bit for bit, for no guess, one and several."""

    @given(seed=st.integers(0, 2**31 - 1), count=st.sampled_from([0, 1, 2, 5, 16]),
           kind=st.sampled_from(["sampled", "hand-built"]))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_each_guess_block_omega(self, seed, count, kind):
        rng = np.random.default_rng(seed)
        d, H, A = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
        if kind == "sampled":
            sizes = [1] + [int(rng.integers(1, 6)) for _ in range(H - 1)] + [1]
            mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)))
            ds = sample_trajectories(mdp, uniform_policy(mdp), int(rng.integers(1, 300)), int(rng.integers(0, 2**31)), fm)
        else:
            ds = hand_built_dataset(rng, int(rng.integers(1, 300)), H, A, d)
        guesses = []
        for _ in range(count):
            scale = float(np.exp(rng.uniform(-3.0, 1.0)))
            panels = [rng.normal(scale=scale, size=(panel_size(d), d)) for _ in range(H - 1)]
            guesses.append(Guess(horizon=H, panels=panels, radius_bound=1e9))
        if count > 1:  # a repeated guess and a zero guess among the others
            guesses[-1] = guesses[0]
            guesses[1] = zero_guess(H, d)
        params = SkipParams(alpha=float(rng.uniform(0.05, 1.0)))
        for stage in range(1, H):
            got = stacked_block_omega(ds, guesses, stage, params)
            assert got.shape == (count, len(ds.visited_blocks[stage][0]))
            for row, guess in zip(got, guesses):
                assert row.tobytes() == block_omega(ds, guess, stage, params).tobytes()
