import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_dataset, one_step_bandit, random_tabular_mdp, unit_featmap, zero_reward_mdp
from skiprl.envs import FeatureMap, random_linear_mdp
from skiprl.mdp import (
    Dataset,
    Policy,
    PolicyStack,
    REWARD_KINDS,
    StagedMdp,
    ValidationError,
    _draw,
    _factorize,
    _seed_words,
    _uniform_columns,
    code_dtype,
    deterministic_policy,
    enumerate_deterministic_policies,
    evaluate_policy,
    index_dtype,
    mdp_from_doc,
    mdp_to_doc,
    mix_policies,
    occupancy,
    optimal_policy,
    random_policy,
    sample_trajectories,
    uniform_policy,
)


def _uniforms(shared, n, k):
    """The first k columns of ``_uniform_columns(shared, n)`` as an (n, k) array."""
    draws = _uniform_columns(shared, n)
    return np.column_stack([next(draws) for _ in range(k)]).reshape(n, k)


def inverse_cdf(cum, u):
    """Per row of the gathered (n, K) CDF rows ``cum``, the count of entries <= u,
    clamped to the last index (the sampler's draw before ``_draw``)."""
    return np.minimum(np.sum(cum <= u[:, None], axis=1), cum.shape[1] - 1)


def reference_rollout(mdp, policy, seed, featmap):
    """Scalar rollout: one ``rng.random()`` per draw, in rollout order, each
    inverted by ``searchsorted(side="right")`` on the cumulative row and
    clamped to the last index."""
    rng = np.random.default_rng(seed)

    def draw(row):
        cum = np.cumsum(row)
        return min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)

    H = mdp.horizon
    states, actions, rewards = np.zeros(H + 1, dtype=int), np.zeros(H + 1, dtype=int), np.zeros(H + 1)
    feats = np.zeros((H, mdp.num_actions, featmap.d))
    s = 0
    for h in range(H + 1):
        states[h] = s
        a = actions[h] = draw(policy.tables[h][s])
        if h < H:
            feats[h] = featmap.phi[h][s]
            mean = mdp.reward_means[h][s, a]
            rewards[h] = float(rng.random() < mean) if mdp.reward_kind == "bernoulli-mean" else mean
            s = draw(mdp.transitions[h][s, a])
    return states, actions, rewards, feats


def assert_matches_reference(mdp, pi, n, seed, featmap=None):
    featmap = featmap or unit_featmap(mdp)
    ds = sample_trajectories(mdp, pi, n, seed, featmap)
    assert len(ds) == n
    for j in range(n):
        states, actions, rewards, feats = reference_rollout(mdp, pi, [seed, j], featmap)
        np.testing.assert_array_equal(ds.states[j], states)
        np.testing.assert_array_equal(ds.actions[j], actions)
        np.testing.assert_array_equal(ds.rewards[j], rewards)
        np.testing.assert_array_equal(ds.features[j], feats)


def sparse_rows(rng, shape):
    """Probability rows of ``shape`` with exact zeros: one-hot, leading zeros
    (``[0, 0, 1]``), trailing zeros, or a random support."""
    k = shape[-1]
    rows = np.zeros(shape)
    for idx in np.ndindex(*shape[:-1]):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            support = [int(rng.integers(0, k))]
        elif kind == 1:
            support = list(range(int(rng.integers(0, k)), k))
        elif kind == 2:
            support = list(range(int(rng.integers(1, k + 1))))
        else:
            support = np.flatnonzero(rng.random(k) < 0.5).tolist() or [int(rng.integers(0, k))]
        rows[idx][support] = rng.dirichlet(np.ones(len(support)))
    return rows


def sparse_tabular_mdp(rng, reward_kind):
    """A tabular MDP whose transition rows are sparse or deterministic; stage 1
    has 8 or 9 states, the width of the wide instance's stages."""
    H = int(rng.integers(2, 5))
    sizes = [1, int(rng.integers(8, 10))] + [int(rng.integers(1, 10)) for _ in range(H - 2)] + [1]
    A = int(rng.integers(1, 5))
    transitions = [sparse_rows(rng, (sizes[h], A, sizes[h + 1])) for h in range(H)]
    rewards = [rng.uniform(0, 1, size=(sizes[h], A)) for h in range(H)] + [np.zeros((1, A))]
    mdp = StagedMdp(H, sizes, A, transitions, rewards, reward_kind)
    return mdp, Policy([sparse_rows(rng, (k, A)) for k in sizes])


def chain_mdp():
    """2-stage chain: action 0 at s1 leads to a state whose best reward is 1,
    action 1 to a state whose best reward is 0.2."""
    transitions = [
        np.array([[[1.0, 0.0], [0.0, 1.0]]]),          # stage 0: a0 -> state 0, a1 -> state 1
        np.array([[[1.0], [1.0]], [[1.0], [1.0]]]),    # stage 1: both states -> terminal
    ]
    rewards = [
        np.array([[0.4, 0.9]]),
        np.array([[1.0, 0.3], [0.2, 0.1]]),
        np.zeros((1, 2)),
    ]
    return StagedMdp(2, (1, 2, 1), 2, transitions, rewards)


class TestEvaluatePolicy:
    def test_zero_rewards_zero_values(self):
        mdp = zero_reward_mdp(np.random.default_rng(0))
        vals = evaluate_policy(mdp, uniform_policy(mdp))
        assert all(np.all(q == 0) for q in vals.q)
        assert all(np.all(v == 0) for v in vals.v)

    def test_one_step_uniform_value(self):
        # hand evaluation: 0.5 * 0.3 + 0.5 * 0.7
        vals = evaluate_policy(one_step_bandit(), uniform_policy(one_step_bandit()))
        assert vals.v[0][0] == pytest.approx(0.5, abs=1e-15)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_values_bounded_by_remaining_horizon(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_tabular_mdp(rng, max_states=6, max_actions=4)
        vals = evaluate_policy(mdp, random_policy(mdp, rng))
        for h, v in enumerate(vals.v):
            assert np.all(v >= -1e-12)
            assert np.all(v <= mdp.horizon - h + 1e-12)

    def test_policy_shape_mismatch(self):
        mdp = chain_mdp()
        other = uniform_policy(one_step_bandit())
        with pytest.raises(ValidationError):
            evaluate_policy(mdp, other)

    def test_monte_carlo_returns(self):
        # backward induction against Monte-Carlo return estimates, 3 standard errors
        rng = np.random.default_rng(42)
        for _ in range(3):
            mdp = random_tabular_mdp(rng, max_states=6, max_actions=4)
            pi = random_policy(mdp, rng)
            exact = evaluate_policy(mdp, pi).v[0][0]
            trajs = sample_trajectories(mdp, pi, 4000, int(rng.integers(1 << 30)), unit_featmap(mdp))
            returns = trajs.rewards.sum(axis=1)
            se = returns.std(ddof=1) / np.sqrt(len(returns))
            assert abs(returns.mean() - exact) <= 3 * se + 1e-9


class TestOptimalPolicy:
    def test_zero_rewards(self):
        mdp = zero_reward_mdp(np.random.default_rng(1))
        _, star = optimal_policy(mdp)
        assert star.v[0][0] == 0.0

    def test_chain_against_enumeration(self):
        mdp = chain_mdp()
        pi, star = optimal_policy(mdp)
        # brute-force oracle over every deterministic policy
        best = max(evaluate_policy(mdp, p).v[0][0] for p in enumerate_deterministic_policies(mdp))
        assert star.v[0][0] == pytest.approx(best, abs=1e-12)
        assert star.v[0][0] == pytest.approx(0.4 + 1.0, abs=1e-12)  # r(s1, a0) + 1
        assert np.argmax(pi.tables[0][0]) == 0

    def test_dominates_random_policies(self):
        rng = np.random.default_rng(7)
        mdp = random_tabular_mdp(rng)
        _, star = optimal_policy(mdp)
        for _ in range(100):
            vals = evaluate_policy(mdp, random_policy(mdp, rng))
            assert star.v[0][0] >= vals.v[0][0] - 1e-12

    def test_fixed_point(self):
        rng = np.random.default_rng(3)
        mdp = random_tabular_mdp(rng)
        pi, star = optimal_policy(mdp)
        again = evaluate_policy(mdp, pi)
        for h in range(mdp.horizon + 1):
            np.testing.assert_allclose(again.v[h], star.v[h], atol=1e-12)

    def test_ties_break_low(self):
        mdp = one_step_bandit(0.5, 0.5)
        pi, _ = optimal_policy(mdp)
        assert pi.tables[0][0, 0] == 1.0


class TestOccupancy:
    def test_start_stage_is_policy_row(self):
        rng = np.random.default_rng(11)
        mdp = random_tabular_mdp(rng)
        pi = random_policy(mdp, rng)
        nu = occupancy(mdp, pi).nu
        np.testing.assert_allclose(nu[0][0], pi.tables[0][0], atol=1e-15)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_each_stage_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_tabular_mdp(rng)
        nu = occupancy(mdp, random_policy(mdp, rng)).nu
        for table in nu:
            assert abs(table.sum() - 1.0) <= 1e-10

    def test_matches_monte_carlo_frequencies(self):
        rng = np.random.default_rng(5)
        mdp = random_tabular_mdp(rng, horizon=2, max_states=3, max_actions=2)
        pi = random_policy(mdp, rng)
        nu = occupancy(mdp, pi).nu
        n = 100_000
        trajs = sample_trajectories(mdp, pi, n, 909, unit_featmap(mdp))
        for h in range(mdp.horizon):
            counts = np.zeros_like(nu[h])
            np.add.at(counts, (trajs.states[:, h], trajs.actions[:, h]), 1)
            freq = counts / n
            sigma = np.sqrt(np.maximum(nu[h] * (1 - nu[h]), 1e-12) / n)
            assert np.all(np.abs(freq - nu[h]) <= 3 * sigma + 1e-9)


class TestSampling:
    def test_deterministic_instance_ignores_seed(self):
        # one-hot transitions + deterministic policy: rollout has no randomness
        transitions = [np.array([[[1.0, 0.0], [1.0, 0.0]]]), np.array([[[1.0], [1.0]], [[1.0], [1.0]]])]
        rewards = [np.array([[0.2, 0.8]]), np.array([[0.5, 0.1], [0.0, 0.0]]), np.zeros((1, 2))]
        mdp = StagedMdp(2, (1, 2, 1), 2, transitions, rewards)
        pi = deterministic_policy(mdp, [[1], [0, 0], [0]])
        fm = unit_featmap(mdp)
        t1, t2 = sample_trajectories(mdp, pi, 1, 1, fm), sample_trajectories(mdp, pi, 1, 999, fm)
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.actions, t2.actions)
        np.testing.assert_array_equal(t1.rewards, t2.rewards)

    def test_deterministic_mean_rewards_exact(self):
        rng = np.random.default_rng(21)
        mdp = random_tabular_mdp(rng, reward_kind="deterministic-mean")
        pi = random_policy(mdp, rng)
        ds = sample_trajectories(mdp, pi, 8, 17, unit_featmap(mdp))
        for h in range(mdp.horizon):
            np.testing.assert_array_equal(ds.rewards[:, h], mdp.reward_means[h][ds.states[:, h], ds.actions[:, h]])

    def test_bernoulli_rewards_binary(self):
        rng = np.random.default_rng(22)
        mdp = random_tabular_mdp(rng, reward_kind="bernoulli-mean")
        ds = sample_trajectories(mdp, random_policy(mdp, rng), 8, 3, unit_featmap(mdp))
        assert set(np.unique(ds.rewards)).issubset({0.0, 1.0})

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(23)
        mdp = random_tabular_mdp(rng)
        pi, fm = random_policy(mdp, rng), unit_featmap(mdp)
        # the same seed gives the same rows, and a smaller sample is a prefix of a larger one
        a = sample_trajectories(mdp, pi, 5, 77, fm)
        batch = sample_trajectories(mdp, pi, 6, 77, fm)
        for key in ("states", "actions", "rewards"):
            np.testing.assert_array_equal(getattr(a, key), getattr(batch, key)[:5])
            np.testing.assert_array_equal(getattr(batch, key), getattr(sample_trajectories(mdp, pi, 6, 77, fm), key))

    def test_visit_frequencies_match_occupancy(self):
        rng = np.random.default_rng(31)
        mdp = random_tabular_mdp(rng, horizon=3, max_states=3, max_actions=2)
        pi = random_policy(mdp, rng)
        nu = occupancy(mdp, pi).nu
        n = 100_000
        trajs = sample_trajectories(mdp, pi, n, 4242, unit_featmap(mdp))
        h = mdp.horizon - 1
        counts = np.zeros_like(nu[h])
        np.add.at(counts, (trajs.states[:, h], trajs.actions[:, h]), 1)
        sigma = np.sqrt(np.maximum(nu[h] * (1 - nu[h]), 1e-12) / n)
        assert np.all(np.abs(counts / n - nu[h]) <= 3 * sigma + 1e-9)


class TestSamplerAgainstReference:
    @given(
        seed=st.integers(0, 10_000),
        reward_kind=st.sampled_from(["deterministic-mean", "bernoulli-mean"]),
        max_states=st.integers(1, 5),
        max_actions=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_tabular_bit_for_bit(self, seed, reward_kind, max_states, max_actions):
        # max_states=1 gives one-state stages, max_actions=1 a single action
        rng = np.random.default_rng(seed)
        mdp = random_tabular_mdp(rng, max_states=max_states, max_actions=max_actions, reward_kind=reward_kind)
        assert_matches_reference(mdp, random_policy(mdp, rng), 12, seed)

    @given(seed=st.integers(0, 10_000), reward_kind=st.sampled_from(["deterministic-mean", "bernoulli-mean"]))
    @settings(max_examples=15, deadline=None)
    def test_linear_features_bit_for_bit(self, seed, reward_kind):
        rng = np.random.default_rng(seed)
        d, H = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
        mdp, featmap = random_linear_mdp(d, H, sizes, int(rng.integers(1, 4)), seed, reward_kind)
        assert_matches_reference(mdp, random_policy(mdp, rng), 12, seed, featmap)

    @given(seed=st.integers(0, 2**32 - 1), reward_kind=st.sampled_from(["deterministic-mean", "bernoulli-mean"]))
    @settings(max_examples=30, deadline=None)
    def test_sparse_tables_bit_for_bit(self, seed, reward_kind):
        # exact zeros, leading and trailing zero-probability entries, one-hot rows
        rng = np.random.default_rng(seed)
        mdp, pi = sparse_tabular_mdp(rng, reward_kind)
        assert_matches_reference(mdp, pi, 16, seed)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 9), r=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_draw_matches_inverse_cdf(self, seed, k, r):
        # nondecreasing rows with ties, ending below, at or above 1; u at every
        # entry, just below it, at 0 and at the largest uniform 1 - 2**-53
        rng = np.random.default_rng(seed)
        cdf = np.cumsum(sparse_rows(rng, (r, k)) * rng.choice([1.0, 1 - 1e-13, 1 + 1e-13, 2.0]), axis=1)
        entries = cdf.ravel()
        u = np.concatenate([[0.0, 1 - 2.0**-53], entries, np.nextafter(entries, 0), rng.random(8)])
        rows = np.repeat(np.arange(r), len(u))
        u = np.tile(u, r)
        got = _draw(np.ascontiguousarray(cdf.T), rows, u)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, inverse_cdf(cdf[rows], u))

    def test_inverse_cdf_boundaries(self):
        # u equal to a cumulative entry, and u past a row that sums to just under 1
        cum = np.cumsum([[0.25, 0.25, 0.5 - 1e-13], [0.5, 0.5, 0.0]], axis=1)
        for u in (0.0, 0.25, 0.5, 0.75, 1.0 - 1e-14, 0.999999):
            got = inverse_cdf(cum, np.full(2, u))
            want = [min(int(np.searchsorted(row, u, side="right")), 2) for row in cum]
            np.testing.assert_array_equal(got, want)

    def test_zero_trajectories_rejected(self, fixed_instance):
        mdp, featmap = fixed_instance
        with pytest.raises(ValidationError, match="zero trajectories"):
            sample_trajectories(mdp, uniform_policy(mdp), 0, 1, featmap)
        with pytest.raises(ValidationError, match="n = -3 gives zero trajectories"):
            sample_trajectories(mdp, uniform_policy(mdp), -3, 1, featmap)

    @pytest.mark.parametrize("n", [40.5, 3.0, True, "3", None], ids=["fraction", "float", "bool", "str", "none"])
    def test_count_must_be_an_integer(self, fixed_instance, n):
        # 40.5 used to give 41 trajectories and True one
        mdp, featmap = fixed_instance
        with pytest.raises(ValidationError, match=f"trajectory count n must be an integer, got {n!r}"):
            sample_trajectories(mdp, uniform_policy(mdp), n, 1, featmap)

    @pytest.mark.parametrize("n", [np.int64(3), np.uint16(3), np.intp(3)], ids=["int64", "uint16", "intp"])
    def test_numpy_integer_counts_accepted(self, fixed_instance, n):
        mdp, featmap = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), n, 1, featmap)
        want = sample_trajectories(mdp, uniform_policy(mdp), 3, 1, featmap)
        assert ds.n == 3 and ds.states.tobytes() == want.states.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), reward_kind=st.sampled_from(["deterministic-mean", "bernoulli-mean"]),
           n=st.integers(1, 40), more=st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_sample_is_a_prefix_of_a_larger_one(self, seed, reward_kind, n, more):
        # calibration samples each held-out replicate once at the largest n and slices the rest
        rng = np.random.default_rng(seed)
        d, H = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
        mdp, featmap = random_linear_mdp(d, H, sizes, int(rng.integers(1, 4)), seed, reward_kind)
        pi = random_policy(mdp, rng)
        small = sample_trajectories(mdp, pi, n, [seed, 3], featmap)
        large = sample_trajectories(mdp, pi, n + more, [seed, 3], featmap)
        for key in ("states", "actions", "rewards", "features"):
            a, b = getattr(small, key), getattr(large, key)[:n]
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), key


# seed parts at the uint32 word boundaries, plus multi-word ints above 2**64
seed_parts = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**64 + 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**64, 2**100),
)


def one_stage_mdp(states, actions):
    """H = 2 with ``states`` states at stage 1 and ``actions`` actions, uniform transitions."""
    return StagedMdp(2, (1, states, 1), actions, [np.full((1, actions, states), 1.0 / states),
                                                  np.ones((states, actions, 1))],
                     [np.zeros((1, actions)), np.zeros((states, actions)), np.zeros((1, actions))])


class TestIndexDtype:
    """Sampled states and actions take the narrowest signed integer dtype that holds the
    MDP's largest stage size and action count."""

    @pytest.mark.parametrize("states, actions, want", [
        (1, 1, np.int8), (127, 2, np.int8), (2, 127, np.int8), (128, 2, np.int16), (3, 128, np.int16),
        (32767, 1, np.int16), (32768, 1, np.int32), (1, 32768, np.int32),
    ])
    def test_narrowest_signed_type_holding_the_counts(self, states, actions, want):
        assert index_dtype(one_stage_mdp(states, actions)) == np.dtype(want)

    @pytest.mark.parametrize("kind", REWARD_KINDS)
    def test_sampled_arrays_take_it(self, fixed_instance, kind):
        mdp, fm = fixed_instance
        mdp = StagedMdp(mdp.horizon, mdp.stage_sizes, mdp.num_actions, mdp.transitions, mdp.reward_means, kind)
        ds = sample_trajectories(mdp, uniform_policy(mdp), 50, 4, fm)
        assert ds.states.dtype == ds.actions.dtype == np.int8
        assert ds.prefix(20).states.dtype == ds.prefix(20).actions.dtype == np.int8

    def test_wide_stage_matches_the_rollouts(self):
        # 300 states need int16; every index above 127 must survive the narrow store
        mdp = one_stage_mdp(300, 3)
        ds = sample_trajectories(mdp, uniform_policy(mdp), 400, 9, unit_featmap(mdp))
        assert ds.states.dtype == ds.actions.dtype == np.int16
        assert ds.states[:, 1].max() > 127
        assert_matches_reference(mdp, uniform_policy(mdp), 40, 9)


class TestUniformsAgainstNumpy:
    """``_uniform_columns`` against numpy's own ``default_rng(seed).random(k)``."""

    @given(seed=st.lists(seed_parts, max_size=6), k=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_one_seed_bit_for_bit(self, seed, k):
        # up to 6 parts of up to 4 words each runs the entropy past the 4-word pool
        got = _uniforms(_seed_words(seed), 1, k)
        np.testing.assert_array_equal(got[0], np.random.default_rng([*seed, 0]).random(k))

    @given(
        shared=st.lists(st.integers(0, 2**32 - 1), max_size=8),
        n=st.integers(1, 6),
        k=st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_shared_leading_words(self, shared, n, k):
        # every row mixes the shared words as scalars and its own counter j;
        # 4 or more shared words run the entropy past the 4-word pool
        got = _uniforms(shared, n, k)
        assert got.shape == (n, k)
        want = np.array([np.random.default_rng([*shared, j]).random(k) for j in range(n)])
        np.testing.assert_array_equal(got, want)

    def test_negative_part_raises_like_numpy(self, fixed_instance):
        mdp, fm = fixed_instance
        with pytest.raises(ValueError):
            np.random.default_rng([3, -1])
        with pytest.raises(ValueError):
            sample_trajectories(mdp, uniform_policy(mdp), 1, [3, -1], fm)
        with pytest.raises(ValueError):
            sample_trajectories(mdp, uniform_policy(mdp), 4, -2, fm)


class TestValidation:
    def test_bad_transition_rows(self):
        with pytest.raises(ValidationError):
            StagedMdp(1, (1, 1), 2, [np.full((1, 2, 1), 0.5)], [np.zeros((1, 2)), np.zeros((1, 2))])

    @pytest.mark.parametrize("size", [4.7, True, np.float64(4.0), 0], ids=["fraction", "bool", "numpy-float", "zero"])
    def test_non_integer_stage_size_named(self, size):
        # 4.7 used to build a stage of 4 states and True one of 1
        with pytest.raises(ValidationError) as err:
            StagedMdp(3, (1, size, 4, 1), 2, [], [])
        assert str(err.value) == f"stage 1 size must be a positive integer, got {size!r}"

    @pytest.mark.parametrize("field, value", [
        ("horizon", 3.0), ("horizon", True), ("horizon", 0),
        ("num_actions", 2.0), ("num_actions", np.float64(2.0)), ("num_actions", True), ("num_actions", 0),
    ], ids=["horizon-float", "horizon-bool", "horizon-zero", "actions-float", "actions-numpy-float", "actions-bool",
            "actions-zero"])
    def test_non_integer_horizon_and_action_count_named(self, fixed_instance, field, value):
        # num_actions 2.0 used to load and fail later in uniform_policy with a bare TypeError
        mdp, _ = fixed_instance
        args = {"horizon": 3, "stage_sizes": mdp.stage_sizes, "num_actions": 2, "transitions": mdp.transitions,
                "reward_means": mdp.reward_means, field: value}
        with pytest.raises(ValidationError) as err:
            StagedMdp(**args)
        assert str(err.value) == f"{field} must be an integer >= 1, got {value!r}"

    def test_numpy_integer_horizon_and_action_count_become_int(self, fixed_instance):
        mdp, _ = fixed_instance
        back = StagedMdp(np.int64(3), mdp.stage_sizes, np.int32(2), mdp.transitions, mdp.reward_means)
        assert type(back.horizon) is int and type(back.num_actions) is int

    def test_nonzero_terminal_reward(self):
        with pytest.raises(ValidationError):
            StagedMdp(1, (1, 1), 2, [np.ones((1, 2, 1))], [np.zeros((1, 2)), np.full((1, 2), 0.1)])

    def test_trajectory_invariants(self):
        # a two-row dataset whose second row's terminal stage pays 0.2; the refusal names that row
        with pytest.raises(ValidationError, match="^trajectory 1: terminal reward must be zero$"):
            dense_dataset(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int), np.array([[0.5, 0.0], [0.5, 0.2]]),
                          np.ones((2, 1, 1, 1)))

    @pytest.mark.parametrize("fault, named", [
        ({"actions": [[0]]}, r"\(n, H\+1\) shape"),
        ({"rewards": [[0.5, 0.0]]}, r"\(n, H\+1\) shape"),
        ({"states": [0, 1, 0], "actions": [0, 0, 0], "rewards": [0.5, 0.0, 0.0]}, "^states must be a 2-d integer array"),
        ({"block_counts": [1, 1, 0, 0, 0, 0, 0]}, r"must give each of the H = 2 stages"),
        ({"blocks": np.ones((2, 2))}, "^blocks must be a 3-d floating array"),
    ], ids=["short-actions", "short-rewards", "one-dimensional", "feature-stages", "feature-rank"])
    def test_trajectory_shapes_checked(self, fault, named):
        # one trajectory is a one-row dataset; an unstacked path or feature block is refused
        arrays = {"states": [[0, 1, 0]], "actions": [[0, 1, 0]], "rewards": [[0.5, 0.0, 0.0]],
                  "blocks": np.ones((2, 2, 1)), "block_counts": [1, 1], "codes": [[0, 0]]}
        Dataset.of_blocks(**{key: np.array(value) for key, value in arrays.items()})
        with pytest.raises(ValidationError, match=named):
            Dataset.of_blocks(**{key: np.array(value) for key, value in {**arrays, **fault}.items()})

    @pytest.mark.parametrize("action, named", [(-1, ">= 0"), (2, "< 2")], ids=["negative", "past-last"])
    def test_actions_outside_feature_range(self, action, named):
        # the features record A = 2 actions; -1 used to index action 1's features
        states, rewards = np.zeros((2, 3), dtype=int), np.zeros((2, 3))
        actions = np.zeros((2, 3), dtype=int)
        feats = np.ones((2, 2, 2, 1))
        dense_dataset(states, actions, rewards, feats)
        actions[1, 1] = action
        with pytest.raises(ValidationError, match=f"^trajectory 1: actions must be {named}"):
            dense_dataset(states, actions, rewards, feats)
        with pytest.raises(ValidationError, match=f"^trajectory 0: actions must be {named}"):  # the offending row alone
            dense_dataset(states[1:], actions[1:], rewards[1:], feats[1:])

    def test_rewards_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            StagedMdp(1, (1, 1), 1, [np.ones((1, 1, 1))], [np.array([[1.2]]), np.zeros((1, 1))])

    @pytest.mark.parametrize("eps", [1.5, -0.1, np.nan], ids=["above-one", "negative", "nan"])
    def test_mixture_weight_outside_unit_interval(self, eps):
        # at A = 2, eps = 1.5 passed the row checks as 0.25 on the greedy action and 0.75 on the other
        mdp = one_step_bandit()
        greedy, uniform = deterministic_policy(mdp, [[1], [0]]), uniform_policy(mdp)
        with pytest.raises(ValidationError, match=rf"^mixture weight eps must lie in \[0, 1\], got {eps!r}$"):
            mix_policies(greedy, uniform, eps)
        for edge in (0.0, 1.0):
            mix_policies(greedy, uniform, edge)

    @pytest.mark.parametrize("build, good, named", [
        (lambda x: Policy([[[x, 1.0]], [[1.0, 0.0]]]), 0.0, "policy stage 0: non-finite"),
        (lambda x: PolicyStack([np.array([[[1.0, 0.0]]] * 2), np.array([[[0.0, 1.0]], [[1.0, x]]])]), 0.0,
         "policy stack stage 1: non-finite"),
        (lambda x: StagedMdp(2, (1, 2, 1), 2, [np.array([[[0.5, 0.5], [1.0, 0.0]]]), np.array([[[1.0], [x]]] * 2)],
                             [np.zeros((1, 2)), np.zeros((2, 2)), np.zeros((1, 2))]), 1.0,
         r"transitions\[1\]: non-finite"),
        (lambda x: StagedMdp(1, (1, 1), 2, [np.ones((1, 2, 1))], [np.array([[0.5, x]]), np.zeros((1, 2))]), 0.5,
         r"reward_means\[0\]: entries outside \[0, 1\]"),
        (lambda x: FeatureMap(d=1, phi=[np.array([[[0.5], [x]]]), np.zeros((1, 2, 1))], l1_bound=1.0), 0.5,
         "features stage 0: non-finite"),
    ], ids=["policy", "policy-stack", "transitions", "reward-means", "features"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_tables_refused(self, build, good, named, bad):
        # a NaN entry passed both the sign and the row-sum check; the sampler then
        # drew action 0 on every row and evaluate_policy returned v = [nan]
        build(good)
        with pytest.raises(ValidationError, match=named):
            build(bad)

    @pytest.mark.parametrize("path, named", [
        (("transitions", 1, 2, 0, 3), r"transitions\[1\]: non-finite"),
        (("reward_means", 2, 3, 1), r"reward_means\[2\]"),
        (("features", "phi", 1, 0, 1, 0), "features stage 1: non-finite"),
        (("features", "l1_bound"), "exceeds bound nan"),
    ], ids=["transitions", "reward-means", "features", "norm-bound"])
    def test_nan_in_document_refused(self, fixed_instance, path, named):
        text = json.dumps(mdp_to_doc(*fixed_instance))
        doc = json.loads(text)
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = float("nan")
        text = json.dumps(doc)  # json writes the bare token NaN and reads it back as a float
        assert "NaN" in text
        with pytest.raises(ValidationError, match=named):
            mdp_from_doc(json.loads(text))


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(13)
        mdp = random_tabular_mdp(rng)
        doc = json.loads(json.dumps(mdp_to_doc(mdp, unit_featmap(mdp))))
        back, featmap = mdp_from_doc(doc)
        assert featmap.d == 1
        assert back.horizon == mdp.horizon and back.stage_sizes == mdp.stage_sizes
        for h in range(mdp.horizon):
            np.testing.assert_array_equal(back.transitions[h], mdp.transitions[h])
        for h in range(mdp.horizon + 1):
            np.testing.assert_array_equal(back.reward_means[h], mdp.reward_means[h])

    def test_roundtrip_with_features(self, fixed_instance):
        mdp, featmap = fixed_instance
        doc = json.loads(json.dumps(mdp_to_doc(mdp, featmap)))
        back_mdp, back_fm = mdp_from_doc(doc)
        assert back_fm.d == featmap.d
        for h in range(mdp.horizon + 1):
            np.testing.assert_array_equal(back_fm.phi[h], featmap.phi[h])

    def test_features_checked_against_mdp(self, fixed_instance):
        # a document whose stage-1 features cover 2 of its states used to load
        doc = mdp_to_doc(*fixed_instance)
        doc["features"]["phi"][1] = doc["features"]["phi"][1][:2]
        with pytest.raises(ValidationError, match="^features stage 1: shape does not match MDP$"):
            mdp_from_doc(doc)

    @pytest.mark.parametrize("key, field", [("num_actions", "num_actions"), ("H", "horizon")])
    def test_float_counts_in_document_refused_by_name(self, fixed_instance, key, field):
        # "H": 3.0 used to fail the load with a bare TypeError (tuple indices)
        doc = json.loads(json.dumps(mdp_to_doc(*fixed_instance)))
        doc[key] = float(doc[key])
        with pytest.raises(ValidationError, match=rf"^{field} must be an integer >= 1, got {doc[key]!r}$"):
            mdp_from_doc(doc)

    def test_document_without_features_refused(self, fixed_instance):
        doc = mdp_to_doc(*fixed_instance)
        del doc["features"]
        with pytest.raises(ValidationError, match="has no 'features'"):
            mdp_from_doc(doc)


class TestDataset:
    def test_from_trajectories_refuses_other_containers(self, fixed_instance):
        # the classmethod only passes a Dataset through; it no longer stacks rows
        mdp, featmap = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 5, 3, featmap)
        with pytest.raises(ValidationError, match="^expected a Dataset, got list$"):
            Dataset.from_trajectories([ds])

    def test_one_row_per_trajectory(self, fixed_instance):
        mdp, featmap = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 4, 3, featmap)
        assert len(ds) == ds.n == 4 and ds.horizon == 3 and ds.dim == 2
        assert ds.states.shape == ds.actions.shape == ds.rewards.shape == (4, 4)
        assert ds.features.shape == (4, 3, 2, 2)

    def test_batch_invariants_checked(self, fixed_instance):
        mdp, featmap = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 3, 3, featmap)
        bad_end = ds.states.copy()
        bad_end[1, -1] = 1
        bad_reward = ds.rewards.copy()
        bad_reward[2, -1] = 0.5
        with pytest.raises(ValidationError):
            dense_dataset(bad_end, ds.actions, ds.rewards, ds.features)
        with pytest.raises(ValidationError):
            dense_dataset(ds.states, ds.actions, bad_reward, ds.features)

    def test_shapes_checked(self, fixed_instance):
        mdp, featmap = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 3, 3, featmap)
        with pytest.raises(ValidationError, match=r"\(n, H\+1\)"):
            dense_dataset(ds.states, ds.actions[:, :-1], ds.rewards, ds.features)

    @pytest.mark.parametrize("key", ["codes", "states"])
    def test_of_blocks_checks_dtypes(self, key):
        # codes + 0.7 used to be truncated to intp and group as the integer codes did
        arrays = dict(states=np.zeros((2, 2), dtype=int), actions=np.zeros((2, 2), dtype=int),
                      rewards=np.zeros((2, 2)), blocks=np.ones((1, 2, 1)), block_counts=np.array([1]),
                      codes=np.zeros((2, 1), dtype=int))
        Dataset.of_blocks(**arrays)
        arrays[key] = arrays[key] + 0.7
        with pytest.raises(ValidationError, match=f"^{key} must be a 2-d integer array, got float64"):
            Dataset.of_blocks(**arrays)

    def test_featured_dataset_returned_unchanged(self, fixed_instance):
        mdp, featmap = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 4, 3, featmap)
        assert Dataset.from_trajectories(ds) is ds


def byte_key_blocks(ds):
    """``visited_blocks`` by sorting every row's block bytes (the all-rows reference)."""
    feats = np.ascontiguousarray(ds.features)
    n, H, A, d = feats.shape
    if A * d == 0:
        return [(feats[:1, h], np.zeros(n, dtype=np.intp)) for h in range(H)]
    keys = feats.reshape(n, H, A * d).view(np.dtype((np.void, A * d * feats.itemsize)))[..., 0]
    out = []
    for h in range(H):
        _, first, rows = np.unique(keys[:, h], return_index=True, return_inverse=True)
        out.append((feats[first, h], rows))
    return out


def byte_key_tails(ds):
    """``tail_paths`` keyed by the 24 bytes of (reward at h, block at h+1, tail at h+1),
    numbered in byte order (the all-rows reference)."""
    rows = [r for _, r in byte_key_blocks(ds)] + [np.zeros(ds.n, dtype=np.int64)]
    out = [None] * ds.horizon
    back = rows[-1]
    for h in range(ds.horizon - 1, -1, -1):
        reward = ds.rewards[:, h].astype(np.float64).view(np.int64)
        keys = np.stack([reward, rows[h + 1], back], axis=1).astype(np.int64, copy=False)
        _, first, back = np.unique(keys.view(np.dtype((np.void, 24)))[:, 0], return_index=True, return_inverse=True)
        out[h] = (first, back)
    return out


HUGE_STATES = [-2**63, -7, 3, 10**12, 2**63 - 1]  # offsets beyond int64 and ranges past the dense table
REWARDS = [0.0, -0.0, 0.25, 0.5, 1.0]


# sampled grouping kinds: (reward kind, reward scale) of the linear MDP
SAMPLED_KINDS = {
    "sampled": ("deterministic-mean", 1.0),
    "zero-twins": ("deterministic-mean", 0.0),
    "of-pair": ("deterministic-mean", 1.0),
    "bernoulli": ("bernoulli-mean", 1.0),
}
GROUPING_KINDS = list(SAMPLED_KINDS) + ["not-of-state", "huge-states", "empty-blocks"]


def grouping_dataset(kind, seed, n):
    """A dataset for the grouping checks.  "sampled" is a linear MDP's sample with
    some zero rewards made -0.0, "zero-twins" the same with every mean reward 0, so
    a (block, action) pair's rows can pay 0.0 and -0.0; "of-pair" and "bernoulli"
    are plain samples with deterministic and Bernoulli rewards; "not-of-state" has
    blocks drawn per row from a pool
    (a -0.0/0.0 twin, an action permutation) or fresh; "huge-states" keys blocks by
    state ids far apart, so the state pass sorts, and may give some of a state's
    rows a -0.0 twin of its block; "empty-blocks" has d = 0."""
    rng = np.random.default_rng(seed)
    H, A, d = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    if kind in SAMPLED_KINDS:
        sizes = [1] + [int(rng.integers(1, 6)) for _ in range(H - 1)] + [1]
        reward_kind, scale = SAMPLED_KINDS[kind]
        mdp, fm = random_linear_mdp(d, H, sizes, A, int(rng.integers(0, 2**31)), reward_kind, scale)
        ds = sample_trajectories(mdp, uniform_policy(mdp), n, int(rng.integers(0, 2**31)), fm)
        if kind in ("of-pair", "bernoulli"):
            return ds
        rewards = ds.rewards.copy()
        rewards[(rewards == 0.0) & (rng.random(rewards.shape) < 0.5)] = -0.0
        return dense_dataset(ds.states, ds.actions, rewards, ds.features)
    pool = rng.normal(size=(4, A, d))
    pool[0, 0, 0] = 0.0
    pool[1] = pool[0]
    pool[1, 0, 0] = -0.0
    pool[2] = pool[0, ::-1]
    states = np.zeros((n, H + 1), dtype=np.int64)
    if kind == "huge-states":
        states[:, 1:H] = rng.choice(HUGE_STATES, size=(n, H - 1))
        of_state = {s: pool[int(rng.integers(0, 4))] for s in HUGE_STATES + [0]}
        feats = np.array([[of_state[s] for s in row] for row in states[:, :H].tolist()]).reshape(n, H, A, d)
        if rng.random() < 0.5:  # some rows of a state differ from its others only by a -0.0
            corner = feats[..., 0, 0]
            corner[(corner == 0.0) & (rng.random(corner.shape) < 0.3)] = -0.0
    else:
        states[:, 1:H] = rng.integers(0, 3, size=(n, H - 1))
        feats = rng.normal(size=(n, H, A, d))
        from_pool = rng.random((n, H)) < 0.7
        feats[from_pool] = pool[rng.integers(0, 4, size=int(from_pool.sum()))]
        if kind == "empty-blocks":
            feats = feats[..., :0]
    rewards = rng.choice(REWARDS, size=(n, H + 1))
    rewards[:, H] = 0.0
    return dense_dataset(states, rng.integers(0, A, size=(n, H + 1)), rewards, feats)


class TestGroupingAgainstByteKeys:
    """``visited_blocks`` and ``tail_paths`` group through ``_factorize``; they must
    equal the byte-key sorts they replace."""

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_factorize_branches_agree(self, codes):
        codes = np.array(codes, dtype=np.uint64)
        n = len(codes)
        dense = _factorize(codes, int(codes.max()) + 1)  # 64 <= 4n + 64: the first-occurrence table
        by_sort = _factorize(codes, 4 * n + 65)  # past the table: the 1-D sort
        for got, want in zip(dense, by_sort):
            assert (got.dtype, got.shape) == (want.dtype, want.shape) and np.array_equal(got, want)
        first, inverse = dense
        assert np.array_equal(codes[first], np.unique(codes)) and np.array_equal(codes[first][inverse], codes)
        assert all(first[g] == np.flatnonzero(inverse == g)[0] for g in range(len(first)))

    def test_factorize_full_uint64_range(self):
        codes = np.array([2**64 - 1, 0, 2**63, 0, 2**64 - 1], dtype=np.uint64)
        first, inverse = _factorize(codes, 2**64)
        assert first.tolist() == [1, 2, 0] and inverse.tolist() == [2, 0, 1, 0, 2]

    @given(st.sampled_from(GROUPING_KINDS), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7, 40, 150]))
    @settings(max_examples=80, deadline=None)
    def test_against_byte_keys(self, kind, seed, n):
        ds = grouping_dataset(kind, seed, n)
        for (blocks, rows), (want_blocks, want_rows) in zip(ds.visited_blocks, byte_key_blocks(ds), strict=True):
            assert (blocks.dtype, blocks.shape) == (want_blocks.dtype, want_blocks.shape)
            assert blocks.tobytes() == want_blocks.tobytes()
            assert (rows.dtype, rows.shape) == (code_dtype(len(blocks)), want_rows.shape)
            assert np.array_equal(rows, want_rows)
        for (first, back), (want_first, want_back) in zip(ds.tail_paths, byte_key_tails(ds), strict=True):
            m = len(want_first)
            assert first.shape == (m,) and (back.dtype, back.shape) == (code_dtype(m), (ds.n,))
            assert len({(a, b) for a, b in zip(back.tolist(), want_back.tolist())}) == m  # the same partition
            assert [int(np.flatnonzero(back == g)[0]) for g in range(m)] == first.tolist()
            assert sorted(first.tolist()) == sorted(want_first.tolist())


def assert_same_groupings(got: Dataset, want: Dataset) -> None:
    """``visited_blocks`` and ``tail_paths`` of ``got`` and ``want``: every array's
    dtype, shape and bytes."""
    for grouping in ("visited_blocks", "tail_paths"):
        for pair, want_pair in zip(getattr(got, grouping), getattr(want, grouping), strict=True):
            for a, b in zip(pair, want_pair, strict=True):
                assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), grouping


def held_arrays(obj, seen=None):
    """Every ndarray a ``Dataset`` holds, through its lists, tuples and parent."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from held_arrays(item, seen)
    elif isinstance(obj, Dataset):
        for value in vars(obj).values():
            yield from held_arrays(value, seen)


class TestFactoredDatasets:
    """The stored per-stage grouping: the sampler's, a dense input's and a prefix's
    must equal a fresh grouping of the same rows' dense features."""

    @given(st.sampled_from(GROUPING_KINDS), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7, 40, 150]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_prefix_equals_a_fresh_grouping(self, kind, seed, n, data):
        # dense features not a function of the state, -0.0/0.0 twins in features and
        # rewards, far-apart state ids and (A, d) blocks with A * d = 0
        ds = grouping_dataset(kind, seed, n)
        if data.draw(st.booleans(), label="parent tails first"):
            ds.tail_paths
        k = data.draw(st.integers(1, n), label="prefix")
        view = ds.prefix(k)
        fresh = dense_dataset(ds.states[:k], ds.actions[:k], ds.rewards[:k], ds.features[:k])
        assert len(view) == k
        for key in ("states", "actions", "rewards", "features"):
            assert getattr(view, key).tobytes() == getattr(fresh, key).tobytes(), key
        assert_same_groupings(view, fresh)
        inner = data.draw(st.integers(1, k), label="prefix of the prefix")
        assert_same_groupings(view.prefix(inner), ds.prefix(inner))

    def test_prefix_of_the_whole_is_the_dataset(self, fixed_instance):
        mdp, fm = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 6, 3, fm)
        assert ds.prefix(6) is ds
        for bad in (0, 7, 2.0, True):
            with pytest.raises(ValidationError):
                ds.prefix(bad)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(SAMPLED_KINDS)), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_sampler_groups_as_its_dense_features_do(self, seed, kind, edit):
        # the reference gathers each row's blocks from the feature map, as the sampler
        # did before it grouped by state; "edit" makes some states share a block and
        # gives some zero entries a -0.0 twin
        rng = np.random.default_rng(seed)
        H, A, d = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sizes = [1] + [int(rng.integers(1, 6)) for _ in range(H - 1)] + [1]
        reward_kind, scale = SAMPLED_KINDS[kind]
        mdp, fm = random_linear_mdp(d, H, sizes, A, int(rng.integers(0, 2**31)), reward_kind, scale)
        if edit:
            phi = [p.copy() for p in fm.phi]
            for p in phi[1:H]:
                p[rng.integers(0, len(p), size=len(p) // 2)] = p[0]
                p[(rng.random(p.shape) < 0.3)] = 0.0
                p[(p == 0.0) & (rng.random(p.shape) < 0.5)] = -0.0
            fm = FeatureMap(d=d, phi=phi, l1_bound=fm.l1_bound)
        n = int(rng.integers(1, 200))
        ds = sample_trajectories(mdp, uniform_policy(mdp), n, int(rng.integers(0, 2**31)), fm)
        dense = np.stack([fm.phi[h][ds.states[:, h]] for h in range(H)], axis=1)
        assert ds.features.tobytes() == dense.tobytes()
        assert_same_groupings(ds, dense_dataset(ds.states, ds.actions, ds.rewards, dense))

    def test_no_dense_features_held(self, fixed_instance, tmp_path):
        # sampled, prefixed and loaded datasets keep per-stage blocks and codes, with
        # their caches filled, and no (n, H, A, d) array
        from skiprl.harness import load_dataset, save_dataset

        mdp, fm = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 500, 9, fm)
        save_dataset(ds, tmp_path / "data.npz")
        for item in (ds, ds.prefix(200), load_dataset(tmp_path / "data.npz")):
            item.tail_paths
            held = list(held_arrays(item))
            assert held and all(a.ndim <= 3 for a in held)
            assert ds.features.ndim == 4  # the dense view is built on request only
