"""Differential tests: the stacked policy sample, evaluation and fit against
per-policy reference code.

The ``ref_*`` functions below are the one-policy-at-a-time implementations
the stacked path replaced, kept here verbatim in behaviour.  Every comparison
is exact (array bytes or float equality), so a stacked path that drifts by
one bit fails.
"""
import itertools
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tabular_mdp
from skiprl import design as design_mod, envs
from skiprl.design import approx_optimal_design, build_true_guess, panel_size
from skiprl.envs import (
    FIT_CHUNK,
    FeatureMap,
    estimate_misspecification,
    fit_policy_stack,
    random_linear_mdp,
    sample_policies,
    stage_ranges,
)
from skiprl.mdp import (
    REWARD_KINDS,
    Policy,
    PolicyStack,
    StagedMdp,
    ValidationError,
    count_deterministic_policies,
    deterministic_policy,
    deterministic_policy_stacks,
    enumerate_deterministic_policies,
    evaluate_policy,
    evaluate_stack,
    optimal_policy,
    random_policy,
    random_policy_stack,
    uniform_policy,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# per-policy reference implementations


def ref_random_policy(mdp, rng):
    A = mdp.num_actions
    return Policy([rng.dirichlet(np.ones(A), size=k) for k in mdp.stage_sizes])


def ref_enumerate_deterministic(mdp):
    H, A = mdp.horizon, mdp.num_actions
    slots = sum(mdp.stage_sizes[:-1])
    for combo in itertools.product(range(A), repeat=slots):
        actions, i = [], 0
        for h in range(H):
            k = mdp.stage_sizes[h]
            actions.append(list(combo[i:i + k]))
            i += k
        actions.append([0])
        yield deterministic_policy(mdp, actions)


def ref_sample_policies(mdp, count, seed):
    rng = np.random.default_rng(seed)
    pis = [uniform_policy(mdp), optimal_policy(mdp)[0]]
    while len(pis) < count:
        pis.append(ref_random_policy(mdp, rng))
    return pis[:count]


def ref_fit_one_policy(mdp, featmap, policy):
    """(theta, l2_bound, residual, rank-deficient stages) of one policy."""
    values = evaluate_policy(mdp, policy)
    H, d = mdp.horizon, featmap.d
    theta = np.zeros((H + 1, d))
    worst = 0.0
    flagged = []
    for h in range(H):
        design = featmap.phi[h].reshape(-1, d)
        target = values.q[h].ravel()
        sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        theta[h] = sol
        if rank < d:
            flagged.append(h)
        worst = max(worst, float(np.abs(design @ sol - target).max()))
    return theta, float(np.linalg.norm(theta, axis=1).max()), worst, tuple(flagged)


def ref_true_guess(mdp, featmap, policies):
    """(panels, radius_bound) of the guess built from per-policy fits."""
    fits = [ref_fit_one_policy(mdp, featmap, pi) for pi in policies]
    k, d = panel_size(featmap.d), featmap.d
    panels = []
    for stage in range(1, mdp.horizon):
        support = approx_optimal_design(np.stack([f[0][stage] for f in fits])).support
        rows = np.zeros((k, d))
        rows[: support.shape[0]] = support
        panels.append(rows)
    return panels, max(max(f[1] for f in fits), 1e-12)


def ref_state_range(featmap, thetas, stage, state):
    feats = featmap.phi[stage][state]
    best = 0.0
    for theta in thetas:
        scores = feats @ theta[stage]
        best = max(best, float(scores.max() - scores.min()))
    return best


def ref_misspecification(mdp, featmap, policy_sample_size, seed, enumeration_cap=10_000):
    if count_deterministic_policies(mdp) <= enumeration_cap:
        policies = ref_enumerate_deterministic(mdp)
    else:
        rng = np.random.default_rng(seed)
        policies = (ref_random_policy(mdp, rng) for _ in range(policy_sample_size))
    return max(ref_fit_one_policy(mdp, featmap, pi)[2] for pi in policies)


def ref_verify(inputs, support, weights, two_d):
    V = (support.T * weights) @ support
    pinv, proj = design_mod._pseudo_inverse(V)
    kernel_residual = 0.0
    max_dual = 0.0
    for theta in inputs:
        off = np.linalg.norm(theta - proj @ theta)
        kernel_residual = max(kernel_residual, off / max(1.0, np.linalg.norm(theta)))
        max_dual = max(max_dual, float(theta @ pinv @ theta))
    ok = kernel_residual <= design_mod.KERNEL_TOL and max_dual <= two_d + design_mod.DUAL_SLACK
    return ok, V, max_dual, kernel_residual


def line_featmap(mdp):
    """d=2 features confined to the first axis: every stage matrix has rank 1."""
    phi = []
    for k in mdp.stage_sizes[:-1]:
        block = np.zeros((k, mdp.num_actions, 2))
        block[..., 0] = 1.0
        phi.append(block)
    phi.append(np.zeros((1, mdp.num_actions, 2)))
    return FeatureMap(d=2, phi=phi, l1_bound=1.0)


def assert_tables_equal(stack, policies):
    assert len(stack) == len(policies)
    for h, table in enumerate(stack.tables):
        want = np.stack([pi.tables[h] for pi in policies]) if policies else np.zeros((0,) + table.shape[1:])
        assert table.shape == want.shape and table.tobytes() == want.tobytes(), f"stage {h}"


instance_args = st.tuples(
    st.integers(1, 4),                      # d
    st.integers(1, 5),                      # horizon
    st.lists(st.integers(1, 6), min_size=4, max_size=4),
    st.integers(1, 4),                      # actions
    st.integers(0, 2**31 - 1),              # env seed
    st.sampled_from(REWARD_KINDS),
)


def make_instance(args):
    d, H, sizes, A, seed, kind = args
    stage_sizes = [1] + sizes[: H - 1] + [1]
    return random_linear_mdp(d, H, stage_sizes, A, seed, reward_kind=kind)


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("count", [0, 1, 2, 3, 200])
def test_sample_policies_matches_random_policy_loop(count):
    mdp, _ = random_linear_mdp(3, 4, (1, 5, 3, 4, 1), 3, seed=21)
    assert_tables_equal(sample_policies(mdp, count, 8), ref_sample_policies(mdp, count, 8))


@pytest.mark.parametrize("count", [-1, -2])
def test_negative_policy_count_refused(count):
    # -1 used to keep only the uniform policy (the slice [:count]); -2 gave an empty sample
    mdp, _ = random_linear_mdp(2, 2, (1, 3, 1), 2, seed=3)
    with pytest.raises(ValidationError, match=rf"^policy count must be >= 0, got {count}$"):
        sample_policies(mdp, count, 8)


@pytest.mark.parametrize("count", [20.0, 2.5, True, np.float64(3.0)], ids=["float", "fraction", "bool", "numpy-float"])
def test_non_integer_policy_count_refused(count):
    # 20.0 used to fail in a slice with a bare TypeError
    mdp, _ = random_linear_mdp(2, 2, (1, 3, 1), 2, seed=3)
    with pytest.raises(ValidationError) as err:
        sample_policies(mdp, count, 5)
    assert str(err.value) == f"policy count must be an integer, got {count!r}"


def test_random_stack_reads_the_loop_stream():
    mdp, _ = random_linear_mdp(2, 3, (1, 4, 2, 1), 4, seed=2)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    stack = random_policy_stack(mdp, a, 17)
    assert_tables_equal(stack, [ref_random_policy(mdp, b) for _ in range(17)])
    assert a.bit_generator.state == b.bit_generator.state
    one = random_policy(mdp, a)
    assert all(t.tobytes() == w.tobytes() for t, w in zip(one.tables, ref_random_policy(mdp, b).tables))


def test_stack_checks_rows_once_per_stage():
    mdp, _ = random_linear_mdp(2, 2, (1, 3, 1), 2, seed=0)
    tables = [t.copy() for t in sample_policies(mdp, 5, 0).tables]
    tables[1][3, 2] = [1.5, -0.5]
    with pytest.raises(ValidationError, match="policy stack stage 1: negative"):
        PolicyStack(tables)
    tables[1][3, 2] = [0.6, 0.6]
    with pytest.raises(ValidationError, match="policy stack stage 1: rows must sum to 1"):
        PolicyStack(tables)


def test_stack_is_a_policy_sequence():
    mdp, _ = random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=4)
    policies = ref_sample_policies(mdp, 6, 1)
    stack = sample_policies(mdp, 6, 1)
    assert PolicyStack.of(mdp, stack) is stack
    for got, want in zip(stack, policies):
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.tables, want.tables))
    assert_tables_equal(PolicyStack.of(mdp, policies), policies)
    assert_tables_equal(PolicyStack.of(mdp, []), [])


# ---------------------------------------------------------------------------
# evaluation and fit


@settings(max_examples=30, deadline=None)
@given(args=instance_args, count=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_stacked_evaluation_matches_evaluate_policy(args, count, seed):
    mdp, _ = make_instance(args)
    stack = sample_policies(mdp, count, seed)
    values = evaluate_stack(mdp, stack)
    for i, pi in enumerate(stack):
        want = evaluate_policy(mdp, pi)
        for h in range(mdp.horizon + 1):
            assert values.q[h][i].tobytes() == want.q[h].tobytes()
            assert values.v[h][i].tobytes() == want.v[h].tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(REWARD_KINDS))
def test_stacked_evaluation_on_tabular_mdps(seed, kind):
    rng = np.random.default_rng(seed)
    mdp = random_tabular_mdp(rng, reward_kind=kind)
    policies = [random_policy(mdp, rng) for _ in range(4)]
    values = evaluate_stack(mdp, PolicyStack.of(mdp, policies))
    for i, pi in enumerate(policies):
        want = evaluate_policy(mdp, pi)
        assert all(values.q[h][i].tobytes() == want.q[h].tobytes() for h in range(mdp.horizon + 1))


@settings(max_examples=25, deadline=None)
@given(args=instance_args, count=st.integers(1, 30), seed=st.integers(0, 2**31 - 1))
def test_stacked_fit_matches_per_policy_fit(args, count, seed):
    mdp, fm = make_instance(args)
    stack = sample_policies(mdp, count, seed)
    fit = fit_policy_stack(mdp, fm, stack)
    for i, pi in enumerate(stack):
        theta, l2, residual, flagged = ref_fit_one_policy(mdp, fm, pi)
        assert fit.theta[:, i].tobytes() == theta.tobytes()
        assert fit.l2_bounds[i] == l2 and fit.residuals[i] == residual
        assert fit.rank_deficient_stages == flagged
        one = fit_policy_stack(mdp, fm, [pi])
        assert one.theta[:, 0].tobytes() == theta.tobytes()
        assert (one.l2_bounds[0], one.residuals[0], one.rank_deficient_stages) == (l2, residual, flagged)


def test_rank_flags_shared_across_the_stack():
    mdp = random_tabular_mdp(np.random.default_rng(12), horizon=3, max_states=3, max_actions=2)
    fm = line_featmap(mdp)
    policies = [uniform_policy(mdp)] + [random_policy(mdp, np.random.default_rng(i)) for i in range(5)]
    fit = fit_policy_stack(mdp, fm, policies)
    assert fit.rank_deficient_stages == tuple(range(mdp.horizon))
    for i, pi in enumerate(policies):
        theta, l2, residual, flagged = ref_fit_one_policy(mdp, fm, pi)
        assert fit.theta[:, i].tobytes() == theta.tobytes() and fit.residuals[i] == residual
        assert fit.rank_deficient_stages == flagged


@settings(max_examples=15, deadline=None)
@given(args=instance_args, seed=st.integers(0, 2**31 - 1))
def test_repeated_target_rows_are_fitted_once(args, seed):
    # stage h's targets read the policy only after stage h: policies that differ only
    # at stage 0 share every target row, and q equals the reward table at stage H-1
    mdp, fm = make_instance(args)
    base = sample_policies(mdp, 4, seed)
    rng = np.random.default_rng(seed)
    tables = [np.concatenate([t, t[::-1], t]) for t in base.tables]
    tables[0] = rng.dirichlet(np.ones(mdp.num_actions), size=(12, 1))
    stack = PolicyStack(tables)
    values = evaluate_stack(mdp, stack)
    distinct = sum(len({row.tobytes() for row in values.q[h].reshape(12, -1)}) for h in range(mdp.horizon))
    assert distinct <= 4 * (mdp.horizon - 1) + 1
    with mock.patch.object(envs, "_lstsq_rows", wraps=envs._lstsq_rows) as spy:
        fit = fit_policy_stack(mdp, fm, stack)
    assert spy.call_count == mdp.horizon  # one stacked solve per stage
    assert sum(len(call.args[1]) for call in spy.call_args_list) == distinct
    for i, pi in enumerate(stack):
        theta, l2, residual, flagged = ref_fit_one_policy(mdp, fm, pi)
        assert fit.theta[:, i].tobytes() == theta.tobytes()
        assert fit.l2_bounds[i] == l2 and fit.residuals[i] == residual
        assert fit.rank_deficient_stages == flagged


@settings(max_examples=25, deadline=None)
@given(args=instance_args, count=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_stacked_fit_flags_a_duplicated_feature_column(args, count, seed):
    # a stage whose extra column repeats column 0 is rank deficient; the others get a
    # fresh column and are flagged only if they have fewer state-action rows than d + 1
    mdp, fm = make_instance(args)
    rng = np.random.default_rng(seed)
    phi = []
    for h, block in enumerate(fm.phi):
        extra = block[..., :1] if h < mdp.horizon and rng.random() < 0.5 else rng.random(block.shape[:2] + (1,))
        phi.append(np.concatenate([block, extra], axis=2))
    wide = FeatureMap(d=fm.d + 1, phi=phi, l1_bound=2.0)
    stack = sample_policies(mdp, count, seed)
    fit = fit_policy_stack(mdp, wide, stack)
    for i, pi in enumerate(stack):
        theta, l2, residual, flagged = ref_fit_one_policy(mdp, wide, pi)
        assert fit.theta[:, i].tobytes() == theta.tobytes()
        assert fit.l2_bounds[i] == l2 and fit.residuals[i] == residual
        assert fit.rank_deficient_stages == flagged


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 2), A=st.integers(1, 2), H=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_signed_zero_twin_targets_are_solved_apart(d, A, H, seed):
    # with zero rewards every q is 0.0; some policies' rows are given -0.0 entries,
    # which a one- or two-row design solves to differently signed zeros
    mdp, fm = random_linear_mdp(d, H, [1] * (H + 1), A, seed, reward_scale=0.0)
    rng = np.random.default_rng(seed)
    stack = sample_policies(mdp, 8, seed)
    signs = [rng.random((len(stack), mdp.stage_sizes[h], A)) < 0.5 for h in range(H)]

    def with_twins(mdp, stack):
        values = evaluate_stack(mdp, stack)
        for h in range(H):
            values.q[h][signs[h]] = -0.0
        return values

    with mock.patch.object(envs, "evaluate_stack", with_twins):
        fit = fit_policy_stack(mdp, fm, stack)
    for h in range(H):
        design = fm.phi[h].reshape(-1, d)
        for i in range(len(stack)):
            target = np.where(signs[h][i].ravel(), -0.0, 0.0)
            want = np.linalg.lstsq(design, target, rcond=None)[0]
            assert fit.theta[h, i].tobytes() == want.tobytes()


def test_stacked_solve_is_numpys_lstsq():
    # fit_policy_stack calls numpy's private lstsq gufunc; a numpy that moves or
    # changes it fails here by name
    from numpy.linalg import _umath_linalg

    assert _umath_linalg.lstsq.signature == "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"
    assert "ddd->ddid" in _umath_linalg.lstsq.types
    rng = np.random.default_rng(0)
    design = rng.random((12, 3))
    design[:, 2] = design[:, 0]  # rank deficient, so the rcond cut matters
    rows = rng.normal(size=(5, 12))
    solved, ranks = envs._lstsq_rows(design, rows)
    for row, got, rank in zip(rows, solved, ranks, strict=True):
        want, _, want_rank, _ = np.linalg.lstsq(design, row, rcond=None)
        assert got.tobytes() == want.tobytes() and rank == want_rank == 2


def test_stacked_solve_raises_when_the_svd_fails():
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        envs._lstsq_rows(np.full((3, 2), np.nan), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# guess, ranges and misspecification


@pytest.mark.parametrize(
    "d, H, sizes, A, env_seed, count",
    [
        (2, 3, (1, 4, 4, 1), 2, 10, 200),        # the acceptance instance
        (4, 5, (1, 8, 8, 8, 8, 1), 3, 10, 200),  # the wide instance
        (1, 2, (1, 3, 1), 2, 5, 40),
        (3, 4, (1, 2, 5, 3, 1), 3, 77, 60),
    ],
    ids=["acceptance", "wide", "d1", "uneven"],
)
def test_true_guess_matches_per_policy_reference(d, H, sizes, A, env_seed, count):
    mdp, fm = random_linear_mdp(d, H, sizes, A, env_seed)
    policies = ref_sample_policies(mdp, count, 5)
    guess = build_true_guess(mdp, fm, sample_policies(mdp, count, 5))
    panels, radius = ref_true_guess(mdp, fm, policies)
    assert [p.tobytes() for p in guess.panels] == [p.tobytes() for p in panels]
    assert guess.radius_bound == radius
    flags = {ref_fit_one_policy(mdp, fm, pi)[3] for pi in policies}
    assert flags == {fit_policy_stack(mdp, fm, policies).rank_deficient_stages}


def test_true_guess_on_rank_deficient_features():
    mdp = random_tabular_mdp(np.random.default_rng(3), horizon=3, max_states=4, max_actions=3)
    fm = line_featmap(mdp)
    policies = [uniform_policy(mdp)] + [random_policy(mdp, np.random.default_rng(i)) for i in range(20)]
    guess = build_true_guess(mdp, fm, policies)
    panels, radius = ref_true_guess(mdp, fm, policies)
    assert [p.tobytes() for p in guess.panels] == [p.tobytes() for p in panels]
    assert guess.radius_bound == radius


@settings(max_examples=20, deadline=None)
@given(args=instance_args, count=st.integers(1, 25), seed=st.integers(0, 2**31 - 1))
def test_stage_ranges_match_per_state_loop(args, count, seed):
    mdp, fm = make_instance(args)
    stack = sample_policies(mdp, count, seed)
    thetas = [ref_fit_one_policy(mdp, fm, pi)[0] for pi in stack]
    fit = fit_policy_stack(mdp, fm, stack)
    for stage in range(1, mdp.horizon):
        ranges = stage_ranges(fm, fit.theta[stage], stage)
        for s in range(mdp.stage_sizes[stage]):
            want = ref_state_range(fm, thetas, stage, s)
            assert ranges[s] == want


def shared_feature_mdp():
    transitions = [
        np.array([[[0.5, 0.5], [0.5, 0.5]]]),
        np.array([[[1.0], [1.0]], [[1.0], [1.0]]]),
    ]
    rewards = [np.array([[0.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros((1, 2))]
    mdp = StagedMdp(2, (1, 2, 1), 2, transitions, rewards)
    phi = [np.ones((k, 2, 1)) for k in mdp.stage_sizes[:-1]] + [np.zeros((1, 2, 1))]
    return mdp, FeatureMap(d=1, phi=phi, l1_bound=1.0)


@pytest.mark.parametrize(
    "build, sample_size, seed, cap",
    [
        (lambda: random_linear_mdp(2, 3, (1, 3, 3, 1), 2, seed=7), 50, 0, 10_000),
        (lambda: random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=13), 40, 1, 10_000),
        (shared_feature_mdp, 10, 0, 10_000),
        (lambda: random_linear_mdp(2, 3, (1, 4, 5, 1), 2, seed=3), 30, 2, 10_000),  # 1024 policies, 2 chunks
        (lambda: random_linear_mdp(3, 3, (1, 4, 4, 1), 3, seed=9), 700, 4, 100),   # random branch, 2 chunks
    ],
    ids=["exact-7", "exact-13", "shared-feature", "enumerated-chunks", "random-chunks"],
)
def test_misspecification_matches_per_policy_reference(build, sample_size, seed, cap):
    mdp, fm = build()
    got = estimate_misspecification(mdp, fm, sample_size, seed, enumeration_cap=cap)
    assert got == ref_misspecification(mdp, fm, sample_size, seed, enumeration_cap=cap)


def test_deterministic_stacks_are_bounded_and_in_order():
    mdp, _ = random_linear_mdp(2, 3, (1, 3, 4, 1), 2, seed=1)
    chunk = 100
    stacks = list(deterministic_policy_stacks(mdp, chunk))
    assert all(len(s) <= chunk for s in stacks)
    assert sum(len(s) for s in stacks) == count_deterministic_policies(mdp) == 256
    assert FIT_CHUNK < count_deterministic_policies(random_linear_mdp(2, 3, (1, 4, 5, 1), 2, seed=3)[0])
    want = list(ref_enumerate_deterministic(mdp))
    for policies in ([pi for s in stacks for pi in s], list(enumerate_deterministic_policies(mdp))):
        assert len(policies) == len(want)
        for got, ref in zip(policies, want):
            assert all(g.tobytes() == r.tobytes() for g, r in zip(got.tables, ref.tables))


# ---------------------------------------------------------------------------
# design check


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 5),
    m=st.integers(1, 40),
    k=st.integers(1, 6),
    low_rank=st.booleans(),
)
def test_vectorised_design_check_matches_loop(seed, d, m, k, low_rank):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(m, d)) * rng.uniform(0.01, 50.0)
    if low_rank and d > 1:
        inputs[:, -1] = 0.0  # kernel direction the support never spans
    support = inputs[rng.integers(0, m, size=k)]
    weights = rng.uniform(0.1, 1.0, size=k)
    weights /= weights.sum()
    got = design_mod._verify(inputs, support, weights, 2.0 * d)
    want = ref_verify(inputs, support, weights, 2.0 * d)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2] and got[3] == want[3]


def test_fresh_build_instance_does_not_import_numpy_ma():
    # np.unique(X, axis=0) without return_index makes numpy 2.4 import numpy.ma lazily
    code = (
        "import sys\n"
        "import skiprl\n"
        "from skiprl import harness\n"
        "before = 'numpy.ma' in sys.modules\n"
        f"cfg = harness.ExperimentConfig.from_json(open({os.path.join(ROOT, 'scripts', 'acceptance_config.json')!r}).read())\n"
        "harness.build_instance(cfg)\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == "True" or after == "False", "build_instance imported numpy.ma"
