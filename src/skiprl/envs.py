"""Exactly linear environments and policy parameter fitting.

The generator builds MDPs whose transitions and mean rewards are inner
products with a feature map, so every policy's action-value function is
exactly linear in the features (zero misspecification).  Fitting recovers the
per-stage parameters of a set of policies by least squares and reports the
achieved sup-norm residuals, which is what the misspecification and range
estimators build on.  A policy set is fitted as one ``PolicyStack`` (one
policy is the one-policy stack): one backward induction over the whole stack,
then one stacked single-column ``lstsq`` over the distinct target rows of each
stage, bit-identical to fitting each policy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .mdp import (
    PolicyStack,
    StagedMdp,
    ValidationError,
    count_deterministic_policies,
    deterministic_policy_stacks,
    evaluate_stack,
    is_integer,
    optimal_policy,
    random_policy_stack,
    uniform_policy,
)

NORM_TOL = 1e-12
FIT_CHUNK = 512  # policies per stacked fit when estimating the misspecification


class GenerationError(RuntimeError):
    """The environment generator could not produce a valid instance."""


@dataclass
class FeatureMap:
    """Per-(stage, state, action) feature vectors with a norm bound.

    ``phi[h]`` has shape (S_h, A, d) for stages 0..H; every vector's
    Euclidean norm is at most ``l1_bound``.
    """

    d: int
    phi: list
    l1_bound: float

    def __post_init__(self):
        self.phi = [np.asarray(p, dtype=float) for p in self.phi]
        for h, p in enumerate(self.phi):
            if p.ndim != 3 or p.shape[2] != self.d:
                raise ValidationError(f"features stage {h}: expected shape (S, A, {self.d})")
            if not np.isfinite(p).all():  # a NaN norm would pass the bound check
                raise ValidationError(f"features stage {h}: non-finite entries present")
            worst = np.linalg.norm(p, axis=2).max()
            if not worst <= self.l1_bound + NORM_TOL:  # also refuses a NaN bound
                raise ValidationError(
                    f"features stage {h}: norm {worst:.6g} exceeds bound {self.l1_bound:.6g}"
                )

    @property
    def horizon(self) -> int:
        return len(self.phi) - 1

    def check_against(self, mdp: StagedMdp) -> None:
        if self.horizon != mdp.horizon:
            raise ValidationError("feature map horizon does not match MDP")
        for h, p in enumerate(self.phi):
            if p.shape[:2] != (mdp.stage_sizes[h], mdp.num_actions):
                raise ValidationError(f"features stage {h}: shape does not match MDP")


@dataclass
class StackParams:
    """Per-stage linear parameters fitted to every policy of a ``PolicyStack``.

    ``theta`` has shape (H+1, P, d), stage-major so that ``theta[h]`` is the
    (P, d) block of stage h and ``theta[:, i]`` is policy i's parameters; the
    terminal block must be zero.  ``l2_bounds`` holds each policy's largest
    per-stage parameter norm and ``residuals`` its sup-norm fit error over all
    stages and state-action pairs.  The rank flags are shared: every policy is
    fitted against the same stage feature matrix.
    """

    theta: np.ndarray
    l2_bounds: np.ndarray
    residuals: np.ndarray
    rank_deficient_stages: tuple = ()

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if np.any(self.theta[-1] != 0):
            raise ValidationError("terminal parameter block must be zero")


def random_linear_mdp(
    d: int,
    horizon: int,
    stage_sizes,
    num_actions: int,
    seed,
    reward_kind: str = "deterministic-mean",
    reward_scale: float = 1.0,
):
    """Sample an exactly linear MDP together with its feature map.

    Features are drawn from the probability simplex and next-state factors
    are per-coordinate distributions, so every transition row is a convex
    mixture of distributions and every mean reward an inner product with a
    vector in [0, 1]^d.  Instances therefore satisfy exact linear
    q^pi-realizability.
    """
    if d < 1:
        raise GenerationError("feature dimension must be >= 1")
    if num_actions < 1:
        raise GenerationError("num_actions must be >= 1")
    if not (0.0 <= reward_scale <= 1.0):
        raise GenerationError("reward_scale must lie in [0, 1]")
    if len(stage_sizes) != horizon + 1:
        raise GenerationError("stage_sizes must list one positive size per stage")
    for h, k in enumerate(stage_sizes):
        if not is_integer(k) or k < 1:
            raise GenerationError(f"stage {h} size must be a positive integer, got {k!r}")
    sizes = tuple(int(k) for k in stage_sizes)
    rng = np.random.default_rng(seed)
    phi = []
    transitions = []
    rewards = []
    for h in range(horizon):
        feats = rng.dirichlet(np.ones(d), size=(sizes[h], num_actions))
        next_factors = rng.dirichlet(np.ones(sizes[h + 1]), size=d)  # (d, S_{h+1})
        theta_r = reward_scale * rng.uniform(0.0, 1.0, size=d)
        phi.append(feats)
        transitions.append(feats @ next_factors)
        rewards.append(feats @ theta_r)
    phi.append(np.zeros((1, num_actions, d)))
    rewards.append(np.zeros((1, num_actions)))
    try:
        mdp = StagedMdp(
            horizon=horizon,
            stage_sizes=sizes,
            num_actions=num_actions,
            transitions=transitions,
            reward_means=rewards,
            reward_kind=reward_kind,
        )
        l1 = max(np.linalg.norm(p, axis=2).max() for p in phi[:-1])
        featmap = FeatureMap(d=d, phi=phi, l1_bound=float(l1))
        featmap.check_against(mdp)
    except ValidationError as err:
        raise GenerationError(f"invalid instance: {err}") from err
    return mdp, featmap


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_rows(design: np.ndarray, rows: np.ndarray):
    """``np.linalg.lstsq(design, row, rcond=None)`` for every row of ``rows`` (k, m)
    in one call of numpy's ``lstsq`` gufunc: the (k, d) solutions and (k,) ranks.

    Each item is the single-right-hand-side gelsd that ``np.linalg.lstsq`` runs,
    with its ``rcond``, so every solution has its bits (a multi-column solve
    would move them), and SVD non-convergence raises ``np.linalg.LinAlgError``
    as it does there.
    """
    rcond = np.finfo(np.float64).eps * max(design.shape)
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        solved, _, ranks, _ = _umath_linalg.lstsq(design, rows[:, :, None], rcond, signature="ddd->ddid")
    return solved[..., 0], ranks


def fit_policy_stack(mdp: StagedMdp, featmap: FeatureMap, policies) -> StackParams:
    """Least-squares fit of theta_h to q^pi over each stage's state-action grid,
    for every policy of a ``PolicyStack`` (or a sequence of ``Policy``).

    The objective is the l2 surrogate of the sup-norm minimizer; the reported
    residual is always the sup norm.  Rank-deficient stage feature matrices
    fall back to the minimum-norm solution and are flagged.  The stack is
    evaluated in one pass, and the distinct target rows of a stage are solved
    in one stacked call (``_lstsq_rows``), so every policy's fit is
    bit-identical to fitting it alone.  Rows are matched by their bytes, so
    ``-0.0`` and ``0.0`` targets are solved apart; at stage H-1, where q
    equals the reward table for every policy, one row serves the whole stack.
    """
    featmap.check_against(mdp)
    stack = PolicyStack.of(mdp, policies)
    values = evaluate_stack(mdp, stack)
    H, d, P = mdp.horizon, featmap.d, len(stack)
    theta = np.zeros((H + 1, P, d))
    residuals = np.zeros(P)
    flagged = []
    for h in range(H):
        design = featmap.phi[h].reshape(-1, d)
        targets = np.ascontiguousarray(values.q[h].reshape(P, -1))
        keys = targets.view(np.dtype((np.void, targets.itemsize * targets.shape[1])))[:, 0]
        _, first, row_of = np.unique(keys, return_index=True, return_inverse=True)
        solved, ranks = _lstsq_rows(design, targets[first])
        theta[h] = solved[row_of]
        if ranks.min(initial=d) < d:
            flagged.append(h)
        fitted = (design @ theta[h][:, :, None])[..., 0]
        residuals = np.maximum(residuals, np.abs(fitted - targets).max(axis=1))
    return StackParams(
        theta=theta,
        l2_bounds=np.linalg.norm(theta, axis=2).max(axis=0),
        residuals=residuals,
        rank_deficient_stages=tuple(flagged),
    )


def sample_policies(mdp: StagedMdp, count: int, seed) -> PolicyStack:
    """Deterministic policy sample: uniform + optimal + random mixtures, as one stack.

    The random mixtures are one Dirichlet block (``random_policy_stack``),
    bit-identical to drawing them one policy at a time.  ``count`` must be an
    integer >= 0 (a bool is not one); a sample smaller than 2 holds the first
    ``count`` of uniform and optimal.
    """
    if not is_integer(count):
        raise ValidationError(f"policy count must be an integer, got {count!r}")
    if count < 0:
        raise ValidationError(f"policy count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    fixed = PolicyStack.of(mdp, [uniform_policy(mdp), optimal_policy(mdp)[0]][:count])
    drawn = random_policy_stack(mdp, rng, max(count - 2, 0))
    return fixed.concat(drawn)


def estimate_misspecification(
    mdp: StagedMdp,
    featmap: FeatureMap,
    policy_sample_size: int,
    seed,
    enumeration_cap: int = 10_000,
) -> float:
    """Lower bound on the misspecification: worst fit residual over a policy set.

    Enumerates every deterministic policy when there are at most
    ``enumeration_cap`` of them, otherwise draws ``policy_sample_size``
    uniformly random mixture policies.  Either set is fitted in stacks of at
    most ``FIT_CHUNK`` policies.
    """
    if policy_sample_size < 1:
        raise ValidationError("policy_sample_size must be >= 1")
    if count_deterministic_policies(mdp) <= enumeration_cap:
        stacks = deterministic_policy_stacks(mdp, FIT_CHUNK)
    else:
        rng = np.random.default_rng(seed)
        stacks = (
            random_policy_stack(mdp, rng, min(FIT_CHUNK, policy_sample_size - start))
            for start in range(0, policy_sample_size, FIT_CHUNK)
        )
    return max(float(fit_policy_stack(mdp, featmap, stack).residuals.max()) for stack in stacks)


def stage_ranges(featmap: FeatureMap, theta: np.ndarray, stage: int) -> np.ndarray:
    """Largest fitted action-value spread at each state of ``stage`` across policies.

    ``theta`` is the (P, d) block of the policies' stage parameters.  Entry s
    is a lower bound on the true range of state s (the supremum runs over all
    memoryless policies); ranges are meant for interior stages 1..H-1.  One
    broadcast product scores every (policy, state, action) with the
    matrix-vector products a per-state loop would run.
    """
    scores = (featmap.phi[stage][None] @ theta[:, None, :, None])[..., 0]  # (P, S, A)
    return (scores.max(axis=2) - scores.min(axis=2)).max(axis=0, initial=0.0)
