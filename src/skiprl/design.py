"""Near-optimal experimental design, guess panels, and epsilon nets.

The design solver runs Frank-Wolfe (Wynn-Fedorov) steps on the D-optimal
objective restricted to the span of the inputs.  A returned design always
satisfies, for every input vector theta, that theta is orthogonal to the
kernel of the design matrix and that the pseudo-inverse quadratic form
theta' V^+ theta is at most 2d (up to tolerance); both conditions are checked
before returning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import StackParams, fit_policy_stack
from .mdp import PolicyStack, ValidationError, is_integer

KERNEL_TOL = 1e-8
DUAL_SLACK = 1e-6


class DesignError(RuntimeError):
    """Design construction failed; carries the worst dual value found."""

    def __init__(self, message, worst=None):
        super().__init__(message)
        self.worst = worst


def panel_size(d: int) -> int:
    """Support-size budget ceil(4 d ln ln d + 16), clamped at zero for small d."""
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    lnln = math.log(math.log(d)) if d >= 2 else float("-inf")
    return math.ceil(4.0 * d * max(0.0, lnln) + 16.0)


def _pseudo_inverse(V: np.ndarray):
    vals, vecs = np.linalg.eigh(V)
    cutoff = max(vals.max(), 0.0) * 1e-12 + 1e-300
    keep = vals > cutoff
    inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    pinv = (vecs * inv_vals) @ vecs.T
    range_proj = (vecs[:, keep]) @ (vecs[:, keep]).T
    return pinv, range_proj


@dataclass
class DesignResult:
    """Weighted support of a near-optimal design over the input vectors."""

    support: np.ndarray  # (k, d)
    weights: np.ndarray  # (k,)
    matrix: np.ndarray   # (d, d) design matrix V = sum_i w_i x_i x_i^T
    max_dual: float      # worst ||theta||^2_{V^+} over inputs
    kernel_residual: float

    def __post_init__(self):
        if abs(float(self.weights.sum()) - 1.0) > 1e-9 or np.any(self.weights < -1e-12):
            raise ValidationError("design weights must form a distribution")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for every row pair, each as the same dot product ``a_i @ b_i`` runs."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _verify(inputs: np.ndarray, support: np.ndarray, weights: np.ndarray, two_d: float):
    """Both design conditions over every input row.

    The broadcast products run, row by row, the matrix-vector and dot
    products of ``proj @ theta``, ``theta @ pinv @ theta`` and
    ``norm(theta)``, so the reported dual and kernel values do not depend on
    how many inputs are checked at once.
    """
    V = (support.T * weights) @ support
    pinv, proj = _pseudo_inverse(V)
    X = np.ascontiguousarray(inputs)
    off = X - (proj @ X[:, :, None])[..., 0]
    scale = np.maximum(1.0, np.sqrt(_row_dots(X, X)))
    kernel_residual = float((np.sqrt(_row_dots(off, off)) / scale).max(initial=0.0))
    max_dual = float(_row_dots((X[:, None, :] @ pinv)[:, 0], X).max(initial=0.0))
    ok = kernel_residual <= KERNEL_TOL and max_dual <= two_d + DUAL_SLACK
    return ok, V, max_dual, kernel_residual


def _greedy_basis(Y: np.ndarray, r: int) -> list:
    """Indices of r rows selected by greedy residual-norm pivoting."""
    residual = Y.copy()
    chosen = []
    for _ in range(r):
        norms = np.linalg.norm(residual, axis=1)
        i = int(np.argmax(norms))
        chosen.append(i)
        u = residual[i] / norms[i]
        residual = residual - np.outer(residual @ u, u)
    return chosen


def approx_optimal_design(vectors, tol: float = 1e-6, max_iters: int = 20_000) -> DesignResult:
    """Near-optimal D-design over a finite vector set via Frank-Wolfe.

    The iteration runs in the span of the inputs, truncates the support to at
    most ``panel_size(d)`` points, and re-verifies both near-optimality
    conditions on the full input set before returning.
    """
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError("design input must be a nonempty 2-D vector set")
    d = X.shape[1]
    two_d = 2.0 * d

    # return_index keeps numpy 2.4 from importing numpy.ma for the axis=0 case
    uniq = np.unique(X, axis=0, return_index=True)[0]
    nonzero = uniq[np.linalg.norm(uniq, axis=1) > 1e-14]
    if nonzero.shape[0] == 0:
        support = np.zeros((1, d))
        weights = np.ones(1)
        ok, V, max_dual, kres = _verify(X, support, weights, two_d)
        return DesignResult(support, weights, V, max_dual, kres)

    # Orthonormal basis of the span; all Frank-Wolfe work happens in r dims.
    u_full, svals, _ = np.linalg.svd(nonzero.T, full_matrices=False)
    r = int(np.sum(svals > svals[0] * 1e-12))
    Q = u_full[:, :r]
    Y = nonzero @ Q  # (m, r)
    m = Y.shape[0]

    w = np.zeros(m)
    for i in _greedy_basis(Y, r):
        w[i] += 1.0 / r
    V_r = (Y.T * w) @ Y

    target = 1.8 * r  # leaves slack below the 2d requirement for truncation
    gmax = float("inf")
    for _ in range(max_iters):
        V_inv = np.linalg.inv(V_r)
        g = np.einsum("ij,jk,ik->i", Y, V_inv, Y)
        imax = int(np.argmax(g))
        gmax = float(g[imax])
        if gmax <= target:
            break
        step = (gmax / r - 1.0) / (gmax - 1.0)
        w *= 1.0 - step
        w[imax] += step
        y = Y[imax]
        V_r = (1.0 - step) * V_r + step * np.outer(y, y)
    if gmax > two_d + tol:
        raise DesignError(
            f"Frank-Wolfe did not reach the near-optimality level (worst {gmax:.6g} > {two_d:.6g})",
            worst=gmax,
        )

    order = np.lexsort((np.arange(m), -w))
    keep = [i for i in order[: panel_size(d)] if w[i] > 1e-12]
    support = nonzero[keep]
    weights = w[keep] / w[keep].sum()
    ok, V, max_dual, kres = _verify(X, support, weights, two_d)
    if not ok:
        raise DesignError(
            f"design conditions violated after truncation (dual {max_dual:.6g}, kernel {kres:.3g})",
            worst=max_dual,
        )
    return DesignResult(support, weights, V, max_dual, kres)


# ---------------------------------------------------------------------------
# guesses


@dataclass
class Guess:
    """Per-stage panels of parameter vectors defining a surrogate range.

    ``panels[i]`` holds the panel for interior stage i+1 and has shape
    (panel_size(d), d); short panels are zero-padded.  All vectors stay in
    the ball of radius ``radius_bound``.
    """

    horizon: int
    panels: list
    radius_bound: float

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        if len(self.panels) != max(self.horizon - 1, 0):
            raise ValidationError("one panel per interior stage is required")
        self.panels = [np.asarray(p, dtype=float) for p in self.panels]
        if self.panels:
            d = self.panels[0].shape[1]
            want = (panel_size(d), d)
            for i, p in enumerate(self.panels):
                if p.shape != want:
                    raise ValidationError(f"panel for stage {i + 1}: expected shape {want}")
                worst = np.linalg.norm(p, axis=1).max()
                if worst > self.radius_bound + 1e-9:
                    raise ValidationError(
                        f"panel for stage {i + 1}: norm {worst:.6g} exceeds {self.radius_bound:.6g}"
                    )

    @property
    def dim(self) -> int:
        return self.panels[0].shape[1] if self.panels else 0

    def panel(self, stage: int) -> np.ndarray:
        if stage < 1 or stage >= self.horizon:
            raise ValidationError(f"no panel at stage {stage}")
        return self.panels[stage - 1]

    @classmethod
    def from_stage_vectors(cls, horizon: int, d: int, stage_vectors: dict, radius_bound=None) -> "Guess":
        """Build a guess from per-stage vector lists, zero-padding each panel."""
        k = panel_size(d)
        panels = []
        worst = 0.0
        for stage in range(1, horizon):
            rows = np.zeros((k, d))
            vecs = np.asarray(stage_vectors.get(stage, np.zeros((0, d))), dtype=float).reshape(-1, d)
            if vecs.shape[0] > k:
                raise ValidationError(f"stage {stage}: more vectors than the panel budget {k}")
            rows[: vecs.shape[0]] = vecs
            if vecs.size:
                worst = max(worst, float(np.linalg.norm(vecs, axis=1).max()))
            panels.append(rows)
        bound = worst if radius_bound is None else radius_bound
        return cls(horizon=horizon, panels=panels, radius_bound=max(bound, 1e-12))


def zero_guess(horizon: int, d: int, radius_bound: float = 1e-12) -> Guess:
    return Guess.from_stage_vectors(horizon, d, {}, radius_bound=radius_bound)


def build_true_guess(mdp, featmap, policies) -> Guess:
    """Design-based guess panels from the fitted parameters of a policy set.

    Each interior stage's panel is the support of a near-optimal design over
    that stage's fitted parameters, zero-padded to the panel budget.  The
    construction is deterministic for a fixed policy sample.
    """
    stack = PolicyStack.of(mdp, policies)
    if not len(stack):
        raise ValidationError("policy sample must be nonempty")
    return guess_from_fit(fit_policy_stack(mdp, featmap, stack))


def guess_from_fit(fit: StackParams) -> Guess:
    """``build_true_guess`` from the sample's ``fit_policy_stack`` result, for callers
    that use the fit again (``oracles.check_range_bound``)."""
    H, d = fit.theta.shape[0] - 1, fit.theta.shape[2]
    stage_vectors = {stage: approx_optimal_design(fit.theta[stage]).support for stage in range(1, H)}
    bound = float(fit.l2_bounds.max())
    return Guess.from_stage_vectors(H, d, stage_vectors, radius_bound=max(bound, 1e-12))


def guess_grid(true_guess: Guess, spread: float, count_cap: int, seed) -> list:
    """Finite guess candidates: the true guess, the zero guess, perturbed copies.

    Perturbations add panel-wise Gaussian noise of scale ``spread`` and
    project every vector back into the radius ball.  The true guess is always
    first, so any cap >= 1 keeps it in the candidate set.
    """
    if not is_integer(count_cap):
        raise ValidationError(f"count_cap must be an integer, got {count_cap!r}")
    if count_cap < 1:
        raise ValidationError("count_cap must be >= 1")
    out = [true_guess]
    if count_cap == 1:
        return out
    d = true_guess.dim
    radius = true_guess.radius_bound
    rng = np.random.default_rng(seed)
    while len(out) < count_cap - 1:
        panels = []
        for p in true_guess.panels:
            noisy = p + rng.normal(scale=spread, size=p.shape)
            norms = np.linalg.norm(noisy, axis=1)
            over = norms > radius
            if np.any(over):
                noisy[over] *= (radius / norms[over])[:, None]
            panels.append(noisy)
        out.append(Guess(horizon=true_guess.horizon, panels=panels, radius_bound=radius))
    out.append(zero_guess(true_guess.horizon, d, radius_bound=radius))
    return out


# ---------------------------------------------------------------------------
# epsilon nets


def epsilon_net(radius: float, d: int, xi: float, max_points: int = 200_000) -> np.ndarray:
    """Axis-aligned grid net of the Euclidean ball with cover radius ``xi``.

    Grid spacing is 2 xi / sqrt(d), so the nearest grid point of any ball
    point is within xi; points up to radius + xi are kept so boundary points
    stay covered.  Cardinality must respect the covering-number bound
    (1 + 2 radius / xi)^d * 4^d and the hard cap.
    """
    if radius <= 0 or xi <= 0:
        raise ValidationError("radius and xi must be positive")
    if radius <= xi:
        return np.zeros((1, d))
    spacing = 2.0 * xi / math.sqrt(d)
    kmax = int(math.floor((radius + xi) / spacing))
    per_axis = 2 * kmax + 1
    if per_axis ** d > max_points * 8:
        raise ValidationError(
            f"net grid of {per_axis}^{d} points exceeds the cap; coarsen xi"
        )
    axes = [np.arange(-kmax, kmax + 1) * spacing] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    net = grid[np.linalg.norm(grid, axis=1) <= radius + xi]
    bound = (1.0 + 2.0 * radius / xi) ** d * 4.0 ** d
    if net.shape[0] > min(bound, max_points):
        raise ValidationError(
            f"net of {net.shape[0]} points violates the cardinality bound {bound:.3g}; coarsen xi"
        )
    return net[np.lexsort(net.T[::-1])]


def covers(points: np.ndarray, net: np.ndarray, xi: float, tol: float = 1e-9) -> bool:
    """True when every point has a net neighbour within xi."""
    for chunk in np.array_split(points, max(1, len(points) // 512)):
        dist = np.linalg.norm(chunk[:, None, :] - net[None, :, :], axis=2).min(axis=1)
        if np.any(dist > xi + tol):
            return False
    return True
