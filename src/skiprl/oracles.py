"""Independent brute-force and algebraic verifiers.

Every inequality check here reports slack (bound minus achieved value), never
a bare boolean, so tolerance regressions stay visible.  The concentrability
coefficient is computed exactly by a backward reachability DP over all target
states of a stage at once, and the skip-realizability check evaluates its
expectation by a backward recursion over the stopping law, so none of these
paths share code with the estimators they validate.  The scalar skip chain
(ranges, skip probabilities, stopping laws and skip targets of one state or
one trajectory at a time) is the reference that ``skipping``'s batch kernels
are tested against; it reads a trajectory as plain ``states`` and ``rewards``
rows, never a ``Dataset``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Guess
from .envs import FeatureMap, StackParams, stage_ranges
from .mdp import (
    Policy,
    StagedMdp,
    ValidationError,
    enumerate_deterministic_policies,
    evaluate_policy,
    occupancy,
    optimal_policy,
)
from .skipping import SkipParams, check_guess_fits


@dataclass
class ConcReport:
    """Exact concentrability coefficient with its witness, the first worst
    state-action in (stage, state, action) order."""

    c_conc: float
    witness: tuple          # (stage, state, action)
    max_reach: list         # max_reach[h][s] = sup over policies of P(S_h = s)
    mu: list                # behavior occupancy tables

    def __post_init__(self):
        if np.isfinite(self.c_conc):
            h, s, a = self.witness
            again = self.max_reach[h][s] / self.mu[h][s, a]
            if abs(again - self.c_conc) > 1e-10:
                raise ValidationError("concentrability witness does not reproduce the coefficient")
            if self.c_conc < 1.0 - 1e-10:
                raise ValidationError("concentrability coefficient must be >= 1")


def _max_reach(mdp: StagedMdp, stage: int) -> np.ndarray:
    """sup over policies of P(S_stage = s) for every s, via backward control DP; row k of
    ``u`` is target k's DP, and the stacked product runs its own ``T_h @ u_k``, bits and all."""
    u = np.eye(mdp.stage_sizes[stage])
    for h in range(stage - 1, -1, -1):
        u = (mdp.transitions[h][None] @ u[:, None, :, None])[..., 0].max(axis=2)
    return u[:, 0]


def concentrability(mdp: StagedMdp, behavior: Policy) -> ConcReport:
    """Worst ratio of any admissible occupancy to the behavior occupancy.

    The supremum over admissible distributions decomposes per state-action:
    the numerator is maximised by deterministically reaching the state and
    then playing the action, which the reachability DP computes exactly.  A
    reachable pair with zero behavior mass yields an infinite coefficient
    (reported, not raised).  The witness is the first worst pair in (stage,
    state, action) order.
    """
    mu = occupancy(mdp, behavior).nu
    reach = [_max_reach(mdp, h) for h in range(mdp.horizon)]
    best = 0.0
    witness = (0, 0, 0)
    for h, (r, m) in enumerate(zip(reach, mu)):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(r[:, None] > 0.0, r[:, None] / m, 0.0)  # x / 0 = inf
        i = int(np.argmax(ratio))
        if ratio.flat[i] > best:
            best = float(ratio.flat[i])
            witness = (h, *divmod(i, mdp.num_actions))
    return ConcReport(c_conc=best, witness=witness, max_reach=reach, mu=mu)


def concentrability_by_enumeration(mdp: StagedMdp, behavior: Policy) -> float:
    """Same coefficient by brute force over every deterministic policy."""
    mu = occupancy(mdp, behavior).nu
    best = 0.0
    for pi in enumerate_deterministic_policies(mdp):
        nu = occupancy(mdp, pi).nu
        for h in range(mdp.horizon):
            for s in range(mdp.stage_sizes[h]):
                for a in range(mdp.num_actions):
                    num = nu[h][s, a]
                    if num <= 0.0:
                        continue
                    den = mu[h][s, a]
                    best = max(best, float("inf") if den <= 0.0 else num / den)
    return best


# ---------------------------------------------------------------------------
# algebraic lemma skeletons


def check_lsq_decomposition(seed, draws: int = 100) -> float:
    """Worst slack of the ridge error decomposition over random instances.

    Verifies ||theta_hat - theta*||_V <= sqrt(lam) ||theta*|| + ||Delta||_inf sqrt(n)
    + ||iota||_{V^{-1}} by direct matrix evaluation; a negative return means a
    violation.
    """
    rng = np.random.default_rng(seed)
    worst = float("inf")
    for _ in range(draws):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 51))
        lam = float(rng.uniform(0.01, 2.0))
        A = rng.normal(size=(n, d))
        theta_star = rng.normal(size=d)
        gamma = rng.normal(scale=rng.uniform(0.0, 1.0), size=n)
        delta = rng.normal(scale=rng.uniform(0.0, 1.0), size=n)
        y = A @ theta_star + gamma + delta
        V = lam * np.eye(d) + A.T @ A
        V_inv = np.linalg.inv(V)
        theta_hat = V_inv @ (A.T @ y)
        iota = A.T @ gamma
        lhs = np.sqrt((theta_hat - theta_star) @ V @ (theta_hat - theta_star))
        rhs = (
            np.sqrt(lam) * np.linalg.norm(theta_star)
            + np.abs(delta).max() * np.sqrt(n)
            + np.sqrt(iota @ V_inv @ iota)
        )
        worst = min(worst, float(rhs - lhs))
    return worst


def check_elliptical_potential(seed, draws: int = 100) -> float:
    """Worst slack of sum min(1, ||a_t||^2_{V_{t-1}^{-1}}) <= 2d log((d lam + n L^2)/(d lam))."""
    rng = np.random.default_rng(seed)
    worst = float("inf")
    for _ in range(draws):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 60))
        lam = float(rng.uniform(0.05, 2.0))
        L = float(rng.uniform(0.2, 3.0))
        raw = rng.normal(size=(n, d))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        scale = rng.uniform(0.0, L, size=(n, 1))
        vecs = np.where(norms > 0, raw / np.maximum(norms, 1e-300) * scale, 0.0)
        V = lam * np.eye(d)
        lhs = 0.0
        for t in range(n):
            a = vecs[t]
            lhs += min(1.0, float(a @ np.linalg.solve(V, a)))
            V = V + np.outer(a, a)
        rhs = 2.0 * d * np.log((d * lam + n * L * L) / (d * lam))
        worst = min(worst, float(rhs - lhs))
    return worst


def check_projection_bound(seed, draws: int = 100) -> float:
    """Worst slack of ||sum a_i b_i||^2_{(sum a_i a_i^T + lam I)^{-1}} <= n c^2."""
    rng = np.random.default_rng(seed)
    worst = float("inf")
    for _ in range(draws):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 60))
        lam = float(rng.uniform(0.0, 2.0))
        c = float(rng.uniform(0.1, 3.0))
        A = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
        b = rng.uniform(-c, c, size=n)
        M = lam * np.eye(d) + A.T @ A
        v = A.T @ b
        lhs = float(v @ np.linalg.solve(M, v))
        worst = min(worst, n * c * c - lhs)
    return worst


# ---------------------------------------------------------------------------
# exact MDP identities


def check_perf_diff(mdp: StagedMdp, policy_a: Policy, policy_b: Policy) -> float:
    """Residual of the performance-difference identity, computed by exact DP."""
    vals_a = evaluate_policy(mdp, policy_a)
    vals_b = evaluate_policy(mdp, policy_b)
    nu_a = occupancy(mdp, policy_a).nu
    total = 0.0
    for h in range(mdp.horizon):
        adv = vals_b.q[h] - vals_b.v[h][:, None]
        total += float(np.sum(nu_a[h] * adv))
    return abs(float(vals_a.v[0][0] - vals_b.v[0][0]) - total)


def suboptimality(mdp: StagedMdp, policy: Policy) -> float:
    """v*(s1) - v^pi(s1) by exact DP; nonnegative up to rounding."""
    _, star = optimal_policy(mdp)
    vals = evaluate_policy(mdp, policy)
    return float(star.v[0][0] - vals.v[0][0])


def check_range_bound(mdp: StagedMdp, featmap: FeatureMap, guess: Guess, fit: StackParams) -> float:
    """Worst slack of sampled_range(s) <= sqrt(2d) * guess_range(s) over all states.

    ``fit`` is ``fit_policy_stack`` of a policy sample.  The check is sound
    because the left side is a lower bound of the true range; the guess must
    have been built from (a superset of) the same sample, for example by
    ``design.guess_from_fit(fit)``.
    """
    theta = fit.theta
    factor = np.sqrt(2.0 * featmap.d)
    worst = float("inf")
    for stage in range(1, mdp.horizon):
        lhs = stage_ranges(featmap, theta[stage], stage)
        for state in range(mdp.stage_sizes[stage]):
            rhs = factor * guess_range(guess, featmap, stage, state)
            worst = min(worst, float(rhs - lhs[state]))
    return worst


# ---------------------------------------------------------------------------
# the scalar skip chain, one state or one trajectory at a time

F_TOL = 1e-12


class ContractError(ValueError):
    """A supplied value function violates its stated bounds."""


def guess_range(guess: Guess, featmap: FeatureMap, stage: int, state: int) -> float:
    """Surrogate range of a state under a guess, defined on stages 1..H-1: the max over
    panel vectors and action pairs of the feature-difference score.  The guess must
    fit the feature map (``skipping.check_guess_fits``)."""
    check_guess_fits(guess, featmap)
    if stage < 1 or stage >= guess.horizon:
        raise ValidationError(f"guess range is undefined at stage {stage}")
    scores = featmap.phi[stage][state] @ guess.panel(stage).T  # (A, k)
    return float((scores.max(axis=0) - scores.min(axis=0)).max())


def probability_from_range(range_value: float, t: float) -> float:
    """Piecewise skip probability: 1 below the threshold t, 0 above twice it."""
    if range_value <= t:
        return 1.0
    if range_value >= 2.0 * t:
        return 0.0
    return 2.0 - range_value / t


def skip_probability(guess: Guess, featmap: FeatureMap, stage: int, state: int, params: SkipParams) -> float:
    """Probability of skipping a state; zero at the start and terminal stages.  The
    guess must fit the feature map (``skipping.check_guess_fits``)."""
    check_guess_fits(guess, featmap)
    if stage == 0 or stage >= guess.horizon:
        return 0.0
    return probability_from_range(guess_range(guess, featmap, stage, state), params.threshold(featmap.d))


@dataclass
class StopDistribution:
    """Law of the first non-skipped stage after ``start`` along one trajectory."""

    start: int            # stage h; support is stages h+1 .. H
    probs: np.ndarray     # (H - start,)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        total = float(self.probs.sum())
        if abs(total - 1.0) > F_TOL or np.any(self.probs < -F_TOL):
            raise ValidationError(f"stop distribution sums to {total!r}, not 1")

    @property
    def support(self):
        return range(self.start + 1, self.start + 1 + len(self.probs))


def stop_distribution(guess: Guess, featmap: FeatureMap, states, h: int, params: SkipParams) -> StopDistribution:
    """Stopping law over stages h+1..H along one trajectory's visited ``states``, shape
    (H+1,): F(t) = (1 - w_t) prod_{u<t} w_u with w the skip probabilities along it,
    the product kept as a running one.

    The terminal stage is never skipped, so the probabilities always
    telescope to one.
    """
    H = len(states) - 1
    if h < 0 or h >= H:
        raise ValidationError(f"stop distribution start stage {h} outside 0..{H - 1}")
    probs, reach = [], 1.0
    for t in range(h + 1, H + 1):
        omega = skip_probability(guess, featmap, t, int(states[t]), params)
        probs.append(reach * (1.0 - omega))
        reach *= omega
    return StopDistribution(start=h, probs=np.array(probs))


def _check_f(value: float, stage: int, horizon: int) -> float:
    if value < -1e-9 or value > horizon + 1e-9:
        raise ContractError(f"value function leaves [0, H] at stage {stage}: {value!r}")
    if stage == horizon and abs(value) > 1e-12:
        raise ContractError("value function must vanish at the terminal state")
    return value


def skip_target(guess: Guess, featmap: FeatureMap, states, rewards, h: int, f, params: SkipParams) -> float:
    """Exact stopping-law expectation of accumulated reward plus f at the stop, along
    one trajectory's ``states`` and ``rewards`` rows, shape (H+1,) each.

    ``f`` maps (stage, state) to a value in [0, H] with f(terminal) = 0; the
    result is the finite sum over the stopping support and lies in [0, 2H].
    """
    H = len(states) - 1
    dist = stop_distribution(guess, featmap, states, h, params)
    cum = 0.0
    total = 0.0
    for i, t in enumerate(dist.support):
        cum += float(rewards[t - 1])
        fval = _check_f(float(f(t, int(states[t]))), t, H)
        total += dist.probs[i] * (cum + fval)
    return total


# ---------------------------------------------------------------------------
# skip-target realizability by backward recursion


def expected_skip_target(
    mdp: StagedMdp,
    featmap: FeatureMap,
    guess: Guess,
    behavior: Policy,
    f,
    h: int,
    params: SkipParams,
) -> np.ndarray:
    """E over trajectories from (s, a) of the skip target, for all (s, a) at stage h.

    Backward recursion over the stopping law: g_H = f(H, .) and, for t = H-1
    down to h+1, g_t(s) = (1 - w_t(s)) f(t, s) + w_t(s) sum_a pi_t(a|s)
    [r_t(s, a) + P_t(s, a) . g_{t+1}], with w the scalar skip probabilities;
    the result is r_h + P_h . g_{h+1}.  Mean rewards stand in for sampled
    rewards, which is exact because the target is linear in the rewards.
    """
    H = mdp.horizon
    if h < 0 or h >= H:
        raise ValidationError(f"stage {h} outside 0..{H - 1}")
    g = np.array([float(f(H, 0))])
    if abs(g[0]) > 1e-12:
        raise ValidationError("value function must vanish at the terminal state")
    for t in range(H - 1, h, -1):
        states = range(mdp.stage_sizes[t])
        omega = np.array([skip_probability(guess, featmap, t, s, params) for s in states])
        stop = np.array([float(f(t, s)) for s in states])
        go_on = np.sum(behavior.tables[t] * (mdp.reward_means[t] + mdp.transitions[t] @ g), axis=1)
        g = (1.0 - omega) * stop + omega * go_on
    return mdp.reward_means[h] + mdp.transitions[h] @ g


def check_skip_realizability(
    mdp: StagedMdp,
    featmap: FeatureMap,
    guess: Guess,
    behavior: Policy,
    f,
    h: int,
    params: SkipParams,
) -> float:
    """Sup-norm residual of the best linear fit to ``expected_skip_target``'s recursion.

    On exactly linear instances the expectation is exactly linear in the
    stage-h features, so the residual vanishes up to numerics for any guess
    and any bounded value function.
    """
    targets = expected_skip_target(mdp, featmap, guess, behavior, f, h, params)
    design = featmap.phi[h].reshape(-1, featmap.d)
    sol, _, _, _ = np.linalg.lstsq(design, targets.ravel(), rcond=None)
    return float(np.abs(design @ sol - targets.ravel()).max())
