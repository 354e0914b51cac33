"""Exactly linear environments and per-policy parameter fitting.

The generator builds MDPs whose transitions and mean rewards are inner
products with a feature map, so every policy's action-value function is
exactly linear in the features (zero misspecification).  Fitting recovers the
per-stage parameter of a given policy by least squares and reports the
achieved sup-norm residual, which is what the misspecification and range
estimators build on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import (
    Policy,
    StagedMdp,
    ValidationError,
    count_deterministic_policies,
    enumerate_deterministic_policies,
    evaluate_policy,
    random_policy,
)

NORM_TOL = 1e-12


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
            worst = np.linalg.norm(p, axis=2).max()
            if worst > self.l1_bound + NORM_TOL:
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
class PolicyParams:
    """Per-stage linear parameters fitted to one policy's q-function.

    ``theta`` has shape (H+1, d); the terminal row is forced to zero.
    ``residual`` is the sup-norm fit error over all stages and state-action
    pairs, and ``l2_bound`` equals the largest per-stage parameter norm.
    """

    theta: np.ndarray
    l2_bound: float
    residual: float
    rank_deficient_stages: tuple = ()

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if np.any(self.theta[-1] != 0):
            raise ValidationError("terminal parameter must be the zero vector")


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
    sizes = tuple(int(k) for k in stage_sizes)
    if len(sizes) != horizon + 1 or any(k < 1 for k in sizes):
        raise GenerationError("stage_sizes must list one positive size per stage")
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


def fit_policy_params(mdp: StagedMdp, featmap: FeatureMap, policy: Policy) -> PolicyParams:
    """Least-squares fit of theta_h to q^pi over each stage's state-action grid.

    The objective is the l2 surrogate of the sup-norm minimizer; the reported
    residual is always the sup norm.  Rank-deficient stage feature matrices
    fall back to the minimum-norm solution and are flagged.
    """
    featmap.check_against(mdp)
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
    norms = np.linalg.norm(theta, axis=1)
    return PolicyParams(
        theta=theta,
        l2_bound=float(norms.max()),
        residual=worst,
        rank_deficient_stages=tuple(flagged),
    )


def sample_policies(mdp: StagedMdp, count: int, seed) -> list:
    """Deterministic policy sample: uniform + optimal + random mixtures."""
    from .mdp import optimal_policy, uniform_policy

    rng = np.random.default_rng(seed)
    pis = [uniform_policy(mdp), optimal_policy(mdp)[0]]
    while len(pis) < count:
        pis.append(random_policy(mdp, rng))
    return pis[:count]


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
    uniformly random mixture policies.
    """
    if policy_sample_size < 1:
        raise ValidationError("policy_sample_size must be >= 1")
    if count_deterministic_policies(mdp) <= enumeration_cap:
        policies = enumerate_deterministic_policies(mdp)
    else:
        rng = np.random.default_rng(seed)
        policies = (random_policy(mdp, rng) for _ in range(policy_sample_size))
    return max(fit_policy_params(mdp, featmap, pi).residual for pi in policies)


def state_range(
    mdp: StagedMdp,
    featmap: FeatureMap,
    policies,
    stage: int,
    state: int,
    params=None,
) -> float:
    """Largest fitted action-value spread at a state across sampled policies.

    A lower bound on the true range (the supremum runs over all memoryless
    policies).  Defined only for interior stages 1..H-1.
    """
    if stage < 1 or stage >= mdp.horizon:
        raise ValidationError(f"range is undefined at stage {stage}")
    if params is None:
        params = [fit_policy_params(mdp, featmap, pi) for pi in policies]
    feats = featmap.phi[stage][state]  # (A, d)
    best = 0.0
    for p in params:
        scores = feats @ p.theta[stage]
        best = max(best, float(scores.max() - scores.min()))
    return best
