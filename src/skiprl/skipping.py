"""Guess-induced ranges, skip probabilities, stopping laws, and skip targets.

A guess assigns every interior state a surrogate range; states are skipped
with probability 1 below a threshold, never above twice the threshold, and
with a linear interpolation in between.  The stopping stage of a recorded
trajectory is then the first non-skipped stage, and the skip target is the
exact expectation, under that stopping law, of the accumulated reward plus a
terminal value function.  Batch helpers compute the same quantities for a
whole dataset from the recorded features, which is all the learner needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Guess
from .mdp import Dataset, Trajectory, ValidationError

F_TOL = 1e-12


class ContractError(ValueError):
    """A supplied value function violates its stated bounds."""


@dataclass
class SkipParams:
    """Skip threshold alpha in (0, 1] and the ambient feature dimension."""

    alpha: float
    d: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("alpha must lie in (0, 1]")
        if self.d < 1:
            raise ValidationError("dimension must be >= 1")

    @property
    def threshold(self) -> float:
        return self.alpha / np.sqrt(2.0 * self.d)


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


def range_from_features(feats_sa: np.ndarray, panel: np.ndarray) -> float:
    """max over panel vectors and action pairs of the feature-difference score."""
    scores = feats_sa @ panel.T  # (A, k)
    return float((scores.max(axis=0) - scores.min(axis=0)).max())


def guess_range(guess: Guess, featmap, stage: int, state: int) -> float:
    """Surrogate range of a state under a guess; defined on stages 1..H-1."""
    if stage < 1 or stage >= guess.horizon:
        raise ValidationError(f"guess range is undefined at stage {stage}")
    return range_from_features(featmap.phi[stage][state], guess.panel(stage))


def probability_from_range(range_value: float, params: SkipParams) -> float:
    """Piecewise skip probability: 1 below the threshold, 0 above twice it."""
    t = params.threshold
    if range_value <= t:
        return 1.0
    if range_value >= 2.0 * t:
        return 0.0
    return 2.0 - range_value / t


def skip_probability(guess: Guess, featmap, stage: int, state: int, params: SkipParams) -> float:
    """Probability of skipping a state; zero at the start and terminal stages."""
    if stage == 0 or stage >= guess.horizon:
        return 0.0
    return probability_from_range(guess_range(guess, featmap, stage, state), params)


def _omega_block(feats: np.ndarray, panel: np.ndarray, params: SkipParams) -> np.ndarray:
    """Skip probabilities of feature blocks (..., A, d) under one stage's panel.

    Bit-equal to ``probability_from_range``: r/t rounds monotonely and t/t, 2t/t are exact.
    """
    scores = feats @ panel.T  # (..., A, k)
    spread = scores.max(axis=-2)
    spread -= scores.min(axis=-2)
    return np.clip(2.0 - spread.max(axis=-1) / params.threshold, 0.0, 1.0)


def omega_tables(guess: Guess, featmap, params: SkipParams) -> list:
    """Per-stage skip-probability tables over all states; a guess with panels must
    have the feature map's width."""
    if guess.panels and guess.dim != featmap.d:
        raise ValidationError(f"dimension mismatch: guess dim = {guess.dim} but featmap.d = {featmap.d}")
    H = guess.horizon
    inner = [_omega_block(featmap.phi[stage], guess.panel(stage), params) for stage in range(1, H)]
    return [np.zeros(featmap.phi[0].shape[0]), *inner, np.zeros(featmap.phi[H].shape[0])]


def block_omega(dataset: Dataset, guess: Guess, stage: int, params: SkipParams) -> np.ndarray:
    """Skip probabilities of the distinct visited feature blocks of an interior
    ``stage`` (``dataset.visited_blocks[stage]``), shape (m,)."""
    blocks, _ = dataset.visited_blocks[stage]
    return _omega_block(blocks, guess.panel(stage), params)


def dataset_omega(dataset: Dataset, guess: Guess, params: SkipParams) -> np.ndarray:
    """Skip probabilities at every visited state, from the recorded features.

    Each stage's ``block_omega`` is gathered back to the rows.  Returns an
    (n, H+1) matrix; columns 0 and H are zero by definition.
    """
    n, H = dataset.n, dataset.horizon
    omega = np.zeros((n, H + 1))
    for stage in range(1, H):
        omega[:, stage] = block_omega(dataset, guess, stage, params)[dataset.visited_blocks[stage][1]]
    return omega


def stop_probabilities(omega_tail: np.ndarray) -> np.ndarray:
    """F(t) = (1 - w_t) prod_{u<t} w_u along the last axis of the skip probabilities
    ``omega_tail`` (..., T) of the stopping candidates, one law per leading index."""
    ones = np.ones(omega_tail.shape[:-1] + (1,))
    prefix = np.cumprod(np.concatenate([ones, omega_tail[..., :-1]], axis=-1), axis=-1)
    return prefix * (1.0 - omega_tail)


def stop_distribution(guess: Guess, featmap, traj: Trajectory, h: int, params: SkipParams) -> StopDistribution:
    """Stopping law over stages h+1..H for one trajectory.

    The terminal stage is never skipped, so the probabilities always
    telescope to one.
    """
    H = traj.horizon
    if h < 0 or h >= H:
        raise ValidationError(f"stop distribution start stage {h} outside 0..{H - 1}")
    omega_tail = np.array(
        [skip_probability(guess, featmap, t, int(traj.states[t]), params) for t in range(h + 1, H + 1)]
    )
    return StopDistribution(start=h, probs=stop_probabilities(omega_tail))


def _check_f(value: float, stage: int, horizon: int) -> float:
    if value < -1e-9 or value > horizon + 1e-9:
        raise ContractError(f"value function leaves [0, H] at stage {stage}: {value!r}")
    if stage == horizon and abs(value) > 1e-12:
        raise ContractError("value function must vanish at the terminal state")
    return value


def skip_target(guess: Guess, featmap, traj: Trajectory, h: int, f, params: SkipParams) -> float:
    """Exact stopping-law expectation of accumulated reward plus f at the stop.

    ``f`` maps (stage, state) to a value in [0, H] with f(terminal) = 0; the
    result is the finite sum over the stopping support and lies in [0, 2H].
    """
    H = traj.horizon
    dist = stop_distribution(guess, featmap, traj, h, params)
    cum = 0.0
    total = 0.0
    for i, t in enumerate(dist.support):
        cum += float(traj.rewards[t - 1])
        fval = _check_f(float(f(t, int(traj.states[t]))), t, H)
        total += dist.probs[i] * (cum + fval)
    return total


def target_terms(stop: np.ndarray, cumrew: np.ndarray, fvals) -> list:
    """Each stopping candidate's share of the skip targets: ``stop[:, i] * (cumrew[:, i]
    + fvals[i])`` for candidate i, where ``fvals[i]`` holds value-function evaluations
    at the rows, shape (rows,) or (k, rows) for k value functions at once.

    The first term has ``+ 0.0`` folded in, so that ``add_in_stage_order`` starts
    from +0.0 as ``np.sum`` does (a -0.0 first term sums to 0.0)."""
    terms = [stop[:, i] * (cumrew[:, i] + f) for i, f in enumerate(fvals)]
    terms[0] += 0.0
    return terms


def add_in_stage_order(terms) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` from left to right, a new array when there are two
    or more.  Over at most 7 terms ``target_terms`` then sums to the bits of
    ``np.sum(..., axis=1)``, which switches to pairwise summation from 8 on; the
    left-to-right order is that of the scalar ``skip_target``."""
    if len(terms) == 1:
        return terms[0]
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return total


def targets_under_law(stop: np.ndarray, cumrew: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """Stage-h skip targets of rows with stopping laws ``stop`` over stages h+1..H,
    rewards ``cumrew`` accumulated from stage h up to each of them and value-function
    evaluations ``fvals`` there, all (rows, H-h); the stages are added in order."""
    return add_in_stage_order(target_terms(stop, cumrew, fvals.T))


def batch_skip_targets(rewards: np.ndarray, omega: np.ndarray, fvals: np.ndarray, h: int) -> np.ndarray:
    """Vectorised skip targets for a dataset at stage h.

    Parameters
    ----------
    rewards : (n, H+1) recorded rewards
    omega : (n, H+1) skip probabilities at the visited states
    fvals : (n, H-h) value-function evaluations at the stopping candidates
        (stages h+1..H; the last column must be zero for the terminal stage)
    """
    H = rewards.shape[1] - 1
    return targets_under_law(stop_probabilities(omega[:, h + 1 : H + 1]), np.cumsum(rewards[:, h:H], axis=1), fvals)
