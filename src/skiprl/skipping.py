"""Batch skip probabilities, stopping laws and skip targets of a whole dataset.

A guess assigns every interior state a surrogate range; states are skipped
with probability 1 below a threshold, never above twice the threshold, and
with a linear interpolation in between.  The stopping stage of a recorded
trajectory is then the first non-skipped stage, and the skip target is the
exact expectation, under that stopping law, of the accumulated reward plus a
terminal value function.  The kernels here compute these quantities for every
state of a feature map or every row of a dataset at once, which is all the
learner needs; their scalar reference chain is in ``oracles``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Guess
from .mdp import Dataset, ValidationError


@dataclass
class SkipParams:
    """Skip threshold alpha in (0, 1]; the width d comes from the features scored."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("alpha must lie in (0, 1]")

    def threshold(self, d: int) -> float:
        """The skip threshold alpha / sqrt(2 d) of width-d features."""
        return self.alpha / np.sqrt(2.0 * d)


def _omega_of_scores(scores: np.ndarray, d: int, params: SkipParams) -> np.ndarray:
    """Skip probabilities of width-d feature blocks from their panel scores (..., A, k).

    Bit-equal to ``oracles.probability_from_range``: r/t rounds monotonely and t/t, 2t/t are exact.
    """
    spread = scores.max(axis=-2)
    spread -= scores.min(axis=-2)
    return np.clip(2.0 - spread.max(axis=-1) / params.threshold(d), 0.0, 1.0)


def _omega_block(feats: np.ndarray, panel: np.ndarray, params: SkipParams) -> np.ndarray:
    """Skip probabilities of feature blocks (..., A, d) under one stage's panel."""
    return _omega_of_scores(feats @ panel.T, feats.shape[-1], params)


def check_guess_fits(guess: Guess, featmap) -> None:
    """Refuse a guess without the feature map's horizon or, if it has panels, its width."""
    if guess.horizon != featmap.horizon:
        raise ValidationError(f"horizon mismatch: guess horizon = {guess.horizon} but featmap.horizon = {featmap.horizon}")
    if guess.panels and guess.dim != featmap.d:
        raise ValidationError(f"dimension mismatch: guess dim = {guess.dim} but featmap.d = {featmap.d}")


def omega_tables(guess: Guess, featmap, params: SkipParams) -> list:
    """Per-stage skip-probability tables over all states (``check_guess_fits``)."""
    check_guess_fits(guess, featmap)
    H = guess.horizon
    inner = [_omega_block(featmap.phi[stage], guess.panel(stage), params) for stage in range(1, H)]
    return [np.zeros(featmap.phi[0].shape[0]), *inner, np.zeros(featmap.phi[H].shape[0])]


def block_omega(dataset: Dataset, guess: Guess, stage: int, params: SkipParams) -> np.ndarray:
    """Skip probabilities of the distinct visited feature blocks of an interior
    ``stage`` (``dataset.visited_blocks[stage]``), shape (m,)."""
    blocks, _ = dataset.visited_blocks[stage]
    return _omega_block(blocks, guess.panel(stage), params)


def stacked_block_omega(dataset: Dataset, guesses, stage: int, params: SkipParams) -> np.ndarray:
    """``block_omega`` of each of ``guesses`` at ``stage``, shape (len(guesses), m), byte for byte.

    The guesses' panels are stacked and scored in one product,
    ``blocks[None] @ panels.transpose(0, 2, 1)[:, None]``, which makes the
    per-block products ``block_omega`` makes, one (A, d) @ (d, k) each.
    """
    blocks, _ = dataset.visited_blocks[stage]
    if not guesses:
        return np.empty((0, blocks.shape[0]))
    panels = np.stack([guess.panel(stage) for guess in guesses])
    return _omega_of_scores(blocks[None] @ panels.transpose(0, 2, 1)[:, None], blocks.shape[-1], params)


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


def target_terms(weights, cumrew: np.ndarray, fvals) -> list:
    """Each stopping candidate's share of the skip targets: ``weights[i] * (cumrew[:, i]
    + fvals[i])`` for candidate i, where ``weights[i]`` is its stopping probability at
    the rows (a column of a stopping law) and ``fvals[i]`` holds value-function
    evaluations there, shape (rows,) or (k, rows) for k value functions at once;
    ``weights[i]`` may hold one row per value function, or one for all of them.

    The first term has ``+ 0.0`` folded in, so that ``add_in_stage_order`` starts
    from +0.0 as ``np.sum`` does (a -0.0 first term sums to 0.0)."""
    terms = [w * (cumrew[:, i] + f) for i, (w, f) in enumerate(zip(weights, fvals))]
    terms[0] += 0.0
    return terms


def add_in_stage_order(terms) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` from left to right, a new array when there are two
    or more.  Over at most 7 terms ``target_terms`` then sums to the bits of
    ``np.sum(..., axis=1)``, which switches to pairwise summation from 8 on; the
    left-to-right order is that of the scalar ``oracles.skip_target``."""
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
    return add_in_stage_order(target_terms(stop.T, cumrew, fvals.T))


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
