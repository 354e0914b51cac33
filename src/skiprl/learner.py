"""Optimistic offline learner over skip guesses.

For every candidate guess the learner builds, backwards over stages, a finite
approximation of the parameter confidence sets: least-squares anchors are
computed for combinations of later-stage candidates, and a candidate pool
(anchors, optional diagnostics, optional net points) is filtered by the
ellipsoid test; guesses whose skip probabilities agree at the later stages
share a stage's sets.  Guesses whose q-estimates spread too much on the data are
rejected; among the survivors the guess and stage-0 parameter maximising the
clipped start-state value win, and the output policy is greedy with respect
to the chosen parameters.

Everything here works from the recorded dataset only; the feature map is
needed just to materialise the greedy policy over the full state space.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import types
from dataclasses import dataclass, field, replace

import numpy as np

from .design import Guess, epsilon_net
from .envs import FeatureMap, fit_policy_stack
from .mdp import (
    Dataset,
    Policy,
    StagedMdp,
    ValidationError,
    backward_induction,
    greedy_table,
    is_integer,
    is_real,
    sample_trajectories,
    trajectory_count,
)
from .skipping import (
    SkipParams,
    add_in_stage_order,
    batch_skip_targets,
    block_omega,
    dataset_omega,
    omega_tables,
    stacked_block_omega,
    stop_probabilities,
    target_terms,
    targets_under_law,
)

MEMBER_TOL = 1e-12
RADIUS_TOL = 1e-9
RIDGE_BLOCK = 1 << 13  # elements of a stacked array: a ridge solves ceil(RIDGE_BLOCK / n) combos' (combos, n) rows


@dataclass
class LearnerConfig:
    """Settings of the optimistic solver, read from an experiment config's ``learn`` section.

    ``lam`` is the ridge weight of the stage covariances X_h = lam I + phi^T phi,
    ``beta`` the ellipsoid radius, ``eps_bar`` the tightness threshold,
    ``theta_radius`` the candidate-norm ball and ``alpha`` the skip threshold
    of the guesses' skip probabilities (``SkipParams(alpha)``, with d taken
    from the features scored).  ``grid_per_stage`` is the candidate pool budget and
    ``combo_cap`` the number of tail combinations enumerated per stage (full
    enumeration below the cap, a uniform subsample seeded by ``seed`` and the
    stage above).  ``net_spacing`` optionally adds epsilon-net points to the pool.
    """

    lam: float = 1.0
    beta: float = 10.0
    eps_bar: float = 1.0
    theta_radius: float = 1e6
    alpha: float = 0.2
    grid_per_stage: int = 8
    combo_cap: int = 64
    net_spacing: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("lam", "beta", "eps_bar", "theta_radius", "alpha", "net_spacing"):
            if not is_real(getattr(self, name)) and not (name == "net_spacing" and self.net_spacing is None):
                raise ValidationError(f"{name} must be a real number, got {getattr(self, name)!r}")
        for name in ("lam", "beta", "eps_bar", "theta_radius"):
            if not getattr(self, name) > 0:  # also refuses NaN; inf stays legal
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if self.net_spacing is not None and not self.net_spacing > 0:
            raise ValidationError(f"net_spacing must be positive, got {self.net_spacing!r}")
        for name in ("grid_per_stage", "combo_cap", "seed"):
            if not is_integer(getattr(self, name)):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.grid_per_stage < 1 or self.combo_cap < 1:
            raise ValidationError("grid_per_stage and combo_cap must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")


def _check_dims(guesses=(), featmap=None, dataset=None) -> None:
    """Refuse disagreeing horizons among ``featmap``, ``dataset`` and each guess, then
    disagreeing feature dimensions among ``featmap.d``, ``dataset.dim`` and each
    guess's ``dim`` (a guess without panels, H = 1, has no dimension), then
    disagreeing action counts of ``featmap`` and ``dataset``."""
    horizons, dims, actions = [], [], []
    if featmap is not None:
        horizons.append(("featmap.horizon", featmap.horizon))
        dims.append(("featmap.d", featmap.d))
        actions.append(("featmap action count", featmap.phi[0].shape[1]))
    if dataset is not None:
        horizons.append(("dataset.horizon", dataset.horizon))
        dims.append(("dataset.dim", dataset.dim))
        actions.append(("dataset action count", dataset.visited_blocks[0][0].shape[1]))
    horizons.extend((f"guess {i} horizon", g.horizon) for i, g in enumerate(guesses))
    dims.extend((f"guess {i} dim", g.dim) for i, g in enumerate(guesses) if g.panels)
    for what, named in (("horizon", horizons), ("dimension", dims), ("action count", actions)):
        for name, value in named[1:]:
            if value != named[0][1]:
                raise ValidationError(f"{what} mismatch: {name} = {value} but {named[0][0]} = {named[0][1]}")


# ---------------------------------------------------------------------------
# clipped value estimators


def clipped_v(theta: np.ndarray, featmap: FeatureMap, stage: int, state: int) -> float:
    """clip_[0,H] of the best linear action-value; the clip is applied after the max."""
    H = featmap.horizon
    return float(np.clip((featmap.phi[stage][state] @ theta).max(), 0.0, H))


def greedy_policy(featmap: FeatureMap, thetas: np.ndarray) -> Policy:
    """Deterministic greedy policy w.r.t. the clipped per-stage estimates.

    Ties after clipping break toward the lowest action index.
    """
    H = featmap.horizon
    return Policy([greedy_table(np.clip(featmap.phi[h] @ thetas[h], 0.0, H)) for h in range(H + 1)])


# ---------------------------------------------------------------------------
# covariances and anchors


@dataclass(eq=False)  # compared by identity: field-wise == on arrays has no truth value
class StageCovariance:
    """Stage-h data shared by every guess: the features of the actions taken,
    ``phi`` (n, d), X_h = lam I + phi^T phi with its cached inverse, and the
    distinct taken-feature rows ``pairs`` with each row's index ``codes`` (n,)
    into them, so that ``pairs[codes]`` equals ``phi`` byte for byte.

    ``pairs`` holds the stage's distinct visited blocks' action rows, m * A of
    them, and ``codes`` is ``visited_blocks[h][1] * A + actions[:, h]`` in intp.
    numpy's matmul scores a one-row left operand with gemv and a larger one
    with gemm, whose last bits can differ, so ``pairs`` has one row exactly
    when ``phi`` does: a single (block, action) row is doubled, and when there
    are at least as many of them as data rows, ``pairs`` is ``phi`` itself.
    """

    phi: np.ndarray
    matrix: np.ndarray
    lam: float
    pairs: np.ndarray
    codes: np.ndarray

    def __post_init__(self):
        self.inv = np.linalg.inv(self.matrix)
        if np.linalg.eigvalsh(self.matrix).min() < self.lam - 1e-9:
            raise ValidationError("stage covariance lost positive definiteness")

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(v @ self.matrix @ v, 0.0)))

    def ridge(self, targets: np.ndarray) -> np.ndarray:
        """Ridge solution X_h^{-1} phi_h^T targets for per-row ``targets`` (n,)."""
        return self.inv @ (self.phi.T @ targets)


def stage_covariance(dataset: Dataset, h: int, lam: float) -> StageCovariance:
    """The stage-h data of ``dataset``; it depends on the data and lam alone, never on a guess."""
    d = dataset.dim
    blocks, block_of_row = dataset.visited_blocks[h]
    pairs, codes = blocks.reshape(-1, d), block_of_row * np.intp(blocks.shape[1]) + dataset.actions[:, h]  # intp
    phi = pairs.take(codes, axis=0)  # the taken rows of features[:, h], byte for byte
    if len(pairs) >= len(codes):
        pairs, codes = phi, np.arange(dataset.n)
    elif len(pairs) == 1:
        pairs = np.repeat(pairs, 2, axis=0)
    return StageCovariance(phi=phi, matrix=lam * np.eye(d) + phi.T @ phi, lam=lam, pairs=pairs, codes=codes)


def _clipped_vbar_blocks(dataset: Dataset, h: int, thetas: np.ndarray) -> np.ndarray:
    """v-bar of each theta at the distinct visited feature blocks of stage h, shape (k, m)."""
    blocks, _ = dataset.visited_blocks[h]
    scores = np.einsum("mad,kd->kma", blocks, thetas)
    return np.clip(scores.max(axis=2), 0.0, dataset.horizon)


def _clipped_vbar_rows(dataset: Dataset, h: int, thetas: np.ndarray) -> np.ndarray:
    """v-bar of each theta at the visited states of stage h, shape (k, n): the
    stage's ``_clipped_vbar_blocks`` gathered back to the rows."""
    return _clipped_vbar_blocks(dataset, h, thetas)[:, dataset.visited_blocks[h][1]]


def lstsq_anchor(dataset: Dataset, h: int, guess: Guess, theta_tail, config: LearnerConfig) -> np.ndarray:
    """Ridge solution X_h^{-1} sum_j phi_h^j * target_j for one tail choice.

    ``theta_tail`` holds one parameter per stage h+1..H; the terminal entry
    is ignored because the terminal value estimate is identically zero.
    """
    _check_dims([guess], dataset=dataset)
    tail = np.asarray(theta_tail, dtype=float)
    H = dataset.horizon
    if tail.shape != (H - h, dataset.dim):
        raise ValidationError(f"tail must supply one parameter for each of stages {h + 1}..{H}")
    omega = dataset_omega(dataset, guess, SkipParams(config.alpha))
    fvals = np.zeros((dataset.n, H - h))
    for i, u in enumerate(range(h + 1, H)):
        fvals[:, i] = _clipped_vbar_rows(dataset, u, tail[i : i + 1])[0]
    return stage_covariance(dataset, h, config.lam).ridge(batch_skip_targets(dataset.rewards, omega, fvals, h))


def _on_tails(per_block, at, tails: int, lead: tuple = ()) -> np.ndarray:
    """(*lead, tails, len(at) + 1) values at a stage's distinct tails: column i is the
    per-block array ``per_block[i]`` (*lead, m) of stage h+1+i gathered to the tails'
    blocks ``at[i]`` there, and the last column, the terminal stage, is zero."""
    out = np.zeros((*lead, tails, len(at) + 1))
    for i, (vals, blocks) in enumerate(zip(per_block, at)):
        out[..., i] = vals.take(blocks, axis=-1)
    return out


# ---------------------------------------------------------------------------
# confidence sets


@dataclass
class StageSets:
    anchors: np.ndarray        # (m, d)
    members: np.ndarray        # (k, d) candidates that passed the ellipsoid test
    combos: int                # tail combinations whose anchors were solved
    subsampled: bool           # whether combo_cap cut the full enumeration to a sample
    tails: int                 # distinct trajectory tails of the stage's data

    def diagnostics(self) -> dict:
        return {"anchors": len(self.anchors), "members": len(self.members),
                "combos": self.combos, "subsampled": self.subsampled, "tails": self.tails}


def _anchor_distance(anchors: np.ndarray, matrix: np.ndarray, thetas: np.ndarray, starts=None) -> np.ndarray:
    """min over anchors of the X_h-distance (``matrix`` is X_h) to each row of ``thetas``, shape (p,);
    with ``starts``, the anchors are consecutive sets that begin at those rows and the
    minimum is taken per set, shape (p, sets)."""
    diffs = thetas[:, None, :] - anchors[None, :, :]
    quad = np.einsum("pmd,de,pme->pm", diffs, matrix, diffs)
    return np.sqrt(np.maximum(quad.min(axis=1) if starts is None else np.minimum.reduceat(quad, starts, axis=1), 0.0))


def _admitted(thetas: np.ndarray, stats: np.ndarray, config: LearnerConfig) -> np.ndarray:
    """Rows inside the theta_radius ball whose anchor distance is at most beta."""
    return (np.linalg.norm(thetas, axis=1) <= config.theta_radius + RADIUS_TOL) & (
        stats <= config.beta + MEMBER_TOL
    )


@dataclass
class ConfidenceSets:
    """Finite approximation of the per-stage parameter confidence sets.

    Stage H is pinned to the singleton {0}.  ``empty_stage`` records the
    first stage (from the top of the backward pass) where no candidate
    survived, which signals infeasibility of the guess.  The X_h matrices
    are not kept; each stage's ``StageCovariance`` is released once the
    stage is built.
    """

    horizon: int
    dim: int
    stage_sets: list                    # index h in 0..H-1; None below an empty stage
    tightness: list                     # members' on-data spread per stage; [] when a stage is empty
    empty_stage: int | None = None

    def members_at(self, h: int) -> np.ndarray:
        if h == self.horizon:
            return np.zeros((1, self.dim))
        sets = self.stage_sets[h]
        if sets is None:
            raise ValidationError(f"stage {h} has no sets (guess infeasible at stage {self.empty_stage})")
        return sets.members


def _row_keys(arr: np.ndarray) -> list:
    """One bytes key per row of the 2-D ``arr``; floats are keyed after ``+ 0.0``, so
    that ``-0.0`` and ``0.0`` give one key, as they are one value."""
    if arr.dtype.kind == "f":
        arr = arr + 0.0
    arr = np.ascontiguousarray(arr)
    return arr.view(np.dtype((np.void, arr.dtype.itemsize * arr.shape[1]))).ravel().tolist()


def _dedupe_rows(arr: np.ndarray) -> np.ndarray:
    """The rows of ``arr`` that equal no earlier row (by value, so ``-0.0`` matches
    ``0.0``), in order; an array of at most one row comes back as is."""
    if arr.shape[0] <= 1:
        return arr
    first = {}
    for i, key in enumerate(_row_keys(arr)):
        first.setdefault(key, i)
    return arr[list(first.values())]


def _keyed(points: np.ndarray):
    """``points`` without repeated rows, and a dict from each kept row's key to its index."""
    points = _dedupe_rows(points)
    return points, {key: i for i, key in enumerate(_row_keys(points))}


def _tail_combos(counts, cap: int, rng_seed):
    """The seeded sample of a stage's tail combos, rows of member indices with one
    column per later stage, when there are more than ``cap`` of them; None when
    every combo is solved, in ``itertools.product`` order."""
    if math.prod(counts) <= cap:
        return None
    rng = np.random.default_rng(rng_seed)
    return _dedupe_rows(np.stack([rng.integers(0, k, size=cap) for k in counts], axis=1))


def _extend(prefix: np.ndarray, terms) -> np.ndarray:
    """Each row of ``prefix`` (p, tails) plus each combination of the rows of ``terms``,
    added stage by stage, (p * prod k_u, tails) in ``itertools.product`` order."""
    for term in terms:
        prefix = prefix + term if term.shape[0] == 1 else (prefix[:, None, :] + term).reshape(-1, prefix.shape[1])
    return prefix


def _combo_targets(terms, picks, step: int):
    """The tail targets of a stage's combos (``_tail_combos``) in consecutive blocks of
    ``step`` combos (the last may hold fewer), each (combos, tails), in combo order.

    A combo's targets add its members' ``terms`` (one (k_u, tails) array per later
    stage, the terminal one last, k = 1) left to right, as ``add_in_stage_order``
    does.  When every combo is solved and they fit in one block, the stages are
    broadcast one by one so that combos share their prefix sums (``_extend``);
    otherwise each block gathers its combos' rows of every stage's terms.
    """
    if picks is None:
        counts = [term.shape[0] for term in terms]
        if math.prod(counts) <= step:
            yield _extend(terms[0], terms[1:])
            return
        picks = np.stack(np.unravel_index(np.arange(math.prod(counts)), counts), axis=1)
    for start in range(0, len(picks), step):
        yield add_in_stage_order([term[col] for term, col in zip(terms, picks[start : start + step].T)])


def _net(config: LearnerConfig, d: int):
    """The epsilon-net pool points of the theta_radius ball, or None without ``net_spacing``."""
    return None if config.net_spacing is None else _keyed_net(config.theta_radius, d, config.net_spacing)[0]


@functools.lru_cache(maxsize=2)
def _keyed_net(theta_radius: float, d: int, net_spacing: float):
    """``_keyed`` of the epsilon net of one setting, kept for the last two settings
    used; the points are read-only and the index a read-only mapping."""
    points, index = _keyed(epsilon_net(theta_radius, d, net_spacing))
    points.setflags(write=False)
    return points, types.MappingProxyType(index)


def _stack(arrays) -> np.ndarray:
    """The rows of the arrays ``arrays`` in one array; a lone array comes back as is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _runs(sizes, width: int) -> list:
    """Consecutive runs, (start, stop) index pairs, of items of ``sizes`` rows of ``width``
    elements each: an item joins a run while the run's rows fit in ``RIDGE_BLOCK``
    elements, and an item larger than that is a run alone."""
    runs, start, rows = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and (rows + size) * width > RIDGE_BLOCK:
            runs.append((start, i))
            start, rows = i, 0
        rows += size
    if sizes:
        runs.append((start, len(sizes)))
    return runs


def _in_blocks(pieces, step: int):
    """The rows of the 2-D arrays ``pieces``, in order, in blocks of ``step`` rows (the
    last may hold fewer); a piece that makes a whole block alone passes as is."""
    held, count = [], 0
    for piece in pieces:
        if not count and len(piece) == step:
            yield piece
            continue
        while len(piece):
            room = step - count
            held.append(piece[:room])
            count += len(held[-1])
            piece = piece[room:]
            if count == step:
                yield _stack(held)
                held, count = [], 0
    if held:
        yield _stack(held)


def _split(dataset: Dataset, guesses, groups, stage: int, skip: SkipParams) -> list:
    """``groups`` split by the bytes of their guesses' ``block_omega`` at ``stage``, all
    scored in one product (``stacked_block_omega``); each subgroup, in the order of
    its first guess, puts its omega row in front of its group's suffix."""
    live = [g for indices, _, _ in groups for g in indices]
    rows = iter(stacked_block_omega(dataset, [guesses[g] for g in live], stage, skip))
    split = []
    for indices, omega_tail, vbar_tail in groups:
        by_omega = {}
        for g, omega in zip(indices, rows):
            by_omega.setdefault(omega.tobytes(), (omega, []))[1].append(g)
        split.extend((sub, [omega, *omega_tail], vbar_tail) for omega, sub in by_omega.values())
    return split


def _batch_terms(batch, at, cumrew) -> tuple:
    """A batch's target terms (``skipping.target_terms``): one (members, tails) array
    per later stage, terminal last, its groups' members' rows in turn; and each
    stage's member count per group.  The batch has one stopping law (G, tails,
    H-h), released on return, as are the v-bar values gathered to the tails.
    """
    tails = cumrew.shape[0]
    law = stop_probabilities(_on_tails([np.stack(rows) for rows in zip(*[omega for _, omega, _ in batch])],
                                       at, tails, (len(batch),)))
    vbar = list(zip(*[vbar_tail for _, _, vbar_tail in batch]))  # per later stage, each group's (k, m) v-bar
    counts = [[len(vals) for vals in per_stage] for per_stage in vbar] + [[1] * len(batch)]
    # a member row's weight is its group's column of the law: a (G, 1, tails) view over the
    # (G, k, tails) rows when every group has k members, else the columns repeated per row
    weights, fvals = [], []
    for i, (per_stage, blocks, ks) in enumerate(zip(vbar, at, counts)):
        # C-contiguous (members, tails) rows, so that _combo_targets adds and gathers contiguous rows
        vals = _stack(per_stage).take(blocks, axis=1)
        even = min(ks) == max(ks)
        weights.append(law[:, None, :, i] if even else np.repeat(law[:, :, i], ks, axis=0))
        fvals.append(vals.reshape(len(ks), ks[0], tails) if even else vals)
    weights.append(law[:, None, :, -1])
    fvals.append(np.zeros((1, 1, tails)))
    return [term.reshape(-1, tails) for term in target_terms(weights, cumrew, fvals)], counts


def _stage_targets(groups, batches, at, cumrew, picks, step: int):
    """The tail targets of stage h's combos, group after group, in blocks of at most
    ``step`` combos (``_combo_targets``); ``picks[j]`` is group j's ``_tail_combos``.

    Each batch (``batches``) has one term array per later stage (``_batch_terms``);
    a group's combos add its slices.  Every step is elementwise, so each slice has
    the bits of the group's own terms.
    """
    for start, stop in batches:
        terms, counts = _batch_terms(groups[start:stop], at, cumrew)
        ends = [list(itertools.accumulate(ks)) for ks in counts]
        for j in range(stop - start):
            yield from _combo_targets([term[e[j] - ks[j] : e[j]] for term, e, ks in zip(terms, ends, counts)],
                                      picks[start + j], step)


def _candidate_stats(anchor_sets, matrix: np.ndarray, points: np.ndarray, taken) -> np.ndarray:
    """(sets, p + 1) anchor distances (``_anchor_distance``) from each of ``points`` to
    each of ``anchor_sets``, then a column of 0.0, the anchors' own distance; the
    points ``taken[s]``, equal to one of set s's anchors, are left unscored.

    Runs of sets whose (p, anchors) output fits in ``RIDGE_BLOCK`` elements share
    one einsum.  einsum sums an output of at most two elements in another order
    (seen at d = 2), so a set whose own pool, its anchors then its free points,
    gives such an output, or whose run would, is scored alone on that pool.
    """
    p = len(points)
    dist = np.zeros((len(anchor_sets), p + 1))
    stacked, alone = [], []
    for s, (anchors, cols) in enumerate(zip(anchor_sets, taken)):
        free = p - len(cols)
        if free:
            (alone if (len(anchors) + free) * len(anchors) <= 2 else stacked).append(s)
    for a, b in _runs([len(anchor_sets[s]) for s in stacked], p):
        run = stacked[a:b]
        anchors = _stack([anchor_sets[s] for s in run])
        if p * len(anchors) <= 2:
            alone += run
            continue
        starts = list(itertools.accumulate([len(anchor_sets[s]) for s in run[:-1]], initial=0))
        dist[run, :p] = _anchor_distance(anchors, matrix, points, starts).T
    for s in alone:
        cols = [c for c in range(p) if c not in taken[s]] if taken[s] else slice(p)
        m = len(anchor_sets[s])
        dist[s, cols] = _anchor_distance(anchor_sets[s], matrix, np.vstack([anchor_sets[s], points[cols]]))[m:]
    return dist


def _batch_sets(solved: np.ndarray, made, fixed, matrix: np.ndarray, config: LearnerConfig, tails: int):
    """The ``StageSets`` of a batch of groups from their combos' anchors ``solved``, group
    after group (``made``: each group's combo count and subsampled flag); also all
    their members in one array, and each group's member count.

    A group's anchors are its distinct solved rows.  With at least
    ``grid_per_stage`` of them, or no ``fixed`` candidates, it keeps its first
    ``grid_per_stage`` anchors, each at distance 0 from itself.  Otherwise it keeps
    its anchors, then the ``grid_per_stage`` - m candidates equal to none of them
    nearest an anchor (``_candidate_stats``), ties by order: the rows that sorting
    its pool, the anchors then those candidates, would keep.
    """
    keep = config.grid_per_stage
    keys = _row_keys(solved)
    firsts, kept, start = [], [], 0
    for combos, _ in made:
        first = {}
        for i in range(start, start + combos):
            first.setdefault(keys[i], i)
        firsts.append(first)
        kept += first.values()
        start += combos
    distinct = solved if len(kept) == len(solved) else solved[kept]
    begins = list(itertools.accumulate(map(len, firsts), initial=0))
    short = [] if fixed is None else [j for j, first in enumerate(firsts) if len(first) < keep]
    picked = {}
    if short:
        points, index = fixed
        p = len(points)
        taken = [[index[key] for key in firsts[j] if key in index] for j in short]
        dist = _candidate_stats([distinct[begins[j] : begins[j + 1]] for j in short], matrix, points, taken)
        if any(taken):  # each set's taken points sort last
            masked = np.zeros((len(short), p), dtype=bool)
            masked[[s for s, cols in enumerate(taken) for _ in cols], [c for cols in taken for c in cols]] = True
            order = np.lexsort((dist[:, :p], masked))
        else:
            order = np.argsort(dist[:, :p], axis=1, kind="stable")
        for s, (j, cols, ranked) in enumerate(zip(short, taken, order[:, :keep].tolist())):
            picked[j] = [(s * (p + 1) + c, len(distinct) + c) for c in ranked[: min(keep - len(firsts[j]), p - len(cols))]]
    rows, at, ends = [], [], [0]  # each group's pool rows in distinct + points, and their stats in dist's cells
    for j, (a, b) in enumerate(itertools.pairwise(begins)):
        rows += range(a, min(b, a + keep))
        at += [p] * (len(rows) - len(at)) if short else ()  # dist's cell p holds 0.0
        for cell, row in picked.get(j, ()):
            rows.append(row)
            at.append(cell)
        ends.append(len(rows))
    if short:
        pool, stats = np.concatenate([distinct, points])[rows], dist.ravel()[at]
    else:
        pool, stats = (distinct if len(rows) == len(distinct) else distinct[rows]), 0.0
    flags = _admitted(pool, stats, config)
    members = pool[flags]
    flags = flags.tolist()
    bounds = list(itertools.accumulate((sum(flags[a:b]) for a, b in itertools.pairwise(ends)), initial=0))
    sets = [StageSets(anchors=distinct[begins[j] : begins[j + 1]], members=members[bounds[j] : bounds[j + 1]],
                      combos=combos, subsampled=subsampled, tails=tails)
            for j, (combos, subsampled) in enumerate(made)]
    return sets, members, [b - a for a, b in itertools.pairwise(bounds)]


def build_confidence_sets(
    dataset: Dataset,
    guesses,
    config: LearnerConfig,
    extra_candidates: dict | None = None,
) -> list:
    """Backward construction of anchors, filtered candidate sets and their tightness,
    one ``ConfidenceSets`` per guess of the sequence ``guesses``.

    A guess reaches stage h only through its skip probabilities omega at stages
    h+1..H-1 (its skip suffix), so guesses with equal suffixes share each
    ``StageSets`` object: before each stage h < H-1 every group splits by the
    bytes of its guesses' omega at h+1 (``_split``).  A group keeps omega and its
    members' v-bar per distinct visited block of each later stage and gathers
    both to the stage's distinct tails (``Dataset.tail_paths``).

    The pass is stage-major: stage h's groups are built in batches (``_runs``)
    with stacked stopping laws and target terms (``_stage_targets``).  The
    stage's combos, all groups' in turn, are solved in blocks of
    ceil(``RIDGE_BLOCK`` / n) combos, gathered to C-contiguous (combos, n) rows
    with ``take(back, axis=1)`` (over F-strided rows the last bits can move) and
    solved as ``cov.inv @ (cov.phi.T @ rows[:, :, None])``, one gemv per combo,
    the products ``cov.ridge`` makes.  A batch's pools, admission (``_batch_sets``),
    tightness and v-bar take one call each.

    Stage h's ``stage_covariance`` is built when the pass reaches h and released
    before stage h-1's, so one is alive at a time.  A stage's pool is its
    anchors, then ``extra_candidates[h]``, then the epsilon-net points, each row
    kept once by value; the ``grid_per_stage`` pool points nearest an anchor are
    kept and admitted when they lie in the theta_radius ball within beta of an
    anchor.  ``extra_candidates`` maps a stage to extra vectors, for calibration,
    the lemma checks and ``solve``'s fallback (beta = theta_radius = inf).
    """
    _check_dims(guesses, dataset=dataset)
    H, d = dataset.horizon, dataset.dim
    skip = SkipParams(config.alpha)
    net = None if config.net_spacing is None else _keyed_net(config.theta_radius, d, config.net_spacing)
    stage_sets = [[None] * H for _ in guesses]
    tight = [[None] * H for _ in guesses]
    empty_stage = [None] * len(guesses)

    # (guess indices, omega (m,), members' v-bar (k, m)), the last two per block of stages h+1..H-1
    groups = [(list(range(len(guesses))), [], [])] if guesses else []
    for h in range(H - 1, -1, -1):
        if not groups:
            break
        if h < H - 1:
            groups = _split(dataset, guesses, groups, h + 1, skip)

        first, back = dataset.tail_paths[h]
        back = back.astype(np.intp)  # once per stage: every block gathers with it, and numpy gathers fastest by intp
        at = [dataset.visited_blocks[u][1][first].astype(np.intp) for u in range(h + 1, H)]  # each tail's block at u
        cumrew = np.cumsum(dataset.tail_rewards(first, h), axis=1)
        fixed = net
        if extra_candidates and h in extra_candidates:  # keyed with the net, extras first
            extras = np.asarray(extra_candidates[h], dtype=float).reshape(-1, d)
            fixed = _keyed(extras if net is None else np.vstack([extras, net[0]]))
        cov = stage_covariance(dataset, h, config.lam)
        sizes = [[*map(len, vbar_tail), 1] for _, _, vbar_tail in groups]  # members per later stage, terminal last
        picks = [_tail_combos(counts, config.combo_cap, [config.seed, h]) for counts in sizes]
        made = [(math.prod(counts), False) if p is None else (len(p), True) for counts, p in zip(sizes, picks)]
        batches = _runs([sum(counts) for counts in sizes], len(first))
        step = -(-RIDGE_BLOCK // len(back))
        targets = _in_blocks(_stage_targets(groups, batches, at, cumrew, picks, step), step)
        solved = _stack([(cov.inv @ (cov.phi.T @ rows.take(back, axis=1)[:, :, None]))[..., 0] for rows in targets])
        ends = list(itertools.accumulate((combos for combos, _ in made), initial=0))

        kept = []
        for start, stop in batches:
            sets, members, held = _batch_sets(solved[ends[start] : ends[stop]], made[start:stop], fixed,
                                              cov.matrix, config, len(first))
            filled = [k for k in held if k]
            spreads = iter(tightness(cov, members, H, filled) if filled else ())
            vbar = _clipped_vbar_blocks(dataset, h, members) if h >= 1 and filled else None
            row = 0
            for (indices, omega_tail, vbar_tail), st, k in zip(groups[start:stop], sets, held):
                for g in indices:
                    stage_sets[g][h] = st
                if k == 0:
                    for g in indices:
                        empty_stage[g] = h  # stages below h are never filled, so they stay None
                        tight[g] = []
                    continue
                spread = next(spreads)
                for g in indices:
                    tight[g][h] = spread
                if vbar is not None:
                    kept.append((indices, omega_tail, [vbar[row : row + k], *vbar_tail]))
                row += k
        groups = kept
        del cov

    return [ConfidenceSets(horizon=H, dim=d, stage_sets=s, tightness=t, empty_stage=e)
            for s, t, e in zip(stage_sets, tight, empty_stage)]


def tightness(cov: StageCovariance, thetas, horizon: int, sizes=None):
    """Average spread of the clipped q-estimates over a parameter set at the stage's
    taken-action features: each distinct row ``cov.pairs`` is scored once and the
    spreads are gathered back to the n rows (``cov.codes``) before the mean.  With
    ``sizes``, ``thetas`` stacks sets of those sizes and each set's spread is
    returned, in a list; without, ``thetas`` is one set.

    A one-member set's spread is 0.0 with no product: a one-column product (gemv)
    can differ in the last bit from the same column of a wider gemm.  The other
    sets share one product, whose columns keep each set's bits; their spreads are
    gathered to C-contiguous (sets, n) rows in runs of at most ``RIDGE_BLOCK``
    elements, whose row means keep one set's bits.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1, cov.pairs.shape[1])
    one = sizes is None
    sizes = [thetas.shape[0]] if one else list(sizes)
    if 0 in sizes or sum(sizes) != thetas.shape[0]:
        raise ValidationError(f"tightness needs nonempty parameter sets, got sizes {sizes} for {len(thetas)} rows")
    spreads = [0.0] * len(sizes)
    multi = [j for j, k in enumerate(sizes) if k > 1]
    if multi:
        if len(multi) < len(sizes):
            begins = list(itertools.accumulate(sizes, initial=0))
            thetas = np.concatenate([thetas[begins[j] : begins[j + 1]] for j in multi])
        scores = np.clip(cov.pairs @ thetas.T, 0.0, horizon)
        starts = list(itertools.accumulate([sizes[j] for j in multi[:-1]], initial=0))
        spread = (np.maximum.reduceat(scores, starts, axis=1) - np.minimum.reduceat(scores, starts, axis=1)).T
        run = max(1, RIDGE_BLOCK // len(cov.codes))
        for a in range(0, len(multi), run):
            for j, mean in zip(multi[a : a + run], spread[a : a + run].take(cov.codes, axis=1).mean(axis=1).tolist()):
                spreads[j] = mean
    return spreads[0] if one else spreads


# ---------------------------------------------------------------------------
# the optimistic solve


@dataclass
class GuessReport:
    """One guess's verdict; its tightness and empty stage are those of its sets."""

    index: int
    feasible: bool
    sets: ConfidenceSets = field(repr=False)

    @property
    def tightness(self) -> list:
        return self.sets.tightness

    @property
    def empty_stage(self) -> int | None:
        return self.sets.empty_stage


@dataclass
class SolveOutcome:
    """Result of the optimistic solve; also the all-guesses-rejected report.

    When no guess passes the tightness filter, ``all_rejected`` is True and a
    deterministic fallback chain still populates the policy so downstream
    evaluation stays total: the guess with no empty stage and the smallest
    maximum tightness, or, when every guess has an empty stage, guess 0
    rebuilt with beta = theta_radius = inf (every pool point admitted).
    The serialized outcome reports ``all_rejected`` as ``fallback_used`` too.
    """

    chosen_guess: int
    thetas: np.ndarray
    vbar_start: float
    reports: list
    policy: Policy
    all_rejected: bool = False

    @property
    def feasible_count(self) -> int:
        return sum(1 for r in self.reports if r.feasible)

    @property
    def tightness_max(self) -> float:
        return max((t for r in self.reports for t in r.tightness), default=float("inf"))


def _chain_from(sets: ConfidenceSets, featmap: FeatureMap):
    """Optimistic stage-0 member plus first members at later stages.

    The members' start values are one stacked product whose items are the
    matrix-vector products ``clipped_v(theta, featmap, 0, 0)`` computes
    (``members @ phi.T`` would run gemm and can move their last bits).
    """
    H, d = sets.horizon, sets.dim
    members = sets.members_at(0)
    scores = (featmap.phi[0][0] @ members[:, :, None])[..., 0]
    vals = np.clip(scores.max(axis=1), 0.0, featmap.horizon)
    best = int(np.argmax(vals))
    thetas = np.zeros((H + 1, d))
    thetas[0] = members[best]
    for h in range(1, H):
        thetas[h] = sets.members_at(h)[0]
    return thetas, float(vals[best])


def solve(dataset: Dataset, guesses, config: LearnerConfig, featmap: FeatureMap) -> SolveOutcome:
    """Optimistic argmax over guesses and stage-0 candidates.

    One ``build_confidence_sets`` pass gives every guess its confidence sets
    (guesses with equal skip suffixes share their stage sets), which carry
    per-stage tightness; guesses exceeding ``eps_bar`` at any stage (or with an
    empty stage) are rejected.
    Among feasible guesses the largest clipped start-state estimate wins,
    with ties broken by guess order then member order.  Parameters at stages
    past the first are the first member of their set, and the output policy
    is greedy w.r.t. the chosen chain.
    """
    if not guesses:
        raise ValidationError("at least one guess candidate is required")
    _check_dims(guesses, featmap=featmap, dataset=dataset)
    H = dataset.horizon
    reports = []
    for gi, sets in enumerate(build_confidence_sets(dataset, guesses, config)):
        feasible = sets.empty_stage is None and max(sets.tightness) <= config.eps_bar + MEMBER_TOL
        reports.append(GuessReport(index=gi, feasible=feasible, sets=sets))

    candidates = [r for r in reports if r.feasible]
    all_rejected = not candidates
    if candidates:
        best = None
        for r in candidates:
            thetas, vbar = _chain_from(r.sets, featmap)
            if best is None or vbar > best[1]:
                best = (thetas, vbar, r.index)
        thetas, vbar, chosen = best
    else:
        whole = [r for r in reports if r.empty_stage is None]
        if whole:
            pick = min(whole, key=lambda r: (max(r.tightness), r.index))
            chosen, sets = pick.index, pick.sets
        else:
            # Guess 0 with every pool point admitted; the net keeps the
            # configured radius, so it joins the pool as extra candidates.
            net = _net(config, dataset.dim)
            extras = None if net is None else dict.fromkeys(range(H), net)
            admit_all = replace(config, beta=math.inf, theta_radius=math.inf, net_spacing=None)
            (sets,) = build_confidence_sets(dataset, guesses[:1], admit_all, extra_candidates=extras)
            chosen = 0
        thetas, vbar = _chain_from(sets, featmap)

    return SolveOutcome(
        chosen_guess=chosen,
        thetas=thetas,
        vbar_start=vbar,
        reports=reports,
        policy=greedy_policy(featmap, thetas),
        all_rejected=all_rejected,
    )


def serialize_outcome(outcome: SolveOutcome) -> str:
    """The outcome as sorted-key JSON; ``diagnostics`` holds, per guess, each stage's
    anchor, member, combo and distinct-tail counts and whether its combos were
    subsampled (None below an empty stage)."""
    doc = {
        "chosen_guess": outcome.chosen_guess,
        "all_rejected": outcome.all_rejected,
        "fallback_used": outcome.all_rejected,
        "vbar_start": outcome.vbar_start,
        "thetas": outcome.thetas.tolist(),
        "per_guess": [
            {
                "index": r.index,
                "feasible": r.feasible,
                "empty_stage": r.empty_stage,
                "tightness": list(r.tightness),
            }
            for r in outcome.reports
        ],
        "policy": [t.tolist() for t in outcome.policy.tables],
        "diagnostics": [
            {"index": r.index, "stages": [None if st is None else st.diagnostics() for st in r.sets.stage_sets]}
            for r in outcome.reports
        ],
    }
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# skip-optimal policy (oracle side)


def skip_optimal_policy(
    mdp: StagedMdp, featmap: FeatureMap, guess: Guess, behavior: Policy, params: SkipParams
):
    """Backward evaluation of the optimal policy of the guess-skipped MDP.

    At each state the policy follows the behavior policy with the skip
    probability and otherwise acts greedily w.r.t. its own action values; the
    recursion resolves stage by stage from the terminal end.
    """
    omega = omega_tables(guess, featmap, params)

    def choose(h, q):
        w = omega[h][:, None]
        return w * behavior.tables[h] + (1.0 - w) * greedy_table(q)

    tables, values = backward_induction(mdp, choose)
    return Policy(tables), values


# ---------------------------------------------------------------------------
# calibration


@dataclass
class CalibrationResult:
    beta: float
    eps_bar: float
    anchor_stats: np.ndarray     # per-replicate max over stages of ||anchor - psi||_{X_h}
    tightness_values: np.ndarray


def _own_tail_distance(ds: Dataset, guess: Guess, psi: np.ndarray, config: LearnerConfig) -> float:
    """max over stages h of ||lstsq_anchor(ds, h, guess, psi[h+1:]) - psi[h]||_{X_h}, bit for bit;
    each stage's ``stage_covariance`` is released before the next one is built.

    omega and psi's v-bar are scored once per distinct visited block of each
    interior stage.  A stage-h target is elementwise in its row's tail
    (``ds.tail_paths[h]``), so the targets are computed once per distinct tail
    and gathered back to the n rows for the unchanged ridge solve.
    """
    H = ds.horizon
    # per block of stages 1..H-1, so entries h: are those of stages h+1..H-1
    skip = SkipParams(config.alpha)
    omega = [block_omega(ds, guess, u, skip) for u in range(1, H)]
    vbar = [_clipped_vbar_blocks(ds, u, psi[u : u + 1])[0] for u in range(1, H)]
    worst = 0.0
    for h in range(H):
        first, back = ds.tail_paths[h]
        at = [ds.visited_blocks[u][1][first].astype(np.intp) for u in range(h + 1, H)]
        stop = stop_probabilities(_on_tails(omega[h:], at, len(first)))
        cumrew = np.cumsum(ds.tail_rewards(first, h), axis=1)
        targets = targets_under_law(stop, cumrew, _on_tails(vbar[h:], at, len(first)))
        cov = stage_covariance(ds, h, config.lam)
        worst = max(worst, cov.norm(cov.ridge(targets[back]) - psi[h]))
        del cov
    return worst


def _calibrate_at(pool: list, n: int, guess: Guess, psi: np.ndarray, config: LearnerConfig,
                  delta: float) -> CalibrationResult:
    """``calibrate``'s result at n from the first n rows of each held-out replicate of
    ``pool`` (``Dataset.prefix``).  Each pass builds a replicate's stage
    covariances one stage at a time: once for the own-tail distances, and again
    for the tightness pass, which needs beta from every replicate first.  So one
    ``StageCovariance`` is alive at a time.
    """
    datasets = [ds.prefix(n) for ds in pool]
    stats = np.array([_own_tail_distance(ds, guess, psi, config) for ds in datasets])
    beta = max(float(np.quantile(stats, 1.0 - delta, method="higher")), 1e-9)

    extras = {h: psi[h][None, :] for h in range(pool[0].horizon)}
    cfg = replace(config, beta=beta)
    tight = np.zeros(len(pool))
    for c, ds in enumerate(datasets):
        (sets,) = build_confidence_sets(ds, [guess], cfg, extra_candidates=extras)
        if sets.empty_stage is not None:
            raise ValidationError(f"the true guess's confidence set is empty at stage {sets.empty_stage} on held-out "
                                  f"replicate {c} (theta_radius = {config.theta_radius:g}) at n = {n}; "
                                  "eps_bar would be inf")
        tight[c] = max(sets.tightness)
    eps_bar = max(2.0 * float(tight.max()), 1e-9)
    return CalibrationResult(beta=beta, eps_bar=eps_bar, anchor_stats=stats, tightness_values=tight)


def calibrate(
    mdp: StagedMdp,
    featmap: FeatureMap,
    behavior: Policy,
    guess: Guess,
    n_values,
    config: LearnerConfig,
    replicates: int,
    delta: float,
    seed,
) -> list:
    """Data-driven confidence radius and tightness threshold, one ``CalibrationResult``
    per entry of ``n_values``, in order.

    At each n, ``beta`` is the (1 - delta)-quantile, over held-out replicates,
    of the per-replicate worst-stage distance between the skip-optimal
    parameter psi and its own-tail anchor; ``eps_bar`` is twice the worst
    observed true-guess tightness under that beta, with psi[h] added to every
    stage pool as an extra candidate (floored away from zero so
    exact-singleton sets stay feasible).

    psi is fitted once for the whole grid.  Held-out replicate c is sampled
    once, at the largest n, from seed ``[seed, c]``; each smaller n reads its
    first n rows (``Dataset.prefix``), byte for byte a sample of n from that
    seed.  The pool holds each replicate in its stored form (``mdp.Dataset``),
    5H + 3 bytes per row when every code is int8, and each n builds one
    stage covariance at a time (``_calibrate_at``), so the working set is the
    pool plus one ``StageCovariance``, not R * H.  The pool is dropped when
    the call returns.

    Every n must pass ``mdp.trajectory_count``, ``n_values`` must be nonempty,
    ``replicates`` an integer >= 1 (a bool is not one) and ``delta`` in (0, 1),
    all checked before anything is sampled.  A held-out replicate on
    which the true guess's set is empty at some stage is refused, naming the
    stage, the replicate, ``theta_radius`` and n: its tightness, and so
    ``eps_bar``, would be infinite and the filter off.
    """
    _check_dims([guess], featmap=featmap)
    if not is_integer(replicates) or replicates < 1:
        raise ValidationError(f"calibration replicates must be an integer >= 1, got {replicates!r}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"calibration delta must lie in (0, 1), got {delta}")
    n_values = [trajectory_count(n) for n in n_values]  # before slicing: a negative n would slice from the end
    if not n_values:
        raise ValidationError("calibration needs at least one n")
    pistar, _ = skip_optimal_policy(mdp, featmap, guess, behavior, SkipParams(config.alpha))
    psi = np.ascontiguousarray(fit_policy_stack(mdp, featmap, [pistar]).theta[:, 0])
    pool = [sample_trajectories(mdp, behavior, max(n_values), [seed, c], featmap) for c in range(replicates)]
    return [_calibrate_at(pool, n, guess, psi, config, delta) for n in n_values]
