"""Stage-structured finite-horizon MDPs with exact dynamic programming.

States are dense integer indices within each stage.  Stage 0 holds the single
start state and stage ``horizon`` the single terminal state; transitions
advance the stage by exactly one, rewards live in [0, 1], and the terminal
stage pays zero reward for every action.  All containers are treated as
immutable after construction, so every operation here is pure given its seed
and safe to call concurrently.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12
OCC_TOL = 1e-10

REWARD_KINDS = ("deterministic-mean", "bernoulli-mean")


class ValidationError(ValueError):
    """A structural invariant of an MDP, policy, or table is violated."""


def _check_rows(name: str, arr: np.ndarray, tol: float = PROB_TOL) -> None:
    """Finite, nonnegative rows summing to 1 within ``tol``; the sampler's CDF
    tables are nondecreasing only because of the first two."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: non-finite entries present")
    if np.any(arr < 0):
        raise ValidationError(f"{name}: negative entries present")
    worst = np.abs(arr.sum(axis=-1) - 1.0).max()
    if worst > tol:
        raise ValidationError(f"{name}: rows must sum to 1 (worst deviation {worst:.3e})")


@dataclass
class StagedMdp:
    """Finite-horizon MDP whose state space is partitioned by stage.

    ``horizon`` is the number of acting stages H: a trajectory visits stages
    0..H, and stage H is terminal.  ``stage_sizes`` has length H+1, with
    ``stage_sizes[0] == stage_sizes[H] == 1``.  ``transitions[h]`` has shape
    (S_h, A, S_{h+1}) for h in 0..H-1, and ``reward_means[h]`` shape (S_h, A)
    with entries in [0, 1], the terminal table all zero.  ``reward_kind``
    "deterministic-mean" pays the mean exactly; "bernoulli-mean" pays
    Bernoulli(mean) in {0, 1}.
    """

    horizon: int
    stage_sizes: tuple
    num_actions: int
    transitions: list
    reward_means: list
    reward_kind: str = "deterministic-mean"

    def __post_init__(self):
        H = self.horizon
        if not is_integer(H) or H < 1:
            raise ValidationError(f"horizon must be an integer >= 1, got {H!r}")
        if not is_integer(self.num_actions) or self.num_actions < 1:
            raise ValidationError(f"num_actions must be an integer >= 1, got {self.num_actions!r}")
        self.horizon = H = int(H)
        self.num_actions = A = int(self.num_actions)
        for h, k in enumerate(self.stage_sizes):
            if not is_integer(k) or k < 1:
                raise ValidationError(f"stage {h} size must be a positive integer, got {k!r}")
        self.stage_sizes = tuple(int(k) for k in self.stage_sizes)
        if len(self.stage_sizes) != H + 1:
            raise ValidationError("stage_sizes must have length horizon + 1")
        if self.stage_sizes[0] != 1 or self.stage_sizes[H] != 1:
            raise ValidationError("stages 0 and H must each contain exactly one state")
        if self.reward_kind not in REWARD_KINDS:
            raise ValidationError(f"unknown reward_kind {self.reward_kind!r}")
        if len(self.transitions) != H or len(self.reward_means) != H + 1:
            raise ValidationError("transition/reward table count does not match horizon")
        self.transitions = [np.asarray(t, dtype=float) for t in self.transitions]
        self.reward_means = [np.asarray(r, dtype=float) for r in self.reward_means]
        for h in range(H):
            want = (self.stage_sizes[h], A, self.stage_sizes[h + 1])
            if self.transitions[h].shape != want:
                raise ValidationError(f"transitions[{h}]: expected shape {want}")
            _check_rows(f"transitions[{h}]", self.transitions[h])
        for h in range(H + 1):
            want = (self.stage_sizes[h], A)
            if self.reward_means[h].shape != want:
                raise ValidationError(f"reward_means[{h}]: expected shape {want}")
            if np.any(~((self.reward_means[h] >= 0) & (self.reward_means[h] <= 1))):  # also refuses NaN
                raise ValidationError(f"reward_means[{h}]: entries outside [0, 1]")
        if np.any(self.reward_means[H] != 0):
            raise ValidationError("terminal stage must pay zero reward")


@dataclass
class Policy:
    """Memoryless policy: one action distribution per (stage, state)."""

    tables: list  # tables[h]: (S_h, A)

    def __post_init__(self):
        self.tables = [np.asarray(t, dtype=float) for t in self.tables]
        for h, t in enumerate(self.tables):
            if t.ndim != 2:
                raise ValidationError(f"policy stage {h}: table must be 2-D")
            _check_rows(f"policy stage {h}", t)

    @property
    def horizon(self) -> int:
        return len(self.tables) - 1


@dataclass
class PolicyStack:
    """P memoryless policies stored stage by stage, checked once as a block.

    ``tables[h]`` has shape (P, S_h, A) and holds stage h of every policy;
    ``stack[i]`` is policy i as a ``Policy``.  Stacked evaluation and fitting
    read the tables directly, so a sample of P policies costs one row check
    per stage instead of one per policy and stage.
    """

    tables: list  # tables[h]: (P, S_h, A)

    def __post_init__(self):
        self.tables = [np.asarray(t, dtype=float) for t in self.tables]
        if not self.tables:
            raise ValidationError("policy stack needs at least one stage")
        count = self.tables[0].shape[0]
        for h, t in enumerate(self.tables):
            if t.ndim != 3 or t.shape[0] != count:
                raise ValidationError(f"policy stack stage {h}: expected shape ({count}, S, A)")
            if count:
                _check_rows(f"policy stack stage {h}", t)

    @classmethod
    def _of_checked(cls, tables: list) -> "PolicyStack":
        """A stack of tables whose rows were already checked, as rows of a
        ``Policy`` or of another ``PolicyStack``; the check is not repeated."""
        stack = cls.__new__(cls)
        stack.tables = tables
        return stack

    @classmethod
    def of(cls, mdp: "StagedMdp", policies) -> "PolicyStack":
        """``policies`` as a stack: a ``PolicyStack`` as is, a sequence of ``Policy`` stacked."""
        if isinstance(policies, PolicyStack):
            return policies
        policies = list(policies)
        for pi in policies:
            _check_policy_shape(mdp, pi)
        if not policies:
            return cls([np.zeros((0, k, mdp.num_actions)) for k in mdp.stage_sizes])
        return cls._of_checked([np.stack(tables) for tables in zip(*(pi.tables for pi in policies))])

    def concat(self, other: "PolicyStack") -> "PolicyStack":
        """The policies of ``self`` followed by those of ``other``."""
        return PolicyStack._of_checked([np.concatenate(pair) for pair in zip(self.tables, other.tables)])

    def __len__(self) -> int:
        return self.tables[0].shape[0]

    def __getitem__(self, i: int) -> Policy:
        return Policy([t[i] for t in self.tables])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def horizon(self) -> int:
        return len(self.tables) - 1


@dataclass
class ValueTables:
    """State- and action-value tables from exact backward induction.

    Tables of a ``PolicyStack`` carry a leading policy axis: q[h] is
    (P, S_h, A) and v[h] is (P, S_h).
    """

    q: list  # q[h]: (S_h, A)
    v: list  # v[h]: (S_h,)


@dataclass
class OccupancyMeasure:
    """Stage-indexed state-action distributions induced by a policy."""

    nu: list  # nu[h]: (S_h, A), h in 0..H-1

    def __post_init__(self):
        for h, table in enumerate(self.nu):
            total = float(np.sum(table))
            if abs(total - 1.0) > OCC_TOL or np.any(table < -OCC_TOL):
                raise ValidationError(f"occupancy stage {h} is not a distribution")


def _first_row(bad: np.ndarray) -> int:
    """The first row of the (n, ...) boolean ``bad`` that holds a True."""
    return int(bad.reshape(len(bad), -1).any(axis=1).argmax())


def _check_paths(states: np.ndarray, actions: np.ndarray, rewards: list, groups) -> None:
    """Invariants of (n, H+1) trajectory stacks, their coded ``rewards`` and their
    feature ``groups`` (a dataset's ``visited_rewards`` and ``visited_blocks``), in
    this order: paths start at the start state and end at the terminal state, the
    terminal reward is zero, rewards lie in [0, 1], actions are >= 0 and index the
    blocks' action axis, and every visited block is finite.  Each invariant is
    checked on the whole arrays (rewards on their values, each used by some row);
    a refusal names the first trajectory that breaks the first broken invariant."""
    ends = (states[:, 0] != 0) | (states[:, -1] != 0)
    if ends.any():
        raise ValidationError(f"trajectory {_first_row(ends)}: must start at the start state and end at the terminal state")
    values, codes = rewards[-1]
    paid = values != 0.0
    if paid.any():
        raise ValidationError(f"trajectory {_first_row(paid[codes])}: terminal reward must be zero")
    outside = [~((values >= 0) & (values <= 1)) for values, _ in rewards]  # also refuses NaN
    if any(bad.any() for bad in outside):
        bad = np.column_stack([bad[codes] for bad, (_, codes) in zip(outside, rewards)])
        raise ValidationError(f"trajectory {_first_row(bad)}: rewards must lie in [0, 1]")
    if actions.min(initial=0) < 0:  # min and max read the actions once each, with no mask
        j = _first_row(actions < 0)
        raise ValidationError(f"trajectory {j}: actions must be >= 0, got {actions[j].min()}")
    A = groups[0][0].shape[1]
    if actions.max(initial=-1) >= A:
        j = _first_row(actions >= A)
        raise ValidationError(f"trajectory {j}: actions must be < {A} (the features' action count), got {actions[j].max()}")
    if not all(np.isfinite(b).all() for b, _ in groups):
        bad = np.column_stack([~np.isfinite(b).all(axis=(1, 2))[rows] for b, rows in groups])
        raise ValidationError(f"trajectory {_first_row(bad)}: features must be finite")


def _factorize(codes: np.ndarray, size: int):
    """Group nonnegative integer ``codes`` below ``size``: returns ``(first, inverse)``,
    groups numbered in increasing code order, ``first[g]`` the first row of group g
    and ``inverse[j]`` row j's group.

    A small code range uses a dense first-occurrence table, one linear pass;
    a large one a 1-D sort.  Both give the same arrays.
    """
    n = len(codes)
    if size <= 4 * n + 64:
        codes = codes.astype(np.intp, copy=False)
        table = np.full(size, n, dtype=np.intp)
        np.minimum.at(table, codes, np.arange(n, dtype=np.intp))
        present = table < n
        return table[present], (np.cumsum(present) - 1).take(codes)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return first, inverse


def _byte_order(blocks: np.ndarray):
    """``(first, inverse)`` of ``np.unique`` over the bytes of the (k, A, d) ``blocks``:
    the distinct blocks in the order of their bytes are ``blocks[first]``, and row j
    is distinct block ``inverse[j]``.  Empty (A * d = 0) blocks are all one block."""
    k, A, d = blocks.shape
    if A * d == 0:
        return np.zeros(1, dtype=np.intp), np.zeros(k, dtype=np.intp)
    flat = np.ascontiguousarray(blocks).reshape(k, A * d)
    keys = flat.view(np.dtype((np.void, A * d * flat.itemsize)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def code_dtype(count) -> np.dtype:
    """The narrowest signed integer dtype that holds ``count``, and so every code below it."""
    return np.min_scalar_type(-int(count) - 1)  # a signed type holding -count - 1 holds count


def _restrict(pairs: list, n: int) -> list:
    """Per-stage ``(kept, codes)`` pairs cut to the first n rows: each ``kept`` to the
    entries those rows use, their codes renumbered over them in ``code_dtype``."""
    out = []
    for kept, codes in pairs:
        used = np.bincount(codes[:n], minlength=len(kept)) > 0
        index = np.cumsum(used) - 1
        out.append((kept[used], index.astype(code_dtype(index[-1] + 1)).take(codes[:n])))
    return out


def _reward_codes(column: np.ndarray):
    """``(values, codes)`` of a stage's rewards, the values in the order of their float64 bits as int64."""
    _, first, codes = np.unique(column.astype(np.float64).view(np.int64), return_index=True, return_inverse=True)
    return column[first], codes.astype(code_dtype(len(first)))


# the arrays of the stored form, in ``Dataset.of_blocks`` order, with the dtype kind and rank each must have
DATASET_ARRAYS = {"states": (np.integer, 2), "actions": (np.integer, 2), "rewards": (np.floating, 2),
                  "blocks": (np.floating, 3), "block_counts": (np.integer, 1), "codes": (np.integer, 2)}


class Dataset:
    """The one trajectory container: n >= 1 rollouts stacked into arrays, row j
    of each array being trajectory j, with the features of every action at each
    visited state, each per-row cell in its narrowest exact form.

    ``states`` and ``actions`` are (n, H+1) integers.  ``visited_blocks[h]``, h < H,
    is ``(blocks, rows)``: stage h's distinct (A, d) feature blocks in the order
    of their bytes and each row's index into them, so that ``blocks[rows]`` is
    the dense ``features[:, h]``.  ``visited_rewards[h]``, h <= H, is ``(values,
    codes)``: stage h's distinct rewards in the order of their float64 bits read
    as int64 and each row's index into them.  Every index array, ``tail_paths``'
    back indices too, takes the ``code_dtype`` of its count (int8 up to 127);
    arithmetic that multiplies one widens to intp.  ``features`` and ``rewards``
    are dense arrays built on each read.  ``of_blocks`` is the one checked
    constructor; the sampler and ``prefix`` build the stored form directly.
    The arrays are treated as immutable, so ``tail_paths`` is cached.
    """

    @classmethod
    def _of_groups(cls, states, actions, rewards, groups, parent=None) -> "Dataset":
        """A dataset of already-checked arrays and groupings; nothing is checked again."""
        ds = cls.__new__(cls)
        ds.states = states            # (n, H+1) integer; sampled ones are index_dtype(mdp), often int8
        ds.actions = actions          # (n, H+1) integer, of the same dtype as states when sampled
        ds.visited_rewards = rewards  # H+1 (values, codes) pairs: see the class docstring
        ds.visited_blocks = groups    # H (blocks, rows) pairs: see the class docstring
        ds._parent = parent           # the dataset this one is a prefix of, or None
        return ds

    @classmethod
    def of_blocks(cls, states, actions, rewards, blocks, block_counts, codes) -> "Dataset":
        """A dataset of the arrays of a ``save_dataset`` archive: dense ``rewards``,
        coded here stage by stage; ``blocks`` every stage's distinct (m_h, A, d)
        blocks stacked stage after stage, ``block_counts`` the H counts m_h, and
        ``codes[:, h]`` each row's index into stage h's blocks.

        Each array must have the dtype kind and rank ``DATASET_ARRAYS`` gives it;
        ``block_counts`` must split ``blocks`` into H nonempty stages and ``codes``
        be (n, H); each code must lie in its stage's range, then ``_check_paths``
        holds; and each stage's blocks must all be visited, distinct and in the
        order of their bytes (so that sorting them moves none): the form a fresh
        grouping gives.  A refusal of a row names its trajectory.
        """
        for (key, (kind, ndim)), a in zip(DATASET_ARRAYS.items(), (states, actions, rewards, blocks, block_counts, codes)):
            if not np.issubdtype(a.dtype, kind) or a.ndim != ndim:
                raise ValidationError(f"{key} must be a {ndim}-d {kind.__name__} array, got {a.dtype} of shape {a.shape}")
        if len(states) == 0:
            raise ValidationError("cannot build a dataset from zero trajectories")
        if actions.shape != states.shape or rewards.shape != states.shape:
            shapes = (states.shape, actions.shape, rewards.shape)
            raise ValidationError(f"states, actions and rewards must share one (n, H+1) shape, got {shapes}")
        n, H = states.shape[0], states.shape[1] - 1
        if H == 0:
            raise ValidationError("a dataset needs at least one acting stage")
        if len(block_counts) != H or block_counts.min(initial=1) < 1 or block_counts.sum() != len(blocks):
            raise ValidationError(f"block_counts {block_counts.tolist()} must give each of the H = {H} stages "
                                  f"at least one of the {len(blocks)} blocks")
        if codes.shape != (n, H):
            raise ValidationError(f"codes must be an (n, H) integer array with n, H = {n}, {H}; got shape {codes.shape}")
        # one array per stage, as a fresh grouping has, not views into one buffer
        blocks = [b.copy() for b in np.split(blocks, np.cumsum(block_counts)[:-1])]
        for h, (b, column) in enumerate(zip(blocks, codes.T)):
            if column.min() < 0 or column.max() >= len(b):
                j = _first_row((column < 0) | (column >= len(b)))
                raise ValidationError(f"trajectory {j}: stage {h} code {column[j]} lies outside [0, {len(b)})")
        groups = [(b, column.astype(code_dtype(len(b)))) for b, column in zip(blocks, codes.T)]
        rewards = [_reward_codes(column) for column in rewards.T]
        _check_paths(states, actions, rewards, groups)
        for h, (b, column) in enumerate(groups):
            if not np.bincount(column, minlength=len(b)).all():
                raise ValidationError(f"stage {h} has a block that no trajectory visits")
            if not np.array_equal(_byte_order(b)[0], np.arange(len(b))):
                raise ValidationError(f"stage {h} blocks must be distinct and in the order of their bytes")
        return cls._of_groups(states, actions, rewards, groups)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return len(self)

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.visited_blocks[0][0].shape[2]

    @property
    def features(self) -> np.ndarray:
        """The dense (n, H, A, d) features, built from the blocks on every read.  It
        serves tests and reference computations; the program never reads it."""
        return np.stack([blocks[rows] for blocks, rows in self.visited_blocks], axis=1)

    @property
    def rewards(self) -> np.ndarray:
        """The dense (n, H+1) rewards, built from the codes on every read."""
        return np.stack([values[codes] for values, codes in self.visited_rewards], axis=1)

    def tail_rewards(self, rows: np.ndarray, h: int) -> np.ndarray:
        """``rewards[rows, h:H]``, gathered from the codes of stages h..H-1 alone."""
        return np.stack([values[codes[rows]] for values, codes in self.visited_rewards[h:-1]], axis=1)

    @cached_property
    def tail_paths(self) -> list:
        """Per stage h < H, ``(first, back)``: one row index per distinct trajectory
        tail, shape (m,), and each row's tail index, shape (n,), so that row j and
        row ``first[back[j]]`` share their tail; ``first[g]`` is tail g's smallest row.

        A row's stage-h tail is its block codes at stages h+1..H-1 and its reward
        codes at stages h..H-1, that is the bytes of its rewards (``-0.0`` and
        ``0.0`` differ): everything a stage-h skip target reads.  From the last
        stage down, stage h factorizes (block at h+1, tail at h+1) and (reward
        code, that pair) as intp codes below n**2, and numbers tails in that
        order.  A ``prefix`` restricts its parent's tails instead.
        """
        if self._parent is not None:
            return _restrict(self._parent.tail_paths, self.n)
        # stage H has one block and one empty tail
        rows = [r for _, r in self.visited_blocks] + [np.zeros(self.n, dtype=np.int8)]
        counts = [len(blocks) for blocks, _ in self.visited_blocks] + [1]
        H = self.horizon
        out = [None] * H
        back, tails = rows[H], 1
        for h in range(H - 1, -1, -1):
            # an intp factor makes each product intp, whatever the codes' dtype
            pairs, pair = _factorize(rows[h + 1] * np.intp(tails) + back, counts[h + 1] * tails)
            values, reward = self.visited_rewards[h]
            first, back = _factorize(reward * np.intp(len(pairs)) + pair, len(values) * len(pairs))
            tails = len(first)
            back = back.astype(code_dtype(tails))
            out[h] = (first, back)
        return out

    def prefix(self, n) -> "Dataset":
        """The dataset of the first n trajectories; the dataset itself at n = len(self).

        Its ``visited_blocks``, ``visited_rewards`` and ``tail_paths`` are this
        dataset's restricted to the first n rows (``_restrict``), which are
        exactly a fresh grouping's: blocks and values keep their byte order,
        tails their code order, and a used tail's smallest row is below n.
        """
        n = trajectory_count(n)
        if n > self.n:
            raise ValidationError(f"a prefix of {n} trajectories needs at least that many; the dataset has {self.n}")
        if n == self.n:
            return self
        return Dataset._of_groups(self.states[:n], self.actions[:n], _restrict(self.visited_rewards, n),
                                  _restrict(self.visited_blocks, n), parent=self)

    @classmethod
    def from_trajectories(cls, dataset) -> "Dataset":
        """``dataset`` itself when it is a ``Dataset``; anything else is refused."""
        if not isinstance(dataset, Dataset):
            raise ValidationError(f"expected a Dataset, got {type(dataset).__name__}")
        return dataset


# ---------------------------------------------------------------------------
# policy constructors


def uniform_policy(mdp: StagedMdp) -> Policy:
    A = mdp.num_actions
    return Policy([np.full((k, A), 1.0 / A) for k in mdp.stage_sizes])


def random_policy_stack(mdp: StagedMdp, rng: np.random.Generator, count: int) -> PolicyStack:
    """``count`` uniformly random mixture policies (Dirichlet(1,...,1) rows) as one block.

    The block is drawn row by row in policy-major order, the order in which
    ``count`` draws of one stage table after another read the stream, so the
    tables and the generator state afterwards do not depend on how a sample
    is split into blocks.
    """
    rows = rng.dirichlet(np.ones(mdp.num_actions), size=(count, sum(mdp.stage_sizes)))
    return PolicyStack(np.split(rows, np.cumsum(mdp.stage_sizes)[:-1], axis=1))


def random_policy(mdp: StagedMdp, rng: np.random.Generator) -> Policy:
    """Uniformly random mixture policy (Dirichlet(1,...,1) rows)."""
    return random_policy_stack(mdp, rng, 1)[0]


def deterministic_policy(mdp: StagedMdp, actions: list) -> Policy:
    """Policy placing unit mass on ``actions[h][s]`` at each state."""
    tables = []
    for h, k in enumerate(mdp.stage_sizes):
        t = np.zeros((k, mdp.num_actions))
        t[np.arange(k), np.asarray(actions[h], dtype=int)] = 1.0
        tables.append(t)
    return Policy(tables)


def mix_policies(primary: Policy, other: Policy, eps: float) -> Policy:
    """Pointwise mixture (1 - eps) * primary + eps * other, for eps in [0, 1]."""
    if not 0.0 <= eps <= 1.0:  # also refuses NaN
        raise ValidationError(f"mixture weight eps must lie in [0, 1], got {eps!r}")
    return Policy([(1.0 - eps) * p + eps * o for p, o in zip(primary.tables, other.tables)])


def count_deterministic_policies(mdp: StagedMdp) -> int:
    """Number of deterministic policies over non-terminal states."""
    n_states = sum(mdp.stage_sizes[:-1])
    return mdp.num_actions ** n_states


def deterministic_policy_stacks(mdp: StagedMdp, chunk: int):
    """Every deterministic policy (terminal action fixed to 0) as stacks of at
    most ``chunk`` policies, so no array grows with the total count.

    Policies come in ``itertools.product`` order over the non-terminal states,
    stage by stage, with the last state varying fastest.
    """
    if chunk < 1:
        raise ValidationError("chunk must be >= 1")
    A = mdp.num_actions
    slots = sum(mdp.stage_sizes[:-1])
    combos = itertools.product(range(A), repeat=slots)
    bounds = np.cumsum(mdp.stage_sizes[:-1])[:-1]
    while True:
        block = np.array(list(itertools.islice(combos, chunk)), dtype=int).reshape(-1, slots)
        if block.shape[0] == 0:
            return
        actions = np.split(block, bounds, axis=1) + [np.zeros((block.shape[0], 1), dtype=int)]
        yield PolicyStack([(a[..., None] == np.arange(A)).astype(float) for a in actions])


def enumerate_deterministic_policies(mdp: StagedMdp):
    """Yield every deterministic policy, in ``deterministic_policy_stacks`` order."""
    for stack in deterministic_policy_stacks(mdp, 512):
        yield from stack


# ---------------------------------------------------------------------------
# exact dynamic programming


def _check_policy_shape(mdp: StagedMdp, policy) -> None:
    """Stage count and per-stage (S_h, A) shape of a ``Policy`` or a ``PolicyStack``."""
    if policy.horizon != mdp.horizon:
        raise ValidationError("policy horizon does not match MDP")
    for h, t in enumerate(policy.tables):
        if t.shape[-2:] != (mdp.stage_sizes[h], mdp.num_actions):
            raise ValidationError(f"policy stage {h}: shape {t.shape[-2:]} does not match MDP")


def greedy_table(q: np.ndarray) -> np.ndarray:
    """One-hot table on the argmax of each row of ``q``; ties go to the lowest action."""
    table = np.zeros(q.shape)
    table[np.arange(q.shape[0]), np.argmax(q, axis=1)] = 1.0
    return table


def backward_induction(mdp: StagedMdp, choose):
    """Exact backward induction: q_h = r_h + P_h v_{h+1}, v_h = sum_a pi_h q_h.

    ``choose(h, q_h)`` returns the (S_h, A) action table pi_h of stage h; the
    terminal table puts unit mass on action 0.  Returns the raw tables (no
    ``Policy`` validation, so per-call cost stays low) and the value tables.
    """
    H = mdp.horizon
    q = [None] * (H + 1)
    v = [None] * (H + 1)
    tables = [None] * (H + 1)
    q[H] = np.zeros((1, mdp.num_actions))
    v[H] = np.zeros(1)
    tables[H] = greedy_table(q[H])
    for h in range(H - 1, -1, -1):
        q[h] = mdp.reward_means[h] + mdp.transitions[h] @ v[h + 1]
        tables[h] = choose(h, q[h])
        v[h] = np.sum(tables[h] * q[h], axis=1)
    return tables, ValueTables(q=q, v=v)


def evaluate_policy(mdp: StagedMdp, policy: Policy) -> ValueTables:
    """Exact values of ``policy`` by backward induction."""
    _check_policy_shape(mdp, policy)
    return backward_induction(mdp, lambda h, q: policy.tables[h])[1]


def evaluate_stack(mdp: StagedMdp, stack: PolicyStack) -> ValueTables:
    """Exact values of every policy in ``stack``, bit-identical to ``evaluate_policy`` on each.

    ``T_h[None] @ v[:, None, :, None]`` applies each stage's transition tensor
    to all P value vectors in one broadcast product whose per-policy blocks
    are the same matrix-vector products ``T_h @ v`` runs.
    """
    _check_policy_shape(mdp, stack)
    H, P = mdp.horizon, len(stack)
    q = [None] * (H + 1)
    v = [None] * (H + 1)
    q[H] = np.zeros((P, 1, mdp.num_actions))
    v[H] = np.zeros((P, 1))
    for h in range(H - 1, -1, -1):
        q[h] = mdp.reward_means[h] + (mdp.transitions[h][None] @ v[h + 1][:, None, :, None])[..., 0]
        v[h] = np.sum(stack.tables[h] * q[h], axis=2)
    return ValueTables(q=q, v=v)


def optimal_policy(mdp: StagedMdp):
    """Greedy-by-backward-induction optimal policy.

    Ties are broken by the lowest action index everywhere, so the result is
    reproducible.  Returns ``(policy, values)`` where the values are the
    pointwise optimal q and v tables.
    """
    tables, values = backward_induction(mdp, lambda h, q: greedy_table(q))
    return Policy(tables), values


def occupancy(mdp: StagedMdp, policy: Policy) -> OccupancyMeasure:
    """Forward DP for the state-action distribution at every stage."""
    _check_policy_shape(mdp, policy)
    H = mdp.horizon
    state_dist = np.ones(1)
    nu = []
    for h in range(H):
        table = state_dist[:, None] * policy.tables[h]
        nu.append(table)
        state_dist = np.einsum("sa,sat->t", table, mdp.transitions[h])
    return OccupancyMeasure(nu=nu)


# ---------------------------------------------------------------------------
# trajectory sampling

def _draw(thresholds: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw i, the count of entries <= u[i] in CDF row ``rows[i]``, clamped
    to the last index, without gathering the (n, K) rows.

    ``thresholds`` is the (K, R) transpose of an (R, K) CDF table.  Each CDF
    row is nondecreasing (validated rows are finite and nonnegative), so its
    entries <= u form a prefix, and counting only the first K - 1 thresholds,
    one column at a time, is the clamped count.
    """
    out = np.zeros(len(u), dtype=np.intp)
    for column in thresholds[:-1]:
        out += column.take(rows) <= u
    return out


# numpy's SeedSequence constants (NEP 19) and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)


def _seed_words(seed) -> list:
    """The uint32 entropy words ``SeedSequence`` reads from an int or an
    arbitrarily nested list of ints: each int little-endian in 32-bit words,
    0 as the single word 0."""
    if isinstance(seed, (list, tuple)):
        return [word for part in seed for word in _seed_words(part)]
    part = int(seed)
    if part < 0:
        raise ValueError("expected non-negative integer")
    words = [part & _MASK32]
    while part > _MASK32:
        part >>= 32
        words.append(part & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hash step: xor with the running constant, advance the
    constant, multiply by it and fold the high half down (uint32 arithmetic)."""
    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hash_


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _lcg_step(hi, lo, inc_hi, inc_lo, scratch: np.ndarray) -> None:
    """One PCG64 step, state * multiplier + inc mod 2**128, in place on the (n,)
    uint64 halves ``hi`` and ``lo``, with a (3, n) uint64 ``scratch``.  The high
    half of lo * multiplier_lo comes from 32-bit limbs, the carry of their
    middle sum counted apart, so no product exceeds 64 bits."""
    m, s32 = np.uint64(_MASK32), np.uint64(32)
    b0, b1 = _PCG_MULT_LO & m, _PCG_MULT_LO >> s32
    l0, l1, low = scratch
    hi *= _PCG_MULT_LO
    hi += np.multiply(lo, _PCG_MULT_HI, out=low)
    hi += inc_hi
    np.bitwise_and(lo, m, out=l0)
    np.right_shift(lo, s32, out=l1)
    lo *= _PCG_MULT_LO
    lo += inc_lo
    hi += lo < inc_lo
    hi += np.multiply(l1, b1, out=low)
    np.multiply(l0, b0, out=low)
    low >>= s32
    l0 *= b1
    l1 *= b0
    l0 += l1  # the middle sum mod 2**64; its carry is worth 2**32 in hi
    np.less(l0, l1, out=l1)
    l1 <<= s32
    hi += l1
    low += np.bitwise_and(l0, m, out=l1)
    l0 >>= s32
    low >>= s32
    hi += l0
    hi += low


def _mixed_pool(columns: list) -> list:
    """SeedSequence.mix_entropy of the entropy word ``columns``: the 4-word uint32 pool.
    The hash constants advance identically on every row."""
    w = len(columns)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(columns[i] if i < w else np.uint32(0)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, w):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(columns[src]))
    return pool


def _pcg64_seeded(pool: list):
    """PCG64's ``(hi, lo, inc_hi, inc_lo)`` after ``srandom(seed, seq)``, whose four
    uint64 words come from SeedSequence.generate_state(4, uint64) of ``pool``: eight
    hashed pool words in order, each little-endian pair one uint64 word.  The words
    die when this returns, so the draws never hold them."""
    hash_b = _hasher(_INIT_B, _MULT_B)

    def word64(i):
        low = hash_b(pool[2 * i % _POOL_SIZE]).astype(np.uint64)
        return low | hash_b(pool[(2 * i + 1) % _POOL_SIZE]).astype(np.uint64) << np.uint64(32)

    seed_hi, seed_lo = word64(0), word64(1)
    seq_hi, seq_lo = word64(2), word64(3)
    # inc = seq << 1 | 1; state = 0; step; state += seed; step (the caller takes that step)
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + seed_lo
    return inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo


def _uniform_columns(shared: list, n: int):
    """Every row's uniforms, one (n,) column per ``next``: row j of column t is the
    t-th ``random()`` draw of numpy's default generator seeded ``[*shared, j]``.

    ``shared`` holds the entropy words every row starts with (see ``_seed_words``);
    they are hashed and mixed once, as scalars, and the row counter j is the
    only per-row word.  numpy fixes both algorithms, so all rows run at once:
    SeedSequence mixes the words into a 4-word pool and expands it to four
    uint64 words; PCG64 (XSL-RR 128/64) seeds its 128-bit LCG from them; each
    draw is one LCG step, the XSL-RR output x and ``(x >> 11) * 2**-53``.
    """
    columns = [np.uint32(word) for word in shared] + [np.arange(n, dtype=np.uint32)]
    with np.errstate(over="ignore"):
        # the counter is mixed into every pool word, so each LCG half is an (n,) array
        hi, lo, inc_hi, inc_lo = _pcg64_seeded(_mixed_pool(columns))
    scratch = np.empty((3, n), dtype=np.uint64)
    _lcg_step(hi, lo, inc_hi, inc_lo, scratch)
    x, rot, low = scratch
    while True:
        _lcg_step(hi, lo, inc_hi, inc_lo, scratch)
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, np.uint64(58), out=rot)
        np.right_shift(x, rot, out=low)
        np.subtract(np.uint64(64), rot, out=rot)
        rot &= np.uint64(63)
        x <<= rot
        x |= low
        x >>= np.uint64(11)
        yield x * 2.0 ** -53


def index_dtype(mdp: StagedMdp) -> np.dtype:
    """The dtype of a sample's ``states`` and ``actions``: the ``code_dtype`` of
    ``mdp``'s largest stage size and its action count, and so of every state and
    action index."""
    return code_dtype(max(*mdp.stage_sizes, mdp.num_actions))


def _sample(mdp: StagedMdp, policy: Policy, shared: list, n: int, featmap) -> Dataset:
    """n trajectories, row j from the seed words ``[*shared, j]``, drawn stage-wise
    for all rows at once, in their stored form (see ``Dataset``).

    Row j reads its seed's stream (``_uniform_columns``, one column per draw, so
    no (draws, n) table exists) in rollout order: per stage the action, the
    reward (Bernoulli rewards only) and the next state, then the terminal
    action; so row j equals a single rollout from its seed.  The stream is
    dropped before the features are grouped.  ``states`` and ``actions`` take
    ``index_dtype(mdp)``; a reward's code is its value's rank by int64 bits
    among the stage's values drawn.  Draws run on intp.  ``_draw`` counts
    each against a CDF table built once per stage,
    (S_h, A) for the policy and (S_h * A, S_{h+1}) for the transitions
    indexed by ``s * A + a``, so a stage costs O(n * K) elementwise work.
    """
    _check_policy_shape(mdp, policy)
    H, A = mdp.horizon, mdp.num_actions
    bernoulli = mdp.reward_kind == "bernoulli-mean"
    draws = _uniform_columns(shared, n)
    states = np.zeros((n, H + 1), dtype=index_dtype(mdp))
    actions = np.zeros((n, H + 1), dtype=index_dtype(mdp))
    rewards = [None] * H + [(np.zeros(1), np.zeros(n, dtype=np.int8))]  # the terminal stage pays 0.0
    s = np.zeros(n, dtype=np.intp)
    for h in range(H + 1):
        policy_cdf = np.cumsum(policy.tables[h], axis=1).T
        actions[:, h] = a = _draw(policy_cdf, s, next(draws))
        if h < H:
            pair = np.multiply(s, A, out=s)  # s * A + a in place: s is drawn anew below
            pair += a
            del a
            # each row pays table[key]: its mean, or the Bernoulli draw's 0.0 or 1.0
            table, key = mdp.reward_means[h].ravel(), pair
            if bernoulli:
                table, key = np.array([0.0, 1.0]), (next(draws) < table.take(pair)).view(np.int8)
            drawn = np.bincount(key, minlength=len(table)) > 0
            values, rank = np.unique(table[drawn].view(np.int64), return_inverse=True)
            code = np.zeros(len(table), dtype=code_dtype(len(values)))
            code[drawn] = rank
            rewards[h] = (values.view(np.float64), code.take(key))
            next_cdf = np.cumsum(mdp.transitions[h], axis=2).reshape(-1, mdp.stage_sizes[h + 1]).T
            states[:, h + 1] = s = _draw(next_cdf, pair, next(draws))
    del draws
    groups = []  # grouped by state: no (n, H, A, d) array is gathered
    for h in range(H):
        first, by_state = _factorize(states[:, h], mdp.stage_sizes[h])
        candidates = featmap.phi[h].take(states[first, h], axis=0)  # one block per visited state
        rep, rows = _byte_order(candidates)
        groups.append((candidates[rep], rows.astype(code_dtype(len(rep))).take(by_state)))
    _check_paths(states, actions, rewards, groups)
    return Dataset._of_groups(states, actions, rewards, groups)


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number, an integer too; a bool is not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def trajectory_count(n) -> int:
    """``n`` as a number of trajectories: an integer (a numpy integer too, never a
    bool) of at least 1, refused otherwise with a ``ValidationError`` naming it."""
    if not is_integer(n):
        raise ValidationError(f"the trajectory count n must be an integer, got {n!r}")
    if n <= 0:
        raise ValidationError(f"n = {n} gives zero trajectories; a dataset needs at least one")
    return int(n)


def sample_trajectories(mdp: StagedMdp, policy: Policy, n: int, seed, featmap) -> Dataset:
    """Sample n trajectories; trajectory j is, bit for bit, the rollout of numpy's
    default generator seeded ``[seed, j]`` (numpy keeps SeedSequence and PCG64
    stable), and all n streams run in one vectorised pass.  So a sample of n
    is, array by array, the first n rows of a larger one from the same seed.
    The words of ``seed`` are shared by every row and mixed once; the row
    counter j is the only per-row seed word.  ``n`` must pass
    ``trajectory_count``; every visited state's features come from
    ``featmap`` (a ``FeatureMap``), grouped per stage (``visited_blocks``).
    """
    n = trajectory_count(n)
    return _sample(mdp, policy, _seed_words(seed), n, featmap)


# ---------------------------------------------------------------------------
# serialization

def mdp_to_doc(mdp: StagedMdp, featmap) -> dict:
    """Structured document of an environment and its feature map for on-disk
    exchange; floats round-trip exactly."""
    return {
        "H": mdp.horizon,
        "stage_sizes": list(mdp.stage_sizes),
        "num_actions": mdp.num_actions,
        "transitions": [t.tolist() for t in mdp.transitions],
        "reward_means": [r.tolist() for r in mdp.reward_means],
        "reward_kind": mdp.reward_kind,
        "features": {"d": featmap.d, "l1_bound": featmap.l1_bound, "phi": [p.tolist() for p in featmap.phi]},
    }


def mdp_from_doc(doc: dict):
    """``(mdp, featmap)`` of a ``mdp_to_doc`` document; one without features is refused."""
    from .envs import FeatureMap

    if "features" not in doc:
        raise ValidationError("environment document has no 'features'; every environment carries its feature map")
    mdp = StagedMdp(
        horizon=doc["H"],
        stage_sizes=tuple(doc["stage_sizes"]),
        num_actions=doc["num_actions"],
        transitions=[np.asarray(t) for t in doc["transitions"]],
        reward_means=[np.asarray(r) for r in doc["reward_means"]],
        reward_kind=doc["reward_kind"],
    )
    f = doc["features"]
    featmap = FeatureMap(d=f["d"], phi=[np.asarray(p) for p in f["phi"]], l1_bound=f["l1_bound"])
    featmap.check_against(mdp)
    return mdp, featmap


def save_mdp(path, mdp: StagedMdp, featmap) -> None:
    with open(path, "w") as fh:
        json.dump(mdp_to_doc(mdp, featmap), fh)


def load_mdp(path):
    with open(path) as fh:
        return mdp_from_doc(json.load(fh))
