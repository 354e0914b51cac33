"""The compact trajectory storage: narrow codes held to intp references, tails held
to the byte-key reward sort they replace, the learner off the dense rewards, and
per-row memory budgets."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_dataset
from test_mdp import grouping_dataset
from skiprl import harness
from skiprl.learner import calibrate, serialize_outcome, solve, stage_covariance
from skiprl.mdp import Dataset, _byte_order, _factorize, code_dtype, sample_trajectories

CONFIG_PATH = Path(__file__).resolve().parent.parent / "scripts" / "acceptance_config.json"
EDGES = [1, 2, 126, 127, 128, 129, 32766, 32767, 32768]  # around the int8 and int16 limits


def unique_reward_tails(ds):
    """``tail_paths`` as computed before the reward codes were stored: every stage's
    reward bytes coded by one ``np.unique`` over their int64 view, all arithmetic intp."""
    rows = [r.astype(np.intp) for _, r in ds.visited_blocks] + [np.zeros(ds.n, dtype=np.intp)]
    counts = [len(blocks) for blocks, _ in ds.visited_blocks] + [1]
    H = ds.horizon
    out = [None] * H
    back, tails = rows[H], 1
    for h in range(H - 1, -1, -1):
        pairs, pair = _factorize(rows[h + 1] * tails + back, counts[h + 1] * tails)
        values, reward = np.unique(ds.rewards[:, h].astype(np.float64).view(np.int64), return_inverse=True)
        first, back = _factorize(reward * len(pairs) + pair, len(values) * len(pairs))
        tails = len(first)
        out[h] = (first, back)
    return out


def assert_tails_match(ds):
    """``ds.tail_paths`` equals ``unique_reward_tails`` and each back array has the
    ``code_dtype`` of its tail count."""
    for (first, back), (want_first, want_back) in zip(ds.tail_paths, unique_reward_tails(ds), strict=True):
        assert back.dtype == code_dtype(len(first))
        assert np.array_equal(first, want_first) and np.array_equal(back, want_back)


def edge_dataset(blocks, values, nested, seed):
    """An H = 2, A = 2, d = 1 dataset with ``blocks`` distinct stage-1 blocks and
    ``values`` distinct rewards at stages 0 and 1, every one of them visited.
    ``nested`` makes the stage-1 reward a function of the stage-1 block and the
    stage-0 reward constant, so stage 0 has exactly ``blocks`` tails."""
    rng = np.random.default_rng(seed)
    n = 2 * max(blocks, values) + 17
    j = rng.permutation(n)
    block = j % blocks
    levels = rng.permutation(values) / (2 * values)  # distinct rewards in [0, 1/2)
    r1 = levels[block % values] if nested else levels[j % values]
    r0 = np.full(n, 0.5) if nested else levels[(j // 2) % values]
    features = np.zeros((n, 2, 2, 1))
    features[:, 1, 0, 0] = block + 1.0  # distinct (2, 1) blocks, one per block index
    features[:, 1, 1, 0] = -block
    states = np.zeros((n, 3), dtype=np.int64)
    states[:, 1] = block
    actions = rng.integers(0, 2, size=(n, 3))
    rewards = np.column_stack([r0, r1, np.zeros(n)])
    return dense_dataset(states, actions, rewards, features)


def assert_codes_match(ds):
    """Every stored code of ``ds`` equals its intp reference, a ``np.unique`` over the
    bytes of the dense column it codes, in the ``code_dtype`` of its count."""
    for h, (blocks, rows) in enumerate(ds.visited_blocks):
        assert rows.dtype == code_dtype(len(blocks))
        assert np.array_equal(rows, _byte_order(ds.features[:, h])[1])
    for h, (values, codes) in enumerate(ds.visited_rewards):
        keys, want = np.unique(ds.rewards[:, h].view(np.int64), return_inverse=True)
        assert codes.dtype == code_dtype(len(values)) and np.array_equal(codes, want)
        assert values.view(np.int64).tolist() == keys.tolist()
    assert_tails_match(ds)


class TestNarrowCodes:
    @given(blocks=st.sampled_from(EDGES), values=st.sampled_from(EDGES), nested=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_codes_equal_intp_references(self, blocks, values, nested, seed):
        ds = edge_dataset(blocks, values, nested, seed)
        assert len(ds.visited_blocks[1][0]) == blocks
        assert_codes_match(ds)
        if nested:
            assert len(ds.tail_paths[0][0]) == blocks
        for h in range(ds.horizon):  # the taken-row codes multiply a narrow index by A in intp
            cov = stage_covariance(ds, h, 1.0)
            if len(cov.pairs) < ds.n:
                want = ds.visited_blocks[h][1].astype(np.intp) * 2 + ds.actions[:, h]
                assert cov.codes.dtype == np.intp and np.array_equal(cov.codes, want)
            assert cov.pairs[cov.codes].tobytes() == cov.phi.tobytes()
        k = ds.n // 3
        part = ds.prefix(k)
        assert_codes_match(part)
        fresh = dense_dataset(ds.states[:k], ds.actions[:k], ds.rewards[:k], ds.features[:k])
        for got, want in zip(part.visited_blocks + part.visited_rewards, fresh.visited_blocks + fresh.visited_rewards):
            assert all((a.dtype, a.tobytes()) == (b.dtype, b.tobytes()) for a, b in zip(got, want))


class TestTailsAgainstRewardSort:
    @given(st.sampled_from(["sampled", "zero-twins", "of-pair", "bernoulli"]), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 7, 150, 600]))
    @settings(max_examples=40, deadline=None)
    def test_sampled_and_zero_twins(self, kind, seed, n):
        # "sampled" and "zero-twins" carry -0.0/0.0 reward twins, which are different tails
        assert_tails_match(grouping_dataset(kind, seed, n))

    def test_zero_twins_split_tails(self):
        rewards = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, 0.0]])
        ds = dense_dataset(np.zeros((3, 2), dtype=np.int8), np.zeros((3, 2), dtype=np.int8), rewards,
                           np.ones((3, 1, 1, 1)))
        values, codes = ds.visited_rewards[0]
        assert values.view(np.int64).tolist() == [-2**63, 0] and codes.tolist() == [1, 0, 1]  # -0.0 sorts first
        assert ds.tail_paths[0][1].tolist() == [1, 0, 1]
        assert_tails_match(ds)

    @pytest.mark.parametrize("kind", ["sampled", "bernoulli"])
    def test_loaded_archives(self, tmp_path, kind):
        ds = grouping_dataset(kind, 11, 300)
        path = tmp_path / "data.npz"
        harness.save_dataset(ds, path)
        back = harness.load_dataset(path)
        assert_tails_match(back)
        for got, want in zip(back.tail_paths, ds.tail_paths):
            assert all((a.dtype, a.tobytes()) == (b.dtype, b.tobytes()) for a, b in zip(got, want))


@pytest.fixture(scope="module")
def acceptance():
    cfg = harness.load_config(CONFIG_PATH)
    return cfg, harness.build_instance(cfg)


def test_learner_never_reads_dense_rewards(acceptance, monkeypatch):
    cfg, inst = acceptance
    ds = harness.collect(inst, 300, [cfg.data.seed, 0])
    args = (inst.mdp, inst.featmap, inst.behavior, inst.true_guess, [100, 300], cfg.learn, 3, 0.34, [1, 2])
    want_cal = calibrate(*args)
    want = serialize_outcome(solve(ds, inst.guesses, cfg.learn, inst.featmap))

    def refuse(self):
        raise AssertionError("Dataset.rewards read")

    monkeypatch.setattr(Dataset, "rewards", property(refuse))
    fresh = harness.collect(inst, 300, [cfg.data.seed, 0])
    with pytest.raises(AssertionError, match="rewards read"):
        fresh.rewards
    got_cal = calibrate(*args)
    assert [(c.beta, c.eps_bar) for c in got_cal] == [(c.beta, c.eps_bar) for c in want_cal]
    assert serialize_outcome(solve(fresh, inst.guesses, cfg.learn, inst.featmap)) == want


class TestMemoryBudget:
    """tracemalloc counts numpy's buffers exactly, so these budgets do not depend on the host.

    On the acceptance instance (H = 3, at most 4 blocks, 8 rewards and 128 tails
    per stage) a row's stored form is 5H + 3 = 18 bytes of int8 codes: states,
    actions and rewards at H + 1 stages, blocks and tails at H.  Storing rewards
    as float64 and block and tail indices as intp took 88.5 bytes a row, and the
    sampler's (draws, n) uniform table and LCG temporaries peaked near 197."""

    N = 20_000
    HELD_PER_ROW = 24
    SAMPLE_PEAK_PER_ROW = 140

    def test_budgets(self, acceptance):
        _, inst = acceptance
        tracemalloc.start()
        try:
            ds = sample_trajectories(inst.mdp, inst.behavior, self.N, [5, 0], inst.featmap)
            _, peak = tracemalloc.get_traced_memory()
            ds.tail_paths
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / self.N < self.HELD_PER_ROW
        assert peak / self.N < self.SAMPLE_PEAK_PER_ROW
