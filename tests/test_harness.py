import json
import os
import pickle
import re
import tempfile
import xml.etree.ElementTree as ET
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_dataset
from skiprl import harness, learner
from skiprl.harness import (
    ExperimentConfig,
    HarnessError,
    ROW_COLUMNS,
    build_instance,
    emit_plots,
    load_dataset,
    save_dataset,
    sweep,
    verify,
)
from skiprl.design import build_true_guess, guess_grid
from skiprl.envs import random_linear_mdp, sample_policies
from skiprl.learner import serialize_outcome
from skiprl.mdp import Dataset, ValidationError, sample_trajectories, uniform_policy
from skiprl.oracles import concentrability, suboptimality


def tiny_config(**overrides) -> ExperimentConfig:
    doc = {
        "env": {"d": 2, "horizon": 2, "stage_sizes": [1, 3, 1], "num_actions": 2, "seed": 3},
        "data": {"n": 120, "seed": 17},
        "learn": {"alpha": 0.3, "grid_per_stage": 6, "combo_cap": 32},
        "calibration": {"enabled": True, "replicates": 3, "delta": 0.34},
        "guesses": {"count": 4, "spread": 0.3, "seed": 2},
        "sweep": {"n_values": [60, 120], "replicates": 3},
        "policy_sample": 40,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def mask_wall(text: str) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[-1] = "WALL"
        out.append(",".join(cells))
    return "\n".join(out)


def assert_same_arrays(got: Dataset, want: Dataset) -> None:
    """The paths, the dense features and both groupings of ``got`` and ``want``, bit for bit."""
    for key in ("states", "actions", "rewards", "features"):
        a, b = getattr(got, key), getattr(want, key)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), key
    for grouping in ("visited_blocks", "tail_paths"):
        for pair, want_pair in zip(getattr(got, grouping), getattr(want, grouping), strict=True):
            for a, b in zip(pair, want_pair):
                assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), grouping


def assert_refused(path, match) -> None:
    """``load_dataset`` raises ``ValidationError`` matching ``match`` and naming the file."""
    with pytest.raises(ValidationError, match=match) as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def valid_arrays(n=1) -> dict:
    """The archive arrays of n valid one-step trajectories with (A, d) = (2, 2), row j
    with a stage-0 block of its own."""
    actions = np.zeros((n, 2), dtype=int)
    actions[:, 0] = np.arange(n) % 2
    paths = {"states": np.zeros((n, 2), dtype=int), "actions": actions, "rewards": np.tile([0.5, 0.0], (n, 1))}
    blocks, rows = dense_dataset(**paths, features=np.arange(n * 4, dtype=float).reshape(n, 1, 2, 2) / 10).visited_blocks[0]
    return {**paths, "blocks": blocks, "block_counts": np.array([len(blocks)]), "codes": rows[:, None]}


def write_archive(tmp_path, arrays: dict):
    path = tmp_path / "data.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


UNPICKLED = []


def _unpickled(tag):
    UNPICKLED.append(tag)
    return 0.0


class Tripwire:
    """An object whose unpickling is recorded in ``UNPICKLED``."""

    def __reduce__(self):
        return _unpickled, ("tripwire",)


def twin_block_dataset(rng, n, H, A, d) -> Dataset:
    """Rows whose features are drawn independently of the state, mostly from a pool that
    holds a zero block and its -0.0 twin, with rewards that hold -0.0."""
    zero = np.zeros((A, d))
    pool = np.stack([zero, -zero, rng.normal(size=(A, d)), rng.normal(size=(A, d))])
    feats = rng.normal(size=(n, H, A, d))
    from_pool = rng.random((n, H)) < 0.8
    feats[from_pool] = pool[rng.integers(0, len(pool), size=int(from_pool.sum()))]
    states = np.zeros((n, H + 1), dtype=int)
    states[:, 1:H] = rng.integers(0, 3, size=(n, H - 1))
    actions = rng.integers(0, A, size=(n, H + 1))
    rewards = np.array([0.0, -0.0, 0.25, 1.0])[rng.integers(0, 4, size=(n, H + 1))]
    rewards[:, H] = -0.0
    return dense_dataset(states, actions, rewards, feats)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_missing_keys_take_dataclass_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()
        cfg = ExperimentConfig.from_dict({"policy_sample": 9, "learn": {"beta": 2.0}})
        assert cfg.policy_sample == 9 and cfg.policy_sample_seed == ExperimentConfig().policy_sample_seed
        assert cfg.learn == replace(ExperimentConfig().learn, beta=2.0)

    def test_repeated_n_values_refused(self):
        # [40, 40] used to run every cell twice and write duplicate (n, replicate) rows
        with pytest.raises(ValidationError, match=r"sweep\.n_values repeats n = 40"):
            tiny_config(sweep={"n_values": [40, 60, 40], "replicates": 1})

    @pytest.mark.parametrize("enabled", [True, False], ids=["calibrated", "uncalibrated"])
    def test_empty_n_values_refused(self, enabled):
        # an empty grid used to return zero rows without calibration and fail in calibrate with it
        with pytest.raises(ValidationError, match=r"sweep\.n_values is empty"):
            tiny_config(sweep={"n_values": [], "replicates": 3}, calibration={"enabled": enabled})

    def test_nan_learn_settings_refused(self):
        # json reads NaN; a NaN beta and eps_bar used to reach solve, which quietly set all_rejected
        with pytest.raises(ValidationError, match="beta must be positive, got nan"):
            ExperimentConfig.from_json('{"learn": {"beta": NaN, "eps_bar": NaN}}')

    def test_unknown_top_level_key_refused(self):
        # "sweeps" used to be dropped, so the default 3 x 20 grid ran
        with pytest.raises(ValidationError, match=r"^unknown config key 'sweeps' at the top level; known keys: env, "):
            ExperimentConfig.from_dict({"sweeps": {"n_values": [5]}})

    @pytest.mark.parametrize("section, key", [("learn", "skip"), ("sweep", "n"), ("env", "dim")])
    def test_unknown_section_key_refused(self, section, key):
        # a misspelt key inside a section used to raise a bare TypeError from the dataclass
        with pytest.raises(ValidationError, match=rf"^unknown config key '{key}' in section '{section}'; known keys: "):
            ExperimentConfig.from_dict({section: {key: 1}})

    def test_learn_section_is_the_learner_config(self):
        cfg = tiny_config()
        assert isinstance(cfg.learn, learner.LearnerConfig)
        assert harness.learner_config(cfg, cfg.env.d) is cfg.learn
        assert sorted(json.loads(cfg.to_json())["learn"]) == sorted(
            ["lam", "beta", "eps_bar", "theta_radius", "alpha", "grid_per_stage", "combo_cap", "net_spacing", "seed"])

    @pytest.mark.parametrize("size", [4.7, True], ids=["fraction", "bool"])
    def test_non_integer_stage_size_refused(self, size):
        # [1, 4.7, 1] used to build a stage of 4 states and [1, true, 1] one of 1
        with pytest.raises(HarnessError, match=rf"stage 1 size must be a positive integer, got {size!r}") as err:
            build_instance(tiny_config(env={"d": 2, "horizon": 2, "stage_sizes": [1, size, 1], "num_actions": 2}))
        assert err.value.stage == "gen-env"

    def test_negative_policy_sample_refused(self):
        # -1 used to build the instance from the uniform policy alone; the config now
        # refuses it, so it is set after the config is built, as a caller may
        cfg = tiny_config()
        cfg.policy_sample = -1
        with pytest.raises(HarnessError, match=r"policy count must be >= 0, got -1") as err:
            build_instance(cfg)
        assert err.value.stage == "prepare"

    @pytest.mark.parametrize("section, key, value, match", [
        ("calibration", "enabled", "no", "calibration.enabled must be true or false, got 'no'"),
        ("calibration", "enabled", 1, "calibration.enabled must be true or false, got 1"),
        ("sweep", "replicates", 1.5, "sweep.replicates must be an integer, got 1.5"),
        ("sweep", "replicates", True, "sweep.replicates must be an integer, got True"),
        ("calibration", "replicates", 2.5, "calibration.replicates must be an integer, got 2.5"),
        ("calibration", "replicates", False, "calibration.replicates must be an integer, got False"),
        (None, "policy_sample", 20.5, "policy_sample must be an integer, got 20.5"),
        (None, "policy_sample", True, "policy_sample must be an integer, got True"),
        (None, "policy_sample_seed", 5.0, "policy_sample_seed must be an integer, got 5.0"),
        (None, "policy_sample_seed", True, "policy_sample_seed must be an integer, got True"),
        ("env", "d", 2.0, "env.d must be an integer, got 2.0"),
        ("env", "horizon", True, "env.horizon must be an integer, got True"),
        ("env", "num_actions", 2.5, "env.num_actions must be an integer, got 2.5"),
        ("env", "seed", True, "env.seed must be an integer, got True"),
        ("data", "seed", True, "data.seed must be an integer, got True"),
        ("guesses", "seed", True, "guesses.seed must be an integer, got True"),
        ("calibration", "seed_offset", 1.5, "calibration.seed_offset must be an integer, got 1.5"),
        ("learn", "net_spacing", True, "net_spacing must be a real number, got True"),
        ("learn", "beta", True, "beta must be a real number, got True"),
        ("learn", "beta", "10", "beta must be a real number, got '10'"),
        ("learn", "alpha", None, "alpha must be a real number, got None"),
        ("guesses", "spread", True, "guesses.spread must be a real number, got True"),
        ("data", "mix", True, "data.mix must be a real number, got True"),
        ("env", "reward_scale", "2", "env.reward_scale must be a real number, got '2'"),
        ("calibration", "delta", "0.05", "calibration.delta must be a real number, got '0.05'"),
        ("guesses", "count", 2.0, "guesses.count must be an integer, got 2.0"),
        ("guesses", "count", True, "guesses.count must be an integer, got True"),
        ("sweep", "n_values", [100, "a"], "sweep.n_values[1] must be an integer, got 'a'"),
        ("sweep", "n_values", [100.0], "sweep.n_values[0] must be an integer, got 100.0"),
        ("sweep", "n_values", 100, "sweep.n_values must be a list, got 100"),
        ("env", "stage_sizes", 4, "env.stage_sizes must be a list, got 4"),
        ("guesses", "count", 0, "guesses.count must be >= 1, got 0"),
        ("data", "n", 2.5, "data.n must be an integer, got 2.5"),
        ("data", "n", 0, "data.n must be >= 1, got 0"),
        ("calibration", "replicates", 0, "calibration.replicates must be >= 1, got 0"),
        (None, "policy_sample", 0, "policy_sample must be >= 1, got 0"),
        ("env", "d", 0, "env.d must be >= 1, got 0"),
        ("env", "horizon", 0, "env.horizon must be >= 1, got 0"),
        ("env", "num_actions", 0, "env.num_actions must be >= 1, got 0"),
        ("sweep", "replicates", 0, "sweep.replicates must be >= 1, got 0"),
    ])
    def test_ill_typed_settings_refused_by_name(self, section, key, value, match):
        # "enabled": "no" used to run with calibration on; 1.5 replicates raised a bare
        # TypeError with no pipeline stage, and true ran as 1 (a net of spacing 1.0, a
        # beta, a guess spread or an eps-greedy mix of 1.0); "beta": "10" raised a bare
        # TypeError, and a string reward_scale or delta one only at stage gen-env or calibrate;
        # a count of 2.0 failed only at stage prepare, n_values [100, "a"] built a config,
        # a scalar list field raised a bare TypeError, and a guess count of 0 and an n of
        # 2.5 built a config; zero calibration replicates, policy_sample, d, horizon and
        # action count built one too, and zero sweep replicates named no key
        doc = {key: value} if section is None else {section: {key: value}}
        with pytest.raises(ValidationError, match=f"^{re.escape(match)}$"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("doc, match", [
        ([], "the config document must be a JSON object, got []"),
        ({"env": 5}, "config section 'env' must be a JSON object, got 5"),
        ({"learn": None}, "config section 'learn' must be a JSON object, got None"),
        ({"sweep": [100]}, "config section 'sweep' must be a JSON object, got [100]"),
    ])
    def test_non_object_sections_refused_by_name(self, doc, match):
        # [] used to raise an AttributeError and the others a bare TypeError
        with pytest.raises(ValidationError, match=f"^{re.escape(match)}$"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("spread", ["-0.3", "NaN", "Infinity"])
    def test_bad_guess_spread_refused_by_name(self, spread):
        # -0.3 used to fail at stage prepare with numpy's bare "scale < 0"
        with pytest.raises(ValidationError, match=r"^guesses\.spread must be a finite number >= 0, got "):
            ExperimentConfig.from_json(f'{{"guesses": {{"spread": {spread}}}}}')
        assert ExperimentConfig.from_dict({"guesses": {"spread": 0.0}}).guesses.spread == 0.0

    def test_bad_behavior_kind_surfaces_stage(self):
        cfg = tiny_config(data={"n": 50, "behavior": "nope", "seed": 1})
        with pytest.raises(HarnessError) as err:
            build_instance(cfg)
        assert err.value.stage == "prepare"


class TestDatasetPersistence:
    def test_roundtrip_lossless(self, tmp_path, fixed_instance):
        # rows 0 and 1 both start at the start state, so their stage-0 blocks become -0.0/0.0 twins
        mdp, fm = fixed_instance
        trajs = sample_trajectories(mdp, uniform_policy(mdp), 20, 5, fm)
        feats = trajs.features.copy()
        feats[0, 0, 0, 0], feats[1, 0, 0, 0] = -0.0, 0.0
        ds = dense_dataset(trajs.states, trajs.actions, trajs.rewards, feats)
        path = tmp_path / "data.npz"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert isinstance(back, Dataset) and len(back) == 20
        assert np.signbit(back.features[0, 0, 0, 0]) and not np.signbit(back.features[1, 0, 0, 0])
        assert_same_arrays(back, ds)

    def test_sampled_narrow_arrays_survive_the_archive(self, tmp_path, fixed_instance):
        # the sampler stores states and actions as int8 here; the archive keeps them so
        mdp, fm = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 200, 5, fm)
        assert ds.states.dtype == ds.actions.dtype == np.int8
        save_dataset(ds, tmp_path / "data.npz")
        back = load_dataset(tmp_path / "data.npz")
        assert back.states.dtype == back.actions.dtype == np.int8
        assert_same_arrays(back, ds)

    def test_int64_archive_still_loads(self, tmp_path, fixed_instance):
        # an archive written before the narrow arrays holds int64 states and actions;
        # it loads as it was written and the learner reads it as it reads the narrow one
        mdp, fm = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 200, 5, fm)
        save_dataset(ds, tmp_path / "narrow.npz")
        with np.load(tmp_path / "narrow.npz") as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["states"], arrays["actions"] = arrays["states"].astype(np.int64), arrays["actions"].astype(np.int64)
        wide = load_dataset(write_archive(tmp_path, arrays))
        assert wide.states.dtype == wide.actions.dtype == np.int64
        assert np.array_equal(wide.states, ds.states) and np.array_equal(wide.actions, ds.actions)
        guesses = guess_grid(build_true_guess(mdp, fm, sample_policies(mdp, 20, 0)), 0.3, 4, seed=1)
        config = learner.LearnerConfig(net_spacing=0.8, theta_radius=2.0)
        assert (serialize_outcome(learner.solve(wide, guesses, config, fm))
                == serialize_outcome(learner.solve(ds, guesses, config, fm)))

    @pytest.mark.parametrize("m, dtype", [(1, np.int8), (127, np.int8), (128, np.int16)])
    def test_codes_stored_in_the_narrowest_dtype(self, tmp_path, m, dtype):
        # each code lies below its stage's block count m, so the narrowest signed dtype
        # holding m holds them all; the codes used to be stored as int64
        ds = Dataset.of_blocks(**valid_arrays(m))
        assert [len(blocks) for blocks, _ in ds.visited_blocks] == [m]
        path = tmp_path / "data.npz"
        save_dataset(ds, path)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        assert arrays["codes"].dtype == dtype and arrays["codes"][:, 0].tolist() == ds.visited_blocks[0][1].tolist()
        assert_same_arrays(load_dataset(path), ds)
        # an archive written before, with int64 codes, loads to the same dataset
        arrays["codes"] = arrays["codes"].astype(np.int64)
        assert_same_arrays(load_dataset(write_archive(tmp_path, arrays)), ds)

    def test_roundtrip_keeps_dtype_shape_and_bytes(self, tmp_path):
        # both reward kinds, features that are not a function of the state with -0.0/0.0
        # twins in features and rewards, (A, d) = (2, 0) blocks, n = 1 and narrow dtypes
        datasets = []
        for kind in ("deterministic-mean", "bernoulli-mean"):
            mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=10, reward_kind=kind)
            datasets.append(sample_trajectories(mdp, uniform_policy(mdp), 30, 5, fm))
        rng = np.random.default_rng(31)
        for n, H, A, d in [(40, 1, 1, 1), (40, 3, 2, 2), (40, 5, 3, 4), (1, 2, 2, 3)]:
            datasets.append(twin_block_dataset(rng, n, H, A, d))
        assert any(np.signbit(blocks).any() for ds in datasets for blocks, _ in ds.visited_blocks)
        assert any(np.signbit(ds.rewards[:, :-1]).any() for ds in datasets)
        paths = np.zeros((3, 2), dtype=int)
        datasets.append(dense_dataset(paths, paths, np.zeros((3, 2)), np.zeros((3, 1, 2, 0))))
        ds = datasets[3]
        datasets.append(dense_dataset(ds.states.astype(np.int32), ds.actions.astype(np.int8),
                                      ds.rewards.astype(np.float32), ds.features.astype(np.float32)))
        for j, ds in enumerate(datasets):
            path = tmp_path / f"{j}.data"
            save_dataset(ds, path)
            assert_same_arrays(load_dataset(path), ds)
        # written to the path as given: numpy adds no .npz suffix
        assert sorted(os.listdir(tmp_path)) == [f"{j}.data" for j in range(len(datasets))]
        # one stored (uncompressed) .npy member per array, and nothing else
        with zipfile.ZipFile(tmp_path / "0.data") as archive:
            members = archive.infolist()
        assert sorted(m.filename for m in members) == [f"{key}.npy" for key in sorted(harness.DATASET_ARRAYS)]
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    @given(seed=st.integers(0, 2**31 - 1),
           source=st.sampled_from(["deterministic-mean", "bernoulli-mean", "hand-built"]))
    @settings(max_examples=60, deadline=None)
    def test_loader_matches_reference(self, seed, source):
        # the reference is the saved Dataset itself: loading gives back its arrays bit for bit
        rng = np.random.default_rng(seed)
        d, H, A, n = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 60))
        if source == "hand-built":
            ds = twin_block_dataset(rng, n, H, A, d)
        else:
            sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
            mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)), reward_kind=source)
            ds = sample_trajectories(mdp, uniform_policy(mdp), n, int(rng.integers(0, 2**31)), fm)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.npz")
            save_dataset(ds, path)
            assert_same_arrays(load_dataset(path), ds)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.npz"
        for text in ("", "\n\n"):
            path.write_text(text)
            assert_refused(path, "not a dataset archive")

    @pytest.mark.parametrize("form", ["json-lines", "npy", "truncated"])
    def test_not_an_archive_rejected(self, tmp_path, fixed_instance, form):
        path = tmp_path / "data.npz"
        if form == "json-lines":  # the format before the archive, which is no longer read
            path.write_text('{"steps": [[0, 0, 0.5], [0, 1, 0.0]], "features": [[[1.0]]]}\n')
        elif form == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros((2, 3)))
        else:
            mdp, fm = fixed_instance
            save_dataset(sample_trajectories(mdp, uniform_policy(mdp), 3, 5, fm), path)
            path.write_bytes(path.read_bytes()[:-40])
        assert_refused(path, "not a dataset archive")

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_array_names_must_match(self, tmp_path, change):
        arrays = valid_arrays()
        if change == "missing":
            del arrays["rewards"]
        else:
            arrays["note"] = np.zeros(1)
        path = write_archive(tmp_path, arrays)
        assert_refused(path, "not a dataset archive: it holds")

    def test_object_array_refused_without_unpickling(self, tmp_path):
        pickle.loads(pickle.dumps(Tripwire()))
        assert UNPICKLED == ["tripwire"]  # the tripwire fires when unpickled
        UNPICKLED.clear()
        arrays = valid_arrays()
        arrays["rewards"] = np.array([[Tripwire(), 0.0]], dtype=object)
        path = write_archive(tmp_path, arrays)
        assert_refused(path, "not a dataset archive")
        assert UNPICKLED == []

    @pytest.mark.parametrize("key, dtype, kind", [("states", float, "integer"), ("actions", bool, "integer"),
                                                  ("rewards", int, "floating"), ("blocks", np.int64, "floating"),
                                                  ("block_counts", float, "integer"), ("codes", float, "integer")])
    def test_array_dtypes_checked(self, tmp_path, key, dtype, kind):
        arrays = valid_arrays()
        arrays[key] = arrays[key].astype(dtype)
        path = write_archive(tmp_path, arrays)
        assert_refused(path, f"{key} must be a {arrays[key].ndim}-d {kind} array")

    @pytest.mark.parametrize("fault", ["blocks-rank", "counts-stages", "codes-stages", "actions-length"])
    def test_misshapen_arrays_rejected(self, tmp_path, fault):
        arrays = valid_arrays()
        if fault == "blocks-rank":  # blocks (2, 2) for one (A, d) = (2, 2) block
            arrays["blocks"] = arrays["blocks"][0]
            match = "blocks must be a 3-d floating array"
        elif fault == "counts-stages":  # block counts for two stages of a one-step path
            arrays["block_counts"] = np.array([1, 0])
            match = r"block_counts \[1, 0\] must give each of the H = 1 stages"
        elif fault == "codes-stages":
            arrays["codes"] = np.concatenate([arrays["codes"]] * 2, axis=1)
            match = r"codes must be an \(n, H\) integer array with n, H = 1, 1"
        else:
            arrays["actions"] = arrays["actions"][:, :-1]
            match = "states, actions and rewards must share"  # a whole-array fault names no row
        assert_refused(write_archive(tmp_path, arrays), match)

    def test_zero_trajectory_archive_rejected(self, tmp_path):
        # a Dataset holds at least one trajectory, so an archive without any is an error
        arrays = valid_arrays()
        path = write_archive(tmp_path, {**arrays, **{key: arrays[key][:0] for key in ("states", "actions", "rewards", "codes")}})
        assert_refused(path, "zero trajectories")

    def test_nan_reward_rejected(self, tmp_path):
        # NaN fails both `r < 0` and `r > 1`, so it used to load as a reward
        arrays = valid_arrays(n=3)
        arrays["rewards"][1, 0] = np.nan
        assert_refused(write_archive(tmp_path, arrays), "trajectory 1: rewards must lie in")

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        # a NaN feature used to load; solve then found no sets at stage 0, naming no file
        arrays = valid_arrays(n=3)
        arrays["blocks"][arrays["codes"][1, 0], 1, 0] = value  # row 1's block, which no other row visits
        assert_refused(write_archive(tmp_path, arrays), "trajectory 1: features must be finite")

    @pytest.mark.parametrize("action, match", [(-1, "actions must be >= 0"), (2, "actions must be < 2")],
                             ids=["action-negative", "action-too-large"])
    def test_out_of_range_action_names_its_trajectory(self, tmp_path, action, match):
        # -1 used to load and score action A-1's features; A used to fail in learn with an IndexError
        arrays = valid_arrays(n=3)
        arrays["actions"][1, 0] = action
        assert_refused(write_archive(tmp_path, arrays), f"trajectory 1: {match}")

    def test_first_broken_invariant_names_its_first_row(self, tmp_path):
        # row 1 breaks the action check and rows 2 and 3 the reward check, which comes first:
        # the reward check is reported, naming its first row
        arrays = valid_arrays(n=4)
        arrays["actions"][1, 0] = -1
        arrays["rewards"][2:, 0] = np.nan
        assert_refused(write_archive(tmp_path, arrays), r"trajectory 2: rewards must lie in \[0, 1\]$")

    @pytest.mark.parametrize("fault, match", [
        ("code-too-large", r"trajectory 1: stage 0 code 3 lies outside \[0, 3\)"),
        ("code-negative", r"trajectory 1: stage 0 code -1 lies outside \[0, 3\)"),
        ("unvisited-block", "stage 0 has a block that no trajectory visits"),
        ("unordered-blocks", "stage 0 blocks must be distinct and in the order of their bytes"),
        ("repeated-block", "stage 0 blocks must be distinct and in the order of their bytes"),
    ])
    def test_stored_form_checked(self, tmp_path, fault, match):
        # codes must index their stage's blocks, and the blocks must be a fresh grouping's:
        # each visited, distinct and in byte order, or a prefix would not regroup exactly
        arrays = valid_arrays(n=3)
        codes, blocks = arrays["codes"], arrays["blocks"]
        if fault.startswith("code"):
            codes[1, 0] = 3 if fault == "code-too-large" else -1
        elif fault == "unvisited-block":
            codes[codes == 2] = 1  # two rows share a block now, and the last is left over
        elif fault == "unordered-blocks":
            arrays["blocks"] = blocks[::-1].copy()
        else:
            blocks[2] = blocks[1]
        assert_refused(write_archive(tmp_path, arrays), match)

    def test_dense_archive_refused(self, tmp_path, fixed_instance):
        # the earlier layout: states, actions, rewards and dense (n, H, A, d) features
        mdp, fm = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 4, 5, fm)
        path = write_archive(tmp_path, {"states": ds.states, "actions": ds.actions, "rewards": ds.rewards,
                                        "features": ds.features})
        assert_refused(path, "an archive of dense features .* is no longer read; collect the dataset again")


class TestRunAndSweep:
    def test_run_deterministic_modulo_wall(self, tmp_path):
        cfg = tiny_config(sweep={"n_values": [120], "replicates": 3})
        a, b = sweep(cfg), sweep(cfg)
        pa, pb = tmp_path / "a", tmp_path / "b"
        emit_plots(a, pa)
        emit_plots(b, pb)
        assert mask_wall((pa / "rows.csv").read_text()) == mask_wall((pb / "rows.csv").read_text())
        assert (pa / "summary.csv").read_text() == (pb / "summary.csv").read_text()

    def test_gap_matches_reevaluation_oracle(self):
        cfg = tiny_config()
        inst = build_instance(cfg)
        lc, _ = harness.calibrated_config(cfg, inst, cfg.data.n)
        record, outcome = harness.run_replicate(cfg, inst, lc, cfg.data.n, 0)
        assert record.gap == pytest.approx(suboptimality(inst.mdp, outcome.policy), abs=1e-12)
        assert record.gap >= -1e-9

    def test_zero_trajectories_rejected(self):
        # calibration samples first and fails by its stage; without it, collect fails by stage
        for grid in ({"n_values": [0], "replicates": 3}, {"n_values": [60, 0], "replicates": 1}):
            with pytest.raises(HarnessError, match="zero trajectories") as err:
                sweep(tiny_config(sweep=grid))
            assert err.value.stage == "calibrate" and isinstance(err.value.original, ValidationError)
        with pytest.raises(HarnessError) as err:
            sweep(tiny_config(sweep={"n_values": [0], "replicates": 3}, calibration={"enabled": False}))
        assert err.value.stage == "collect" and isinstance(err.value.original, ValidationError)

    @pytest.mark.parametrize(
        "calibration", [{"replicates": 0}, {"delta": 0.0}, {"delta": 1.0}], ids=["replicates-0", "delta-0", "delta-1"]
    )
    def test_bad_calibration_named_by_stage(self, calibration):
        # replicates = 0 used to surface as a bare IndexError from np.quantile; the config
        # now refuses it, so it is set after the config is built, as a caller may
        cfg = tiny_config(calibration={"enabled": True, "replicates": 3, "delta": 0.34})
        for key, value in calibration.items():
            setattr(cfg.calibration, key, value)
        with pytest.raises(HarnessError) as err:
            sweep(cfg)
        assert err.value.stage == "calibrate" and isinstance(err.value.original, ValidationError)
        assert next(iter(calibration)) in str(err.value)

    def test_empty_calibration_set_named_by_stage(self):
        # a tiny theta_radius empties every held-out true-guess set; calibration used to
        # return eps_bar = inf, which turned the tightness filter off without a word
        cfg = tiny_config(learn={"alpha": 0.3, "grid_per_stage": 6, "combo_cap": 32, "theta_radius": 0.05})
        inst = build_instance(cfg)
        named = r"empty at stage \d on held-out replicate 0 \(theta_radius = 0.05\) at n = 60"
        with pytest.raises(HarnessError, match=named) as err:
            harness.calibrated_config(cfg, inst, 60)
        assert err.value.stage == "calibrate" and isinstance(err.value.original, ValidationError)

    def test_sweep_calibrates_the_grid_once(self, monkeypatch):
        # one calibrate call for the whole n grid; each n's thresholds equal the one-n call's
        cfg = tiny_config()
        calls = []

        def counted(*args, **kwargs):
            calls.append(list(args[4]))
            return learner.calibrate(*args, **kwargs)

        monkeypatch.setattr(harness, "calibrate", counted)
        result = sweep(cfg)
        assert calls == [[60, 120]]
        inst = build_instance(cfg)
        for n in cfg.sweep.n_values:
            assert result.calibrations[n] == harness.calibrated_config(cfg, inst, n)[1]

    def test_zero_reward_env_gap_zero(self):
        cfg = tiny_config(
            env={"d": 2, "horizon": 2, "stage_sizes": [1, 3, 1], "num_actions": 2, "seed": 3, "reward_scale": 0.0},
            sweep={"n_values": [120], "replicates": 3},
        )
        result = sweep(cfg)
        assert all(r.gap == pytest.approx(0.0, abs=1e-12) for r in result.rows)

    def test_sweep_row_count_and_order(self):
        cfg = tiny_config()
        result = sweep(cfg)
        assert len(result.rows) == 2 * 3
        assert [(r.n, r.seed) for r in result.rows] == sorted((r.n, r.seed) for r in result.rows)

    def test_summary_recomputable_from_rows(self):
        cfg = tiny_config()
        result = sweep(cfg)
        for entry in result.summary:
            gaps = np.array([r.gap for r in result.rows if r.n == entry["n"]])
            assert entry["median_gap"] == pytest.approx(float(np.median(gaps)), abs=1e-15)
            assert entry["iqr_low"] == pytest.approx(float(np.quantile(gaps, 0.25)), abs=1e-15)

    def test_rows_equal_their_own_replicate_records(self):
        # each cell is a pure function of (config, n, replicate): the sweep's rows, which
        # solve prefixes of one sample per replicate, are the records of run_replicate
        # on a fresh sample of their n under the calibrated config of that n
        cfg = tiny_config(sweep={"n_values": [120, 30, 75], "replicates": 3})
        result = sweep(cfg)
        inst = build_instance(cfg)
        configs = harness.calibrated_configs(cfg, inst, cfg.sweep.n_values)
        tuned = {n: lc for n, (lc, _) in zip(cfg.sweep.n_values, configs)}
        assert [(r.n, r.seed) for r in result.rows] == [(n, r) for n in (30, 75, 120) for r in range(3)]
        for row in result.rows:
            record, _ = harness.run_replicate(cfg, inst, tuned[row.n], row.n, row.seed)
            assert replace(row, wall_ms=0.0) == replace(record, wall_ms=0.0)

    def test_prefix_cells_equal_fresh_cells(self):
        # a cell solved on a prefix of a larger sample returns the whole outcome of
        # the cell that samples its own n
        cfg = tiny_config(calibration={"enabled": False})
        inst = build_instance(cfg)
        for r in range(2):
            sample = harness.collect(inst, 150, [cfg.data.seed, r])
            for n in (1, 40, 150):
                _, got = harness.run_replicate(cfg, inst, cfg.learn, n, r, sample)
                _, want = harness.run_replicate(cfg, inst, cfg.learn, n, r)
                assert serialize_outcome(got) == serialize_outcome(want)

    def test_pipeline_never_builds_dense_features(self, tmp_path, monkeypatch):
        # sample -> calibrate -> solve on prefixes -> save -> load -> solve reads only
        # the per-stage blocks: the dense view is for tests and reference oracles
        def refuse(ds):
            raise AssertionError("the dense (n, H, A, d) features were built")

        monkeypatch.setattr(Dataset, "features", property(refuse))
        cfg = tiny_config(sweep={"n_values": [30, 90], "replicates": 2})
        assert len(sweep(cfg).rows) == 4
        inst = build_instance(cfg)
        save_dataset(harness.collect(inst, 50, [1, 0]), tmp_path / "data.npz")
        assert harness.run_replicate(cfg, inst, cfg.learn, 20, 0, load_dataset(tmp_path / "data.npz"))[0].n == 20

    def test_config_echo_embedded(self, tmp_path):
        cfg = tiny_config(sweep={"n_values": [120], "replicates": 3})
        result = sweep(cfg)
        paths = emit_plots(result, tmp_path / "out")
        meta = json.loads(open(paths["meta"]).read())
        assert ExperimentConfig.from_dict(meta["config"]) == cfg

    def test_bernoulli_rewards_supported(self):
        cfg = tiny_config(
            env={
                "d": 2,
                "horizon": 2,
                "stage_sizes": [1, 3, 1],
                "num_actions": 2,
                "seed": 3,
                "reward_kind": "bernoulli-mean",
            },
            sweep={"n_values": [120], "replicates": 2},
        )
        result = sweep(cfg)
        assert all(np.isfinite(r.gap) and r.gap >= -1e-9 for r in result.rows)

    def test_eps_greedy_behavior(self):
        cfg = tiny_config(
            data={"n": 100, "behavior": "eps-greedy", "mix": 0.4, "seed": 9}, sweep={"n_values": [100], "replicates": 3}
        )
        inst = build_instance(cfg)
        assert np.isfinite(concentrability(inst.mdp, inst.behavior).c_conc)
        result = sweep(cfg)
        assert all(r.gap >= -1e-9 for r in result.rows)

    def test_setup_never_computes_concentrability(self, monkeypatch):
        # only gen-env's print reads C_conc; set-up and sweeps must not pay for it
        def refuse(*args, **kwargs):
            raise AssertionError("concentrability called")

        monkeypatch.setattr(harness.oracles, "concentrability", refuse)
        cfg = tiny_config(sweep={"n_values": [60], "replicates": 2})
        inst = build_instance(cfg)
        assert not hasattr(inst, "c_conc")
        result = sweep(cfg)
        assert len(result.rows) == 2 and all(np.isfinite(r.gap) for r in result.rows)


class TestEmission:
    def test_columns_exact(self, tmp_path):
        cfg = tiny_config(sweep={"n_values": [60], "replicates": 1})
        result = sweep(cfg)
        paths = emit_plots(result, tmp_path / "out")
        header = open(paths["rows"]).readline().strip()
        assert header == ",".join(ROW_COLUMNS)
        assert header == "n,seed,gap,chosen_guess,feasible_count,tightness_max,wall_ms"

    def test_single_point_plot(self, tmp_path):
        cfg = tiny_config(sweep={"n_values": [60], "replicates": 1})
        result = sweep(cfg)
        paths = emit_plots(result, tmp_path / "out")
        tree = ET.parse(paths["plot"])
        assert tree.getroot().tag.endswith("svg")

    def test_plot_well_formed_with_band(self, tmp_path):
        cfg = tiny_config()
        result = sweep(cfg)
        paths = emit_plots(result, tmp_path / "out")
        ET.parse(paths["plot"])  # raises on malformed XML

    def test_empty_table_warns(self, tmp_path):
        empty = harness.ExperimentResult(rows=[], summary=[], config_echo="{}", calibrations={}, vstar=0.0)
        out = emit_plots(empty, tmp_path / "none")
        assert "warning" in out


class TestVerify:
    def test_subset_runs_only_requested(self):
        report = verify(["perf-diff"], seed=0)
        assert [s["name"] for s in report["suites"]] == ["perf-diff"]
        assert report["all_pass"]

    def test_report_schema(self):
        report = verify(["lsq-decomposition", "projection-bound"], seed=1)
        for entry in report["suites"]:
            assert set(entry) == {"name", "worst_slack", "tolerance", "instances", "pass", "elapsed_s"}

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValidationError):
            verify(["nope"])
