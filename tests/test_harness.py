import json
import os
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skiprl import harness
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
from skiprl.envs import random_linear_mdp
from skiprl.mdp import Dataset, ValidationError, sample_trajectories, uniform_policy
from skiprl.oracles import suboptimality


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


def reference_load(path) -> Dataset:
    """The per-line ``json.loads`` loader that ``load_dataset``'s fast path must reproduce."""
    rows, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                if any(len(step) != 3 for step in doc["steps"]):
                    raise ValidationError("every step must be [state, action, reward]")
                states, actions, rewards = zip(*doc["steps"])
                features = np.array(doc["features"], dtype=float)
                row = (np.array(states, dtype=int), np.array(actions, dtype=int), np.array(rewards, dtype=float), features)
                if rows and [a.shape for a in row] != [a.shape for a in rows[0]]:
                    raise ValidationError("array shapes differ from the first trajectory's")
            except Exception as err:
                raise ValidationError(f"{path}: malformed trajectory on line {lineno}: {err}") from err
            rows.append(row)
            linenos.append(lineno)
    if not rows:
        raise ValidationError(f"{path}: cannot build a dataset from zero trajectories")
    fields = [np.stack(field) for field in zip(*rows)]
    try:
        return Dataset(*fields)
    except ValidationError:
        for j, lineno in enumerate(linenos):
            try:
                Dataset(*(a[j : j + 1] for a in fields))
            except ValidationError as err:
                raise ValidationError(f"{path}: malformed trajectory on line {lineno}: {err}") from err
        raise


def assert_same_arrays(got: Dataset, want: Dataset) -> None:
    for key in ("states", "actions", "rewards", "features"):
        a, b = getattr(got, key), getattr(want, key)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), key


def assert_same_error(path, match) -> None:
    """``load_dataset`` raises exactly the reference loop's message."""
    with pytest.raises(ValidationError, match=match) as err:
        load_dataset(path)
    with pytest.raises(ValidationError) as ref:
        reference_load(path)
    assert str(err.value) == str(ref.value)


def trajectory_docs(ds: Dataset) -> list:
    return [
        {"steps": [list(step) for step in zip(s.tolist(), a.tolist(), r.tolist())], "features": f.tolist()}
        for s, a, r, f in zip(ds.states, ds.actions, ds.rewards, ds.features)
    ]


def per_trajectory_text(ds: Dataset) -> str:
    """What the writer wrote before it encoded blocks once: one ``json.dumps`` per row."""
    return "".join(json.dumps(doc) + "\n" for doc in trajectory_docs(ds))


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
    return Dataset(states, actions, rewards, feats)


# valid files that are not in the writer's exact form, so they take the per-line loop
FILE_FORMS = {
    "canonical": lambda docs: "".join(json.dumps(doc) + "\n" for doc in docs),
    "compact": lambda docs: "".join(json.dumps(doc, separators=(",", ":")) + "\n" for doc in docs),
    "features-first": lambda docs: "".join(json.dumps({"features": doc["features"], "steps": doc["steps"]}) + "\n" for doc in docs),
    "extra-key": lambda docs: "".join(json.dumps({**doc, "note": [[[0.5]]]}) + "\n" for doc in docs),
    # json.loads keeps the last of a repeated key, so the first value is a decoy
    "repeated-steps": lambda docs: "".join(
        '{"steps": ' + json.dumps([[s, a, 0.5 * (t < len(doc["steps"]) - 1)] for t, (s, a, _) in enumerate(doc["steps"])])
        + ", " + json.dumps(doc)[1:] + "\n" for doc in docs),
    "repeated-features": lambda docs: "".join(
        json.dumps({"steps": doc["steps"], "features": (-np.array(doc["features"]) - 1).tolist()})[:-1]
        + ', "features": ' + json.dumps(doc["features"]) + "}\n" for doc in docs),
    "blank-lines": lambda docs: "\n" + "\n\n".join(json.dumps(doc) for doc in docs) + "\n\n",
    "no-final-newline": lambda docs: "\n".join(json.dumps(doc) for doc in docs),
    "crlf": lambda docs: "".join(json.dumps(doc) + "\r\n" for doc in docs),
}


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
        ds = Dataset(trajs.states, trajs.actions, trajs.rewards, feats)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert isinstance(back, Dataset) and len(back) == 20
        assert np.signbit(back.features[0, 0, 0, 0]) and not np.signbit(back.features[1, 0, 0, 0])
        assert_same_arrays(back, ds)

    def test_line_count_is_n(self, tmp_path, fixed_instance):
        mdp, fm = fixed_instance
        trajs = sample_trajectories(mdp, uniform_policy(mdp), 7, 5, fm)
        path = tmp_path / "data.jsonl"
        save_dataset(trajs, path)
        assert sum(1 for _ in open(path)) == 7

    def test_empty_file_rejected(self, tmp_path):
        # a Dataset holds at least one trajectory, so a file without any is an error
        path = tmp_path / "empty.jsonl"
        for text in ("", "\n\n"):
            path.write_text(text)
            assert_same_error(path, "zero trajectories")

    def test_bytes_match_per_trajectory_writer(self, tmp_path):
        # the block-wise writer against one json.dumps per row, on both reward kinds and on
        # features that are not a function of the state, with -0.0/0.0 block twins
        datasets = []
        for kind in ("deterministic-mean", "bernoulli-mean"):
            mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=10, reward_kind=kind)
            datasets.append(sample_trajectories(mdp, uniform_policy(mdp), 30, 5, fm))
        rng = np.random.default_rng(31)
        for H, A, d in [(1, 1, 1), (3, 2, 2), (5, 3, 4)]:
            ds = twin_block_dataset(rng, 40, H, A, d)
            assert any(np.signbit(blocks).any() for blocks, _ in ds.visited_blocks)
            datasets.append(ds)
        paths = np.zeros((3, 2), dtype=int)  # one-step rows whose (A, d) = (2, 0) blocks are empty
        datasets.append(Dataset(paths, paths, np.zeros((3, 2)), np.zeros((3, 1, 2, 0))))
        for j, ds in enumerate(datasets):
            path = tmp_path / f"{j}.jsonl"
            save_dataset(ds, path)
            assert path.read_text() == per_trajectory_text(ds), j

    @given(seed=st.integers(0, 2**31 - 1),
           source=st.sampled_from(["deterministic-mean", "bernoulli-mean", "hand-built"]))
    @settings(max_examples=60, deadline=None)
    def test_loader_matches_reference(self, seed, source):
        rng = np.random.default_rng(seed)
        d, H, A, n = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 60))
        if source == "hand-built":
            ds = twin_block_dataset(rng, n, H, A, d)
        else:
            sizes = [1] + [int(rng.integers(1, 5)) for _ in range(H - 1)] + [1]
            mdp, fm = random_linear_mdp(d, H, sizes, A, seed=int(rng.integers(0, 2**31)), reward_kind=source)
            ds = sample_trajectories(mdp, uniform_policy(mdp), n, int(rng.integers(0, 2**31)), fm)
        with tempfile.TemporaryDirectory() as tmp:
            saved = os.path.join(tmp, "saved.jsonl")
            save_dataset(ds, saved)
            with open(saved) as fh:
                assert harness._load_canonical(fh) is not None  # a writer's file takes the fast path
            paths = [saved]
            for form, text in FILE_FORMS.items():
                paths.append(os.path.join(tmp, f"{form}.jsonl"))
                with open(paths[-1], "w", newline="") as fh:
                    fh.write(text(trajectory_docs(ds)))
            for path in paths:
                got = load_dataset(path)
                assert_same_arrays(got, reference_load(path))
                assert_same_arrays(got, ds)

    @pytest.mark.parametrize("steps", [
        [[0, "1", 0.5], [0, 0, 0.0]],
        [[0, True, 0.5], [0.0, 0, 0.0]],
        [[0, 0, None], [0, 0, 0.0]],
        [[0, 0, 0.5, 7], [0, 0, 0.0, 7]],
        [[0, 0, 0.5], [0, 0]],
        [[0, 0, "x"], [0, 0, 0.0]],
        [],
    ])
    def test_odd_steps_in_the_writer_form_match_reference(self, tmp_path, steps):
        # lines in the writer's form whose steps only the reference loop would ever meet
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps({"steps": steps, "features": [[[1.0]]]}) + "\n")
        try:
            want = reference_load(path)
        except ValidationError as err:
            with pytest.raises(ValidationError) as got:
                load_dataset(path)
            assert str(got.value) == str(err)
        else:
            assert_same_arrays(load_dataset(path), want)

    def test_nan_reward_rejected(self, tmp_path):
        # NaN fails both `r < 0` and `r > 1`, so it used to load as a reward
        path = tmp_path / "nan.jsonl"
        path.write_text(json.dumps({"steps": [[0, 0, float("nan")], [0, 1, 0.0]], "features": [[[1.0]]]}) + "\n")
        assert_same_error(path, "line 1: rewards must lie in")

    @pytest.mark.parametrize("steps", [[[0, 0, 0.5, 7], [0, 1, 0.0]], [[0, 0, 0.5], [0, 1, 0.0, 7]]])
    def test_step_beyond_three_entries_rejected(self, tmp_path, steps):
        # zip(*steps) stops at the shortest step, so the extra entry used to be dropped silently
        path = tmp_path / "long.jsonl"
        path.write_text(json.dumps({"steps": steps, "features": [[[1.0]]]}) + "\n")
        with open(path) as fh:
            assert harness._load_canonical(fh) is None
        assert_same_error(path, "line 1: every step must be")

    def test_featureless_rejected_before_opening(self, tmp_path, fixed_instance):
        mdp, _ = fixed_instance
        ds = sample_trajectories(mdp, uniform_policy(mdp), 3, 1)
        path = tmp_path / "data.jsonl"
        path.write_text("keep\n")
        with pytest.raises(ValidationError):
            save_dataset(ds, path)
        assert path.read_text() == "keep\n"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"steps": [[0,0,0.0]], "features": []}\nnot json\n')
        assert_same_error(path, "line 2")

    def test_features_unlike_path_length_report_line(self, tmp_path):
        # features (1, 2) for a one-step path used to load as (1, 1, 2) and fail later in Dataset.dim
        path = tmp_path / "one.jsonl"
        path.write_text('{"steps": [[0,0,0.5],[0,1,0.0]], "features": [[1.0, 2.0]]}\n')
        assert_same_error(path, "line 1")

    def test_bad_row_after_blank_lines_reports_its_line(self, tmp_path, fixed_instance):
        # blank lines are skipped, so the failing row's index is not its line number
        mdp, fm = fixed_instance
        path = tmp_path / "data.jsonl"
        save_dataset(sample_trajectories(mdp, uniform_policy(mdp), 3, 5, fm), path)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        docs[2]["steps"][-1][0] = 1  # row 2 ends off the terminal state
        path.write_text("\n" + json.dumps(docs[0]) + "\n\n" + json.dumps(docs[1]) + "\n" + json.dumps(docs[2]) + "\n")
        assert_same_error(path, "line 5")

    @pytest.mark.parametrize(
        "fault",
        ["reward", "features-shape", "features-stages", "steps-length", "missing-key", "bad-json",
         "action-negative", "action-too-large"],
    )
    def test_bad_second_line_reports_number(self, tmp_path, fixed_instance, fault):
        mdp, fm = fixed_instance
        path = tmp_path / "data.jsonl"
        save_dataset(sample_trajectories(mdp, uniform_policy(mdp), 3, 5, fm), path)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        if fault == "reward":
            docs[1]["steps"][0][2] = 1.5
        elif fault == "features-shape":
            docs[1]["features"] = [[phi + [0.0] for phi in stage] for stage in docs[1]["features"]]
        elif fault == "features-stages":
            del docs[1]["features"][-1]
        elif fault == "steps-length":
            del docs[1]["steps"][1]
        elif fault == "missing-key":
            del docs[1]["features"]
        elif fault == "action-negative":
            docs[1]["steps"][1][1] = -1  # used to load and score action A-1's features
        elif fault == "action-too-large":
            docs[1]["steps"][1][1] = mdp.num_actions  # used to load and fail in learn with an IndexError
        lines = [json.dumps(doc) for doc in docs]
        if fault == "bad-json":
            lines[1] = lines[1].replace("]], [[", "]] [[", 1)  # still in the writer's form up to one comma
        path.write_text("".join(line + "\n" for line in lines))
        assert_same_error(path, "line 2")


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
        # replicates = 0 used to surface as a bare IndexError from np.quantile
        with pytest.raises(HarnessError) as err:
            sweep(tiny_config(calibration={"enabled": True, "replicates": 3, "delta": 0.34, **calibration}))
        assert err.value.stage == "calibrate" and isinstance(err.value.original, ValidationError)
        assert next(iter(calibration)) in str(err.value)

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

    def test_bad_worker_count_rejected_before_calibration(self, monkeypatch):
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the worker count was read")

        monkeypatch.setenv(harness.WORKERS_ENV, "two")
        monkeypatch.setattr(harness, "calibrate", no_calibration)
        with pytest.raises(ValidationError, match=harness.WORKERS_ENV):
            sweep(tiny_config())

    def test_parallel_matches_serial(self):
        cfg = tiny_config(sweep={"n_values": [60], "replicates": 4})
        serial = sweep(cfg)
        old = os.environ.get(harness.WORKERS_ENV)
        os.environ[harness.WORKERS_ENV] = "2"
        try:
            parallel = sweep(cfg)
        finally:
            if old is None:
                os.environ.pop(harness.WORKERS_ENV, None)
            else:
                os.environ[harness.WORKERS_ENV] = old
        assert [(r.n, r.seed, r.gap) for r in serial.rows] == [(r.n, r.seed, r.gap) for r in parallel.rows]

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
        assert np.isfinite(inst.c_conc)
        result = sweep(cfg)
        assert all(r.gap >= -1e-9 for r in result.rows)


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
