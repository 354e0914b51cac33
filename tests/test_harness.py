import json
import os
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from skiprl import harness
from skiprl.harness import (
    ExperimentConfig,
    HarnessError,
    ROW_COLUMNS,
    build_instance,
    emit_plots,
    load_dataset,
    run,
    save_dataset,
    sweep,
    verify,
)
from skiprl.mdp import Dataset, ValidationError
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
        mdp, fm = fixed_instance
        from skiprl.mdp import sample_trajectories, uniform_policy

        trajs = sample_trajectories(mdp, uniform_policy(mdp), 20, 5, fm)
        path = tmp_path / "data.jsonl"
        save_dataset(trajs, path)
        back = load_dataset(path)
        assert isinstance(back, Dataset) and len(back) == 20
        for a, b in zip(trajs, back):
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.actions, b.actions)
            np.testing.assert_array_equal(a.rewards, b.rewards)
            np.testing.assert_array_equal(a.features, b.features)

    def test_line_count_is_n(self, tmp_path, fixed_instance):
        mdp, fm = fixed_instance
        from skiprl.mdp import sample_trajectories, uniform_policy

        trajs = sample_trajectories(mdp, uniform_policy(mdp), 7, 5, fm)
        path = tmp_path / "data.jsonl"
        save_dataset(trajs, path)
        assert sum(1 for _ in open(path)) == 7

    def test_empty_file_rejected(self, tmp_path):
        # a Dataset holds at least one trajectory, so a file without any is an error
        path = tmp_path / "empty.jsonl"
        for text in ("", "\n\n"):
            path.write_text(text)
            with pytest.raises(ValidationError, match="zero trajectories"):
                load_dataset(path)

    def test_bytes_match_per_trajectory_writer(self, tmp_path):
        # the array-wise writer against the row-by-row form it replaced, on both reward kinds
        from skiprl.envs import random_linear_mdp
        from skiprl.mdp import sample_trajectories, uniform_policy

        for kind in ("deterministic-mean", "bernoulli-mean"):
            mdp, fm = random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=10, reward_kind=kind)
            ds = sample_trajectories(mdp, uniform_policy(mdp), 30, 5, fm)
            want = "".join(
                json.dumps({
                    "steps": [[int(s), int(a), float(r)] for s, a, r in zip(t.states, t.actions, t.rewards)],
                    "features": t.features.tolist(),
                }) + "\n"
                for t in ds
            )
            path = tmp_path / f"{kind}.jsonl"
            save_dataset(ds, path)
            assert path.read_text() == want

    def test_featureless_rejected_before_opening(self, tmp_path, fixed_instance):
        mdp, _ = fixed_instance
        from skiprl.mdp import sample_trajectories, uniform_policy

        ds = sample_trajectories(mdp, uniform_policy(mdp), 3, 1)
        path = tmp_path / "data.jsonl"
        path.write_text("keep\n")
        with pytest.raises(ValidationError):
            save_dataset(ds, path)
        assert path.read_text() == "keep\n"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"steps": [[0,0,0.0]], "features": []}\nnot json\n')
        with pytest.raises(ValidationError) as err:
            load_dataset(path)
        assert "line 2" in str(err.value)

    def test_features_unlike_path_length_report_line(self, tmp_path):
        # features (1, 2) for a one-step path used to load as (1, 1, 2) and fail later in Dataset.dim
        path = tmp_path / "one.jsonl"
        path.write_text('{"steps": [[0,0,0.5],[0,1,0.0]], "features": [[1.0, 2.0]]}\n')
        with pytest.raises(ValidationError, match="line 1"):
            load_dataset(path)

    def test_bad_row_after_blank_lines_reports_its_line(self, tmp_path, fixed_instance):
        # blank lines are skipped, so the failing row's index is not its line number
        mdp, fm = fixed_instance
        from skiprl.mdp import sample_trajectories, uniform_policy

        path = tmp_path / "data.jsonl"
        save_dataset(sample_trajectories(mdp, uniform_policy(mdp), 3, 5, fm), path)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        docs[2]["steps"][-1][0] = 1  # row 2 ends off the terminal state
        path.write_text("\n" + json.dumps(docs[0]) + "\n\n" + json.dumps(docs[1]) + "\n" + json.dumps(docs[2]) + "\n")
        with pytest.raises(ValidationError, match="line 5"):
            load_dataset(path)

    @pytest.mark.parametrize("fault", ["reward", "features-shape", "steps-length", "missing-key"])
    def test_bad_second_line_reports_number(self, tmp_path, fixed_instance, fault):
        mdp, fm = fixed_instance
        from skiprl.mdp import sample_trajectories, uniform_policy

        path = tmp_path / "data.jsonl"
        save_dataset(sample_trajectories(mdp, uniform_policy(mdp), 3, 5, fm), path)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        if fault == "reward":
            docs[1]["steps"][0][2] = 1.5
        elif fault == "features-shape":
            docs[1]["features"] = [[phi + [0.0] for phi in stage] for stage in docs[1]["features"]]
        elif fault == "steps-length":
            del docs[1]["steps"][1]
        else:
            del docs[1]["features"]
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(path)


class TestRunAndSweep:
    def test_run_deterministic_modulo_wall(self, tmp_path):
        cfg = tiny_config()
        a, b = run(cfg), run(cfg)
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
        # calibration samples first and raises directly; without it, collect fails by stage
        with pytest.raises(ValidationError, match="zero trajectories"):
            run(tiny_config(data={"n": 0, "seed": 17}))
        with pytest.raises(ValidationError, match="zero trajectories"):
            sweep(tiny_config(sweep={"n_values": [60, 0], "replicates": 1}))
        with pytest.raises(HarnessError) as err:
            run(tiny_config(data={"n": 0, "seed": 17}, calibration={"enabled": False}))
        assert err.value.stage == "collect" and isinstance(err.value.original, ValidationError)

    def test_zero_reward_env_gap_zero(self):
        cfg = tiny_config(env={"d": 2, "horizon": 2, "stage_sizes": [1, 3, 1], "num_actions": 2, "seed": 3, "reward_scale": 0.0})
        result = run(cfg)
        assert all(r.gap == pytest.approx(0.0, abs=1e-12) for r in result.rows)

    def test_sweep_row_count_and_order(self):
        cfg = tiny_config()
        result = sweep(cfg)
        assert len(result.rows) == 2 * 3
        assert [(r.n, r.seed) for r in result.rows] == sorted((r.n, r.seed) for r in result.rows)

    def test_single_cell_sweep_equals_run(self):
        cfg = tiny_config(sweep={"n_values": [120], "replicates": 3})
        a = run(cfg)  # run uses data.n = 120
        b = sweep(cfg)
        assert [(r.n, r.seed, r.gap, r.chosen_guess) for r in a.rows] == [
            (r.n, r.seed, r.gap, r.chosen_guess) for r in b.rows
        ]

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
        cfg = tiny_config()
        result = run(cfg)
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
            sweep={"n_values": [80], "replicates": 2},
        )
        result = run(cfg)
        assert all(np.isfinite(r.gap) and r.gap >= -1e-9 for r in result.rows)

    def test_eps_greedy_behavior(self):
        cfg = tiny_config(data={"n": 100, "behavior": "eps-greedy", "mix": 0.4, "seed": 9})
        inst = build_instance(cfg)
        assert np.isfinite(inst.c_conc)
        result = run(cfg)
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
