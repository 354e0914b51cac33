import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from skiprl import harness
from skiprl.cli import main
from skiprl.learner import serialize_outcome, solve
from skiprl.mdp import load_mdp


@pytest.fixture()
def config_file(tmp_path):
    doc = {
        "env": {"d": 2, "horizon": 2, "stage_sizes": [1, 3, 1], "num_actions": 2, "seed": 3},
        "data": {"n": 80, "seed": 17},
        "learn": {"alpha": 0.3, "grid_per_stage": 6, "combo_cap": 32},
        "calibration": {"enabled": True, "replicates": 3, "delta": 0.34},
        "guesses": {"count": 3, "spread": 0.3, "seed": 2},
        "sweep": {"n_values": [40, 80], "replicates": 2},
        "policy_sample": 30,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_gen_env_prints_c_conc(tmp_path, config_file, capsys):
    # the numbers the line printed while build_instance still computed C_conc
    env_path = str(tmp_path / "env.json")
    assert main(["gen-env", "--config", config_file, "--out", env_path]) == 0
    assert capsys.readouterr().out == f"wrote environment to {env_path} (v* = 1.17227, C_conc = 2.366)\n"


def test_full_pipeline(tmp_path, config_file, capsys):
    env_path = str(tmp_path / "env.json")
    data_path = str(tmp_path / "data.npz")
    outcome_path = str(tmp_path / "outcome.json")

    assert main(["gen-env", "--config", config_file, "--out", env_path]) == 0
    assert json.load(open(env_path))["H"] == 2

    assert main(["collect", "--config", config_file, "--out", data_path]) == 0
    assert harness.load_dataset(data_path).n == 80

    assert main(["learn", "--config", config_file, "--data", data_path, "--out", outcome_path]) == 0
    doc = json.load(open(outcome_path))
    assert {"chosen_guess", "thetas", "per_guess", "policy"} <= set(doc)
    # differential: collect -> file -> learn gives the outcome of solving the collected dataset in memory
    cfg = harness.load_config(config_file)
    inst = harness.build_instance(cfg)
    # gen-env's file reads back as the instance, table for table
    mdp, featmap = load_mdp(env_path)
    assert (mdp.stage_sizes, mdp.reward_kind, featmap.l1_bound) == (
        inst.mdp.stage_sizes, inst.mdp.reward_kind, inst.featmap.l1_bound
    )
    for got, want in [
        (mdp.transitions, inst.mdp.transitions),
        (mdp.reward_means, inst.mdp.reward_means),
        (featmap.phi, inst.featmap.phi),
    ]:
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    ds = harness.collect(inst, cfg.data.n, [cfg.data.seed, 0])
    lc, _ = harness.calibrated_config(cfg, inst, ds.n)
    assert open(outcome_path).read() == serialize_outcome(solve(ds, inst.guesses, lc, inst.featmap))

    assert main(["eval", "--config", config_file, "--outcome", outcome_path]) == 0
    out = capsys.readouterr().out
    assert "gap" in out


def test_learn_names_the_file_of_misshapen_features(tmp_path, config_file, capsys):
    data_path = tmp_path / "one.npz"
    np.savez(data_path, states=np.zeros((1, 2), dtype=int), actions=np.array([[0, 1]]),
             rewards=np.array([[0.5, 0.0]]), blocks=np.array([[1.0, 2.0]]), block_counts=np.array([1]),
             codes=np.zeros((1, 1), dtype=int))
    argv = ["learn", "--config", config_file, "--data", str(data_path), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(data_path) in err and "blocks must be a 3-d floating array" in err


def pad_features(arrays):
    # a zero feature after each action's d keeps the blocks distinct and in byte order
    arrays["blocks"] = np.concatenate([arrays["blocks"], np.zeros(arrays["blocks"].shape[:2] + (1,))], axis=2)


def add_stage(arrays):
    for key in ("states", "actions", "rewards"):
        arrays[key] = np.insert(arrays[key], -1, 0, axis=1)  # a stage-0 step before the terminal one
    last = arrays["block_counts"][-1]  # the new stage repeats the last stage's blocks and codes
    arrays["blocks"] = np.concatenate([arrays["blocks"], arrays["blocks"][-last:]])
    arrays["block_counts"] = np.append(arrays["block_counts"], last)
    arrays["codes"] = np.concatenate([arrays["codes"], arrays["codes"][:, -1:]], axis=1)


@pytest.mark.parametrize("reshape, shape", [(pad_features, "(2, 2, 3)"), (add_stage, "(3, 2, 2)")])
def test_learn_names_a_dataset_shaped_unlike_the_environment(tmp_path, config_file, capsys, reshape, shape):
    data_path, bad_path = str(tmp_path / "data.npz"), str(tmp_path / "bad.npz")
    assert main(["collect", "--config", config_file, "--n", "5", "--out", data_path]) == 0
    with np.load(data_path) as archive:
        arrays = dict(archive)
    reshape(arrays)
    np.savez(bad_path, **arrays)
    capsys.readouterr()
    assert main(["learn", "--config", config_file, "--data", bad_path, "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert f"(H, A, d) = {shape}" in err and "the environment has (2, 2, 2)" in err and bad_path in err


def test_sweep_and_plot(tmp_path, config_file, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["sweep", "--config", config_file, "--out-dir", out_dir]) == 0
    rows = open(out_dir + "/rows.csv").read().splitlines()
    assert len(rows) == 1 + 2 * 2
    ET.parse(out_dir + "/gap_vs_n.svg")
    # the sweep prints v* and the thresholds it used at each n, as run_meta.json records them
    out = capsys.readouterr().out.splitlines()
    meta = json.load(open(out_dir + "/run_meta.json"))
    assert f"v*(s1) = {meta['vstar']:.6g}" in out
    assert list(meta["calibrations"]) == ["40", "80"]
    assert [line for line in out if "beta" in line] == [
        f"n = {n}: beta = {cal['beta']:.6g}, eps_bar = {cal['eps_bar']:.6g}" for n, cal in meta["calibrations"].items()
    ]

    replot = str(tmp_path / "replot")
    assert main(["plot", "--rows", out_dir + "/rows.csv", "--out-dir", replot]) == 0
    ET.parse(replot + "/gap_vs_n.svg")
    assert open(replot + "/rows.csv").read() == open(out_dir + "/rows.csv").read()
    assert open(replot + "/summary.csv").read() == open(out_dir + "/summary.csv").read()
    # a replot knows no config, calibration or v*, so it writes no run metadata
    assert sorted(os.listdir(replot)) == ["gap_vs_n.svg", "rows.csv", "summary.csv"]


def test_verify_subset_and_exit_codes(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    assert main(["verify", "--lemma", "perf-diff", "--seed", "0", "--out", report_path]) == 0
    report = json.load(open(report_path))
    assert [s["name"] for s in report["suites"]] == ["perf-diff"]
    out = capsys.readouterr().out
    assert "worst slack" in out
    assert f"[{report['suites'][0]['instances']}]" in out


def test_verify_all_excludes_lemma(tmp_path, capsys):
    # --all used to be ignored beside --lemma, so the pair quietly ran one suite
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        main(["verify", "--all", "--lemma", "perf-diff", "--out", str(report_path)])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not report_path.exists()


def test_verify_all_passes(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    assert main(["verify", "--all", "--out", report_path]) == 0
    report = json.load(open(report_path))
    assert report["all_pass"] and len(report["suites"]) == 7
    # the committed report is this run's, timings aside
    committed = json.load(open(os.path.join(os.path.dirname(__file__), "..", "results", "verify_report.json")))
    for doc in (report, committed):
        for entry in doc["suites"]:
            del entry["elapsed_s"]
    assert report == committed
    # each suite's line names the instances it ran on
    lines = capsys.readouterr().out.splitlines()
    for entry, line in zip(report["suites"], lines):
        assert line.startswith(f"pass  {entry['name']}:") and line.endswith(f"[{entry['instances']}]")


def test_unknown_inputs_fail_cleanly(tmp_path):
    assert main(["eval", "--outcome", str(tmp_path / "missing.json")]) == 2


def test_negative_replicate_refused_by_name(tmp_path, config_file, capsys):
    # used to print numpy's bare "expected non-negative integer"
    out = tmp_path / "data.npz"
    assert main(["collect", "--config", config_file, "--replicate", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --replicate must be >= 0, got -1\n"
    assert not out.exists()
