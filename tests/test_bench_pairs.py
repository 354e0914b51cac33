"""``scripts/bench_pairs.py`` argument handling (no benchmark run is started)."""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parent_tree(tmp_path):
    """A directory that passes for a parent checkout: it holds ``perfbench/run.py``."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    return str(tmp_path)


def test_workloads_default_to_every_benchmark_workload(tmp_path):
    bp = load_script()
    bench = bp.load_benchmark()
    parent = parent_tree(tmp_path)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert bp.parse_args(["--parent", parent, "--label", "x"], bench).workloads == names
    chosen = bp.parse_args(["--parent", parent, "--label", "x", "--workloads", f"{names[-1]},{names[0]},{names[-1]}"],
                           bench)
    assert chosen.workloads == [names[-1], names[0]]


def test_unknown_workload_is_a_usage_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--parent", parent_tree(tmp_path), "--label", "x",
         "--workloads", "wide-cli,no-such-workload"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "unknown workload no-such-workload" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("spelling", ["root", "dot", "trailing-slash", "symlink"])
def test_this_tree_as_parent_is_a_usage_error(tmp_path, spelling):
    # --parent . used to run the tree against itself and write a BENCH file that read as a measured pair
    if spelling == "symlink":
        os.symlink(ROOT, tmp_path / "link")
    parent = {"root": ROOT, "dot": ".", "trailing-slash": ROOT + os.sep, "symlink": str(tmp_path / "link")}[spelling]
    proc = subprocess.run([sys.executable, SCRIPT, "--parent", parent, "--label", "x"],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "is this tree" in proc.stderr and proc.stdout == ""


def test_host_reference_timings_are_read_from_the_run_output():
    # run.py prints the host reference timings on one line, before and after its passes
    bp = load_script()
    assert bp.host_ref_ms("host.ref_ms before [30.5, 31.0, 29.75]  after [40.0, 28.0, 33.25]") == 30.75
    assert bp.host_ref_ms("host.ref_ms before [12]  after []") == 12.0
