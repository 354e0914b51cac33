"""``scripts/bench_pairs.py`` argument handling (no benchmark run is started)."""
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_default_to_every_benchmark_workload():
    bp = load_script()
    bench = bp.load_benchmark()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert bp.parse_args(["--parent", ROOT, "--label", "x"], bench).workloads == names
    chosen = bp.parse_args(["--parent", ROOT, "--label", "x", "--workloads", f"{names[-1]},{names[0]},{names[-1]}"], bench)
    assert chosen.workloads == [names[-1], names[0]]


def test_unknown_workload_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--parent", ROOT, "--label", "x", "--workloads", "wide-cli,no-such-workload"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "unknown workload no-such-workload" in proc.stderr and proc.stdout == ""


def test_host_reference_timings_are_read_from_the_run_output():
    # run.py prints the host reference timings on one line, before and after its passes
    bp = load_script()
    assert bp.host_ref_ms("host.ref_ms before [30.5, 31.0, 29.75]  after [40.0, 28.0, 33.25]") == 30.75
    assert bp.host_ref_ms("host.ref_ms before [12]  after []") == 12.0
