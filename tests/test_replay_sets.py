"""``scripts/replay_sets.py`` end to end on the netted-sets workload with one replay.

The script runs in a fresh process, as it is meant to be run, so an import or
signature it relies on that breaks fails here.
"""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "replay_sets.py")


def run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True, timeout=300)


def test_netted_sets_replay_prints_times_and_hash():
    proc = run("--workloads", "netted-sets", "--k", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "netted-sets: 4 calls", proc.stdout
    assert re.fullmatch(r" +16 guesses: +4 calls, best +\d+\.\d{3} ms per pass", lines[1]), proc.stdout
    assert re.fullmatch(r"  sha256 [0-9a-f]{64}", lines[2]) and len(lines) == 3, proc.stdout


def test_bad_arguments_are_usage_errors():
    for args in (["--k", "0"], ["--workloads", "no-such-workload"]):
        proc = run(*args)
        assert proc.returncode == 2 and "error:" in proc.stderr, (args, proc.stderr)
