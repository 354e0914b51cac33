"""The benchmark workloads still produce the reference rows.

Runs ``scripts/check_digests.py --seeds 0,7`` in a fresh process, so a sampler
or solver change that moves any benchmark row (and hence
``perfbench/digests.json``) fails here and not only in the benchmark.  Two
seeds give two datasets per workload, so a dependence on the order in which
rows or tails are grouped has two chances to show.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_seed_zero_digests_match():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "check_digests.py"), "--seeds", "0,7"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "6/6 digests match" in proc.stdout


def test_empty_seed_range_refused():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "check_digests.py"), "--seeds", "5-3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "names no seed" in proc.stderr and "digests match" not in proc.stdout
