"""``scripts/compare_constants.py`` runs end to end and prints finite calibrated thresholds.

The script runs in a fresh process, as it is meant to be run, so an import or
signature it relies on that breaks fails here.
"""
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_compare_constants_prints_the_table_and_finite_thresholds():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "compare_constants.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    for label in ("instance: d=2 H=3", "closed-form table:", "log-cardinality of the guess cover",
                  "calibrated thresholds at the same n:"):
        assert label in out, label
    calibrated = out.split("calibrated thresholds at the same n:")[1]
    values = dict(re.findall(r"^\s+(beta|eps_bar)\s+= (\S+)$", calibrated, flags=re.MULTILINE))
    assert set(values) == {"beta", "eps_bar"}
    assert all(math.isfinite(float(v)) and float(v) > 0 for v in values.values()), values
