"""``scripts/mem_probe.py`` end to end on the acceptance config at a small n.

The script runs in a fresh process, as it is meant to be run, so an import or
signature it relies on that breaks fails here.
"""
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "mem_probe.py")
CONFIG = os.path.join(ROOT, "scripts", "acceptance_config.json")


def test_mem_probe_reports_every_phase():
    n = 300
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--config", CONFIG, "--n", str(n), "--replicates", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    assert re.search(rf"^n = {n}, 2 calibration replicates: beta = \S+, eps_bar = \S+$", out, flags=re.MULTILINE), out
    for name in ("calibrate peak", "sample peak", "dataset held", "solve peak"):
        line = re.search(rf"^{name} +(\S+) MB +(\S+) B/row$", out, flags=re.MULTILINE)
        assert line, (name, out)
        mb, per_row = map(float, line.groups())
        assert math.isfinite(mb) and mb >= 0 and per_row > 0, line.group(0)
    assert re.search(r"^chosen guess \d+, feasible \d+/16$", out, flags=re.MULTILINE), out
