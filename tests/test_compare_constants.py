"""``scripts/compare_constants.py``: its closed-form constants table, and an end-to-end run
that prints finite calibrated thresholds.

The end-to-end run is a fresh process, as the script is meant to be run, so an
import or signature it relies on that breaks fails here.
"""
import importlib.util
import math
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "compare_constants.py")


def load_script():
    spec = importlib.util.spec_from_file_location("compare_constants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDerivedConstants:
    cc = load_script()

    def test_alpha_formula(self):
        dc = self.cc.derived_constants(d=2, horizon=11, eps=1.2, delta=0.05, l1=1.0, l2=1.0, eta=0.0, c_conc=2.0,
                                       n=1000)
        assert dc.alpha == pytest.approx(1.2 / 144.0, abs=1e-15)

    def test_zero_misspecification_propagates(self):
        dc = self.cc.derived_constants(d=2, horizon=3, eps=0.5, delta=0.05, l1=1.0, l2=2.0, eta=0.0, c_conc=1.5,
                                       n=500)
        assert dc.eta_bar == 0.0

    def test_lambda_from_bound_example(self):
        assert self.cc.lambda_from_bound(4, 2, 16.0) == pytest.approx(1.0, abs=1e-12)

    def test_table_is_finite_and_positive(self):
        dc = self.cc.derived_constants(d=3, horizon=4, eps=0.8, delta=0.1, l1=1.0, l2=3.0, eta=1e-4, c_conc=2.0,
                                       n=10_000)
        for name in ("l2_bar", "sqrt_lam", "lam", "eps_check", "beta_bar", "beta", "eps_bar", "eps_tilde"):
            assert math.isfinite(getattr(dc, name)) and getattr(dc, name) > 0
        assert dc.log_guess_cover > 0
        assert dc.d0 == 18  # 4 * 3 * ln ln 3 + 16 = 17.13, ceiled

    def test_lambda_consistent_with_bound(self):
        dc = self.cc.derived_constants(d=2, horizon=4, eps=1.0, delta=0.05, l1=1.0, l2=1.0, eta=0.0, c_conc=1.0,
                                       n=100)
        assert dc.lam == self.cc.lambda_from_bound(4, 2, dc.l2_bar)


def test_compare_constants_prints_the_table_and_finite_thresholds():
    proc = subprocess.run(
        [sys.executable, SCRIPT],
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
