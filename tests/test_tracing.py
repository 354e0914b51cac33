"""Guard for the benchmark's trace mode.

``perfbench/tracing.py`` wraps named ``skiprl`` functions in every module
that binds them.  A refactor that renames a traced function, or routes a call
around it (say, through a private alias), would silently drop its span; this
test runs a tiny solve, calibration and reference anchor (``lstsq_anchor``,
the one caller of the all-rows ``dataset_omega`` and ``batch_skip_targets``)
under the recorder and asserts the solver layers still show up, and that
uninstalling restores the program.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from skiprl import learner
from skiprl.design import build_true_guess, guess_grid
from skiprl.envs import sample_policies
from skiprl.mdp import Dataset, sample_trajectories, uniform_policy

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

REQUIRED_SPANS = {
    "learner.solve",
    "learner.calibrate",
    "learner.build_confidence_sets",
    "learner.stage_covariance",
    "learner.tightness",
    "learner.lstsq_anchor",
    "skipping.dataset_omega",
    "skipping.batch_skip_targets",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name bound in a loaded skiprl module, plus the traced classmethod."""
    out = {("Dataset", "from_trajectories"): Dataset.__dict__["from_trajectories"]}
    for modname, mod in list(sys.modules.items()):
        if modname == "skiprl" or modname.startswith("skiprl."):
            out.update({(modname, key): value for key, value in vars(mod).items()})
    return out


def test_recorder_sees_solver_layers_and_uninstalls(fixed_instance):
    mdp, fm = fixed_instance
    behavior = uniform_policy(mdp)
    guess = build_true_guess(mdp, fm, sample_policies(mdp, 20, 0))
    config = learner.LearnerConfig(lam=1.0, beta=5.0, eps_bar=1.0, theta_radius=100.0, alpha=0.2)
    ds = sample_trajectories(mdp, behavior, 40, 7, fm)
    before = _bindings()
    rec = _load_tracing().Recorder()
    rec.install()
    try:
        learner.solve(ds, guess_grid(guess, 0.3, 3, seed=2), config, fm)
        learner.calibrate(mdp, fm, behavior, guess, [40], config, replicates=2, delta=0.5, seed=1)
        learner.lstsq_anchor(ds, 0, guess, np.zeros((mdp.horizon, 2)), config)
        recorded = {span[0] for span in rec.spans}
        assert REQUIRED_SPANS <= recorded, f"no spans for {sorted(REQUIRED_SPANS - recorded)}"
    finally:
        rec.uninstall()
        after = _bindings()
        moved = [key for key, value in before.items() if after.get(key) is not value]
        assert not moved, f"not restored after uninstall: {moved}"
