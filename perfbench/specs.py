"""Workload specifications: experiment configs and per-pass sizes.

This module imports nothing from ``skiprl`` or numpy, so the set-up probe can
read a workload's config before it starts its timer.  The benchmark seed
changes only the data seed and the calibration seed offset; the environment,
guess grid and learner seeds are part of the workload.
"""
from __future__ import annotations

import copy

# One process, one BLAS thread: set before numpy is first imported.
PINNED_ENV = {
    "SKIPRL_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The instance of scripts/acceptance_config.json.  Calibration uses 3
# held-out replicates instead of 10 and the sweep 1 replicate instead of 20,
# so that one pass takes seconds and a run holds several passes.
_ACCEPTANCE = {
    "env": {
        "d": 2,
        "horizon": 3,
        "stage_sizes": [1, 4, 4, 1],
        "num_actions": 2,
        "reward_kind": "deterministic-mean",
        "seed": 10,
    },
    "data": {"n": 5000, "behavior": "uniform", "seed": 101},
    "learn": {
        "lam": 1.0,
        "alpha": 0.2,
        "grid_per_stage": 8,
        "combo_cap": 64,
        "theta_radius": 1000000.0,
        "seed": 0,
    },
    "calibration": {"enabled": True, "replicates": 3, "delta": 0.05, "seed_offset": 1000000},
    "guesses": {"count": 16, "spread": 0.3, "seed": 11},
    "sweep": {"n_values": [100, 1000, 10000], "replicates": 1},
    "policy_sample": 200,
    "policy_sample_seed": 5,
}


def _netted() -> dict:
    doc = copy.deepcopy(_ACCEPTANCE)
    doc["calibration"]["enabled"] = False  # beta=10, eps_bar=1 (LearnSpec defaults)
    doc["learn"]["theta_radius"] = 5.0
    doc["learn"]["net_spacing"] = 0.5
    doc["sweep"] = {"n_values": [1000], "replicates": 4}
    return doc


_WIDE = {
    "env": {
        "d": 4,
        "horizon": 5,
        "stage_sizes": [1, 8, 8, 8, 8, 1],
        "num_actions": 3,
        "reward_kind": "bernoulli-mean",
        "seed": 10,
    },
    "data": {"n": 2000, "behavior": "eps-greedy", "mix": 0.3, "seed": 101},
    "learn": {"theta_radius": 1000000.0},
    "calibration": {"enabled": True, "replicates": 3, "delta": 0.05, "seed_offset": 1000000},
    "guesses": {"count": 16, "spread": 0.3, "seed": 11},
    "sweep": {"n_values": [2000], "replicates": 3},
    "policy_sample": 200,
    "policy_sample_seed": 5,
}

# name -> (kind, config document).  "sweep" passes call harness.sweep and
# harness.emit_plots; "cli" passes calibrate once, then run collect, save,
# load, solve and eval for each of sweep.replicates replicates.
WORKLOADS = {
    "sweep-acceptance": ("sweep", _ACCEPTANCE),
    "netted-sets": ("sweep", _netted()),
    "wide-cli": ("cli", _WIDE),
}


def config_doc(name: str, seed: int) -> dict:
    """The workload's config document with the benchmark seed applied."""
    doc = copy.deepcopy(WORKLOADS[name][1])
    doc["data"]["seed"] += seed
    doc["calibration"]["seed_offset"] += seed
    return doc
