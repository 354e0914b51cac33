#!/usr/bin/env python3
"""Traced memory peaks of sampling, calibration and solving on one instance.

    python3 scripts/mem_probe.py --config scripts/acceptance_config.json --n 100000 [--replicates 10]

The config's instance is built first, untraced.  Each phase then runs in its
own ``tracemalloc`` session, which counts numpy's buffers exactly, so a peak
does not depend on the host's allocator or on what ran before:

- ``calibrate``: ``learner.calibrate`` at the single n with the config's
  learner settings, delta and seeds, over ``--replicates`` held-out
  replicates (default: the config's count), whether or not the config
  enables calibration;
- ``sample``: ``harness.collect`` of n trajectories (replicate 0), and the
  bytes that dataset still holds once its ``tail_paths`` are built;
- ``solve``: ``learner.solve`` on that dataset with the calibrated beta and
  eps_bar, counting only what the solve allocates.

Each line gives the peak in MB and in bytes per trajectory.  Standard library
and numpy only; run it from anywhere.
"""
from __future__ import annotations

import argparse
import pathlib
import sys
import tracemalloc
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from skiprl import harness, learner  # noqa: E402


def traced(fn):
    """``(result, peak bytes, bytes still held)`` of ``fn()`` in a fresh tracemalloc session."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def report(name: str, nbytes: int, n: int) -> None:
    print(f"{name:<18} {nbytes / 1e6:10.2f} MB  {nbytes / n:9.1f} B/row")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--n", type=int, required=True, help="trajectories per dataset")
    parser.add_argument("--replicates", type=int, default=None, help="held-out calibration replicates")
    args = parser.parse_args(argv)
    cfg = harness.load_config(args.config)
    inst = harness.build_instance(cfg)
    spec, n = cfg.calibration, args.n
    replicates = spec.replicates if args.replicates is None else args.replicates

    (cal,), peak, _ = traced(lambda: learner.calibrate(
        inst.mdp, inst.featmap, inst.behavior, inst.true_guess, [n], cfg.learn, replicates, spec.delta,
        [cfg.data.seed, spec.seed_offset]))
    print(f"n = {n}, {replicates} calibration replicates: beta = {cal.beta!r}, eps_bar = {cal.eps_bar!r}")
    report("calibrate peak", peak, n)

    def sample():
        ds = harness.collect(inst, n, [cfg.data.seed, 0])
        _, sampled_peak = tracemalloc.get_traced_memory()
        ds.tail_paths
        return ds, sampled_peak

    (ds, peak), _, held = traced(sample)
    report("sample peak", peak, n)
    report("dataset held", held, n)

    lc = replace(cfg.learn, beta=cal.beta, eps_bar=cal.eps_bar)
    outcome, peak, _ = traced(lambda: learner.solve(ds, inst.guesses, lc, inst.featmap))
    report("solve peak", peak, n)
    print(f"chosen guess {outcome.chosen_guess}, feasible {outcome.feasible_count}/{len(outcome.reports)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
