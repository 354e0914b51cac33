"""Workload runners: one timed pass each, plus the checks on its outputs.

Each workload is a closed loop with one client: the next pass starts when the
previous one has written its outputs.  Passes call ``skiprl`` only through
module attributes (``harness.sweep``, not a name bound at import), so the
span recorder's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import os
import time
from dataclasses import replace

import numpy as np

from skiprl import harness, learner, mdp, oracles

import specs

GAP_TOL = 1e-12


class Workload:
    """A workload bound to one seed and output directory."""

    def __init__(self, name: str, seed: int, out_dir: str):
        self.kind = specs.WORKLOADS[name][0]
        self.cfg = harness.ExperimentConfig.from_dict(specs.config_doc(name, seed))
        self.cfg.output_dir = out_dir
        self.out_dir = out_dir
        self.inst = None
        self.calibrations = {}
        self.policies = []       # output policy per row of the last "cli" pass
        self.dataset_bytes = 0   # bytes of JSONL the last pass wrote
        self.data_path = os.path.join(out_dir, "dataset.jsonl")
        os.makedirs(out_dir, exist_ok=True)

    @property
    def n_values(self) -> list:
        return list(self.cfg.sweep.n_values)

    @property
    def cells(self) -> int:
        """Replicates one pass attempts."""
        return len(self.n_values) * self.cfg.sweep.replicates

    def setup(self) -> None:
        self.inst = harness.build_instance(self.cfg)

    # -- the timed pass ------------------------------------------------------

    def run_pass(self) -> tuple:
        """One pass; returns (rows, replicates that raised)."""
        if self.kind == "sweep":
            result = harness.sweep(self.cfg)
            harness.emit_plots(result, self.out_dir)
            self.calibrations = result.calibrations
            return result.rows, 0
        return self._cli_pass()

    def _cli_pass(self) -> tuple:
        cfg, inst = self.cfg, self.inst
        (n,) = self.n_values
        lc, cal = harness.calibrated_config(cfg, inst, n)
        self.calibrations = {n: cal}
        data_path = self.data_path
        rows, policies, raised = [], [], 0
        self.dataset_bytes = 0
        for r in range(cfg.sweep.replicates):
            start = time.perf_counter()
            try:
                harness.save_dataset(harness.collect(inst, n, [cfg.data.seed, r]), data_path)
                self.dataset_bytes += os.path.getsize(data_path)
                ds = mdp.Dataset.from_trajectories(harness.load_dataset(data_path))
                outcome = learner.solve(ds, inst.guesses, lc, inst.featmap)
                gap = oracles.suboptimality(inst.mdp, outcome.policy)
            except Exception:  # counted as a failed replicate; the loop goes on
                raised += 1
                continue
            rows.append(harness.ReplicateRecord(
                n=n, seed=r, gap=gap, chosen_guess=outcome.chosen_guess,
                feasible_count=outcome.feasible_count, tightness_max=outcome.tightness_max,
                wall_ms=(time.perf_counter() - start) * 1000.0,
            ))
            policies.append(outcome.policy)
        harness.write_rows_csv(rows, os.path.join(self.out_dir, "rows.csv"))
        self.policies = policies
        return rows, raised

    # -- checks, outside the timed pass ----------------------------------------

    def independent_gap(self, policy) -> float:
        """v* - v^pi at the start state from mdp's own DP, not oracles.suboptimality."""
        _, star = mdp.optimal_policy(self.inst.mdp)
        return float(star.v[0][0] - mdp.evaluate_policy(self.inst.mdp, policy).v[0][0])

    def row_failures(self, rows) -> list:
        """(row key or None for the whole pass, message) for each broken invariant."""
        problems = []
        guesses = len(self.inst.guesses)
        for r in rows:
            key = (r.n, r.seed)
            if not -GAP_TOL <= r.gap <= self.inst.vstar + GAP_TOL:
                problems.append((key, f"gap {r.gap!r} outside [0, v*={self.inst.vstar!r}]"))
            if not 0 <= r.chosen_guess < guesses:
                problems.append((key, f"chosen_guess {r.chosen_guess} outside 0..{guesses - 1}"))
            if not 0 <= r.feasible_count <= guesses:
                problems.append((key, f"feasible_count {r.feasible_count} above {guesses}"))
        keys = [(r.n, r.seed) for r in rows]
        if keys != sorted(keys):
            problems.append((None, "rows are not sorted by (n, replicate)"))
        if self.kind == "sweep" and len(rows) != self.cells:
            problems.append((None, f"{len(rows)} rows, expected {self.cells}"))
        if self.kind == "cli":
            for r, policy in zip(rows, self.policies):
                gap = self.independent_gap(policy)
                if abs(gap - r.gap) > GAP_TOL:
                    problems.append(((r.n, r.seed), f"reported gap {r.gap!r}, re-evaluated {gap!r}"))
        return problems

    def rerun_failures(self, rows) -> list:
        """Sweeps: (key, message) when replicate 0 of an n, re-run through
        run_replicate and re-evaluated, disagrees with the sweep's row."""
        problems = []
        base = harness.learner_config(self.cfg, self.cfg.env.d)
        for n in self.n_values:
            cal = self.calibrations[n]
            lc = replace(base, beta=cal["beta"], eps_bar=cal["eps_bar"])
            record, outcome = harness.run_replicate(self.cfg, self.inst, lc, n, 0)
            gap = self.independent_gap(outcome.policy)
            row = next((r for r in rows if (r.n, r.seed) == (n, 0)), None)
            if row is None or abs(record.gap - gap) > GAP_TOL or abs(row.gap - gap) > GAP_TOL:
                problems.append(((n, 0), f"re-run gap {record.gap!r}, re-evaluated {gap!r}, "
                                         f"sweep row {None if row is None else row.gap!r}"))
        return problems

    def distinct_path_fraction(self) -> float:
        """Distinct (states, actions, rewards) rows over n, replicate 0 at the largest n."""
        n = max(self.n_values)
        ds = harness.collect(self.inst, n, [self.cfg.data.seed, 0])
        paths = np.hstack([ds.states, ds.actions, ds.rewards])
        return np.unique(paths, axis=0).shape[0] / n


def rows_digest(rows) -> str:
    """sha256 of every row's columns except wall_ms, floats written with repr."""
    h = hashlib.sha256()
    for r in rows:
        h.update(f"{r.n},{r.seed},{r.gap!r},{r.chosen_guess},{r.feasible_count},{r.tightness_max!r}\n".encode())
    return h.hexdigest()
