"""Span recorder for traced benchmark runs.

While installed, the recorder replaces each function in ``TRACED`` with a
wrapper in every loaded ``skiprl`` module that binds it (``from .mdp import
sample_trajectories`` binds the name in ``harness`` and in ``learner`` as well
as in ``mdp``).  Calls inside a module resolve its globals at call time, so
the wrappers also see intra-module calls.  ``uninstall`` puts the originals
back, so untraced passes run the program untouched.

A span is ``[name, start, end, parent, pass_id, replicate]``; spans stay in
memory until ``dump`` writes them out.  Beside spans the recorder keeps, per
pass, the number of trajectories sampled and every ``SolveOutcome``.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute, replicate tag from the call's args)
TRACED = (
    ("mdp.sample_trajectories", "skiprl.mdp", "sample_trajectories", None),
    ("mdp.Dataset.from_trajectories", "skiprl.mdp", "Dataset.from_trajectories", None),
    ("mdp.optimal_policy", "skiprl.mdp", "optimal_policy", None),
    ("envs.random_linear_mdp", "skiprl.envs", "random_linear_mdp", None),
    ("envs.sample_policies", "skiprl.envs", "sample_policies", None),
    ("envs.estimate_misspecification", "skiprl.envs", "estimate_misspecification", None),
    ("design.build_true_guess", "skiprl.design", "build_true_guess", None),
    ("design.guess_grid", "skiprl.design", "guess_grid", None),
    ("oracles.concentrability", "skiprl.oracles", "concentrability", None),
    ("oracles.suboptimality", "skiprl.oracles", "suboptimality", None),
    ("skipping.dataset_omega", "skiprl.skipping", "dataset_omega", None),
    ("skipping.batch_skip_targets", "skiprl.skipping", "batch_skip_targets", None),
    ("learner.calibrate", "skiprl.learner", "calibrate", None),
    ("learner.lstsq_anchor", "skiprl.learner", "lstsq_anchor", None),
    ("learner.solve", "skiprl.learner", "solve", None),
    ("learner.build_confidence_sets", "skiprl.learner", "build_confidence_sets", None),
    ("learner.stage_covariance", "skiprl.learner", "stage_covariance", None),
    ("learner.tightness", "skiprl.learner", "tightness", None),
    ("learner.greedy_policy", "skiprl.learner", "greedy_policy", None),
    ("harness.sweep", "skiprl.harness", "sweep", None),
    ("harness.build_instance", "skiprl.harness", "build_instance", None),
    ("harness.calibrated_config", "skiprl.harness", "calibrated_config", None),
    ("harness.run_replicate", "skiprl.harness", "run_replicate", lambda args: f"n={args[3]}/r={args[4]}"),
    ("harness.collect", "skiprl.harness", "collect", None),
    ("harness.save_dataset", "skiprl.harness", "save_dataset", None),
    ("harness.load_dataset", "skiprl.harness", "load_dataset", None),
    ("harness.emit_plots", "skiprl.harness", "emit_plots", None),
)

ROOT_SPAN = "pass"


class Recorder:
    """Collects spans and per-pass counters; installs and removes the wrappers."""

    def __init__(self):
        self.spans = []
        self.trajectories = defaultdict(int)  # pass_id -> trajectories sampled
        self.outcomes = defaultdict(list)     # pass_id -> SolveOutcome list
        self.pass_id = None
        self.replicate = None
        self._stack = []
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id, self.replicate])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _after(self, name, result) -> None:
        if name == "mdp.sample_trajectories":
            self.trajectories[self.pass_id] += len(result)
        elif name == "learner.solve":
            self.outcomes[self.pass_id].append(result)

    def _wrap(self, name, fn, tag):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = rec.replicate
            if tag is not None:
                rec.replicate = tag(args)
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
                rec.replicate = saved
            rec._after(name, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("recorder already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "skiprl" or k.startswith("skiprl.")]
        for name, modname, attr, tag in TRACED:
            owner = sys.modules[modname]
            if "." in attr:  # a classmethod; the class object is shared by every importer
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, tag)))
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, tag)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id, replicate in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "pass": pass_id, "replicate": replicate,
                }) + "\n")


def layer_totals(spans, pass_id) -> dict:
    """Per span name within one pass: inclusive seconds, self seconds, calls.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs all spans, so children never overlap.
    """
    child = defaultdict(float)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for idx, (name, start, end, _, span_pass, _) in enumerate(spans):
        if span_pass != pass_id:
            continue
        entry = out[name]
        entry["s"] += end - start
        entry["self_s"] += end - start - child[idx]
        entry["calls"] += 1
    return out
