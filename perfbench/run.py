"""Outside-in benchmark of the skiprl pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run times ``setup_s`` in fresh
processes, builds the workload's instance, then repeats passes of the
workload (a closed loop, one client) for S seconds, checks every pass's
outputs and prints a report.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (``run_s``, the median
pass time; ``setup_s``; ``peak_rss_mb``).  With ``--trace 1`` passes
alternate between untraced and traced, and the metrics are the per-layer
ones computed from the traced passes' spans (see ``tracing.py``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import specs

os.environ.update(specs.PINNED_ENV)
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_REPEATS = 7
TRACED_SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60

# span name -> the stats reported for it, per traced pass
PASS_SPANS = {
    "mdp.sample_trajectories": ("s", "self_s", "calls"),
    "mdp.Dataset.from_trajectories": ("s",),
    "skipping.dataset_omega": ("s", "calls"),
    "skipping.batch_skip_targets": ("s", "calls"),
    "learner.calibrate": ("s", "self_s"),
    "learner.lstsq_anchor": ("s",),
    "learner.solve": ("s", "self_s"),
    "learner.build_confidence_sets": ("s", "self_s"),
    "learner.stage_covariance": ("s", "calls"),
    "learner.tightness": ("s",),
    "learner.greedy_policy": ("s",),
    "harness.save_dataset": ("s",),
    "harness.load_dataset": ("s",),
    "harness.emit_plots": ("s",),
    "oracles.suboptimality": ("s",),
}
# span name -> stats, from traced set-ups (build_instance)
SETUP_SPANS = (
    "envs.random_linear_mdp",
    "envs.sample_policies",
    "envs.estimate_misspecification",
    "design.build_true_guess",
    "design.guess_grid",
    "oracles.concentrability",
    "mdp.optimal_policy",
)
STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def host_ref_ms(repeats: int = 3) -> list:
    """Wall time of a fixed pure-Python loop; shows host speed drift."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        out.append((time.perf_counter() - start) * 1000.0)
    return out


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    import numpy

    commit = "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                              text=True, timeout=10, cwd=ROOT)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def stored_digest(workload: str, seed: int):
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


class Tally:
    """Attempted and failed replicates, with the messages of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label, cells, raised, problems):
        keys = {key for key, _ in problems}
        self.attempted += cells
        self.failed += cells if None in keys else min(cells, raised + len(keys))
        if raised:
            self.messages.append(f"{label}: {raised} replicate(s) raised")
        self.messages.extend(f"{label}: {key or 'pass'}: {msg}" for key, msg in problems)


def run_loop(wl, seconds, rec, tally, between):
    """Passes until the deadline; with a recorder, every other pass is traced.

    ``between()`` runs before each pass, outside its timing.
    """
    import tracing
    import workloads

    times = {False: [], True: []}
    digests = []
    last_rows = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        between()
        traced = rec is not None and i % 2 == 1
        if traced:
            rec.pass_id = i
            rec.install()
            root = rec.open(tracing.ROOT_SPAN)
        start = time.perf_counter()
        try:
            rows, raised = wl.run_pass()
            problems = []
        except Exception as err:  # the whole pass failed; record it and go on
            rows, raised = [], wl.cells
            problems = [(None, f"raised {type(err).__name__}: {err}")]
        elapsed = time.perf_counter() - start
        if traced:
            rec.close(root)
            rec.uninstall()
            rec.pass_id = None
        times[traced].append(elapsed)
        if rows:
            problems += wl.row_failures(rows)
            digest = workloads.rows_digest(rows)
            if digests and digest != digests[0]:
                problems.append((None, f"outputs differ from pass 0 ({digest[:12]} vs {digests[0][:12]})"))
            digests.append(digest)
            last_rows = rows
        tally.record(f"pass {i}", wl.cells, raised, problems)
        i += 1
        enough = rec is None or (times[True] and times[False])
        if time.perf_counter() >= deadline and enough:
            return times, digests, last_rows


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def mean_or_zero(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(rec, wl, times, ref_ms, digest_match, rows, tally, distinct) -> dict:
    import tracing

    traced_ids = sorted({s[4] for s in rec.spans if isinstance(s[4], int)})
    totals = {pid: tracing.layer_totals(rec.spans, pid) for pid in traced_ids}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    for span, stats in PASS_SPANS.items():
        for stat in stats:
            put(f"{span}.{stat}", median_or_zero([totals[p][span][stat] for p in traced_ids]), STAT_UNITS[stat])
    put("mdp.trajectories", median_or_zero([rec.trajectories[p] for p in traced_ids]), "count")
    put("mdp.distinct_path_fraction", distinct, "ratio")

    outcomes = [o for p in traced_ids for o in rec.outcomes[p]]
    stage_sets = [s for o in outcomes for r in o.reports if r.sets is not None
                  for s in r.sets.stage_sets if s is not None]
    anchors = [s.anchors.shape[0] for s in stage_sets]
    members = [s.members.shape[0] for s in stage_sets]
    put("learner.anchors_per_stage", mean_or_zero(anchors), "count")
    put("learner.members_per_stage", mean_or_zero(members), "count")
    put("learner.singleton_stage_fraction",
        sum(m == 1 for m in members) / len(members) if members else 0.0, "ratio")
    guesses = sum(len(o.reports) for o in outcomes)
    put("learner.feasible_guess_fraction",
        sum(o.feasible_count for o in outcomes) / guesses if guesses else 0.0, "ratio")
    put("learner.all_rejected",
        median_or_zero([sum(o.all_rejected for o in rec.outcomes[p]) for p in traced_ids]), "count")

    # orchestration: the pass root and harness spans other than the reported ones
    harness_self = []
    for p in traced_ids:
        t = totals[p]
        harness_self.append(t[tracing.ROOT_SPAN]["self_s"] + sum(
            v["self_s"] for k, v in t.items() if k.startswith("harness.") and k not in PASS_SPANS))
    put("harness.self_s", median_or_zero(harness_self), "s")
    put("harness.dataset_bytes", wl.dataset_bytes, "B")

    setup_totals = [tracing.layer_totals(rec.spans, f"setup-{k}") for k in range(TRACED_SETUP_REPEATS)]
    for span in SETUP_SPANS:
        put(f"{span}.s", median_or_zero([t[span]["s"] for t in setup_totals]), "s")

    put("trace.overhead_s", median_or_zero(times[True]) - median_or_zero(times[False]), "s")
    put("host.ref_ms", statistics.median(ref_ms), "ms")
    put("outputs.digest_match", digest_match, "count")
    put("mean_gap", mean_or_zero([r.gap for r in rows]), "value")
    put("failed_fraction", tally.failed / tally.attempted, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-s{args.seed}")
    ref_ms = host_ref_ms()

    import tracing
    import workloads

    wl = workloads.Workload(args.workload, args.seed, out_dir)
    rec = tracing.Recorder() if args.trace else None
    if rec is None:
        wl.setup()
    else:
        for k in range(TRACED_SETUP_REPEATS):
            rec.pass_id = f"setup-{k}"
            rec.install()
            try:
                wl.setup()
            finally:
                rec.uninstall()
                rec.pass_id = None

    # Untraced runs time set-up in fresh processes spread over the timed loop,
    # so that the median sees the same host conditions as the passes.
    setup_samples = []

    def probe():
        if rec is None and len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(probe_setup(args.workload, args.seed))

    tally = Tally()
    times, digests, rows = run_loop(wl, args.seconds, rec, tally, probe)
    for _ in range(SETUP_REPEATS):
        probe()

    if rows and wl.kind == "sweep":  # after the timed loop
        try:
            problems = wl.rerun_failures(rows)
        except Exception as err:  # a failed check, reported like the others
            problems = [(None, f"raised {type(err).__name__}: {err}")]
        tally.record("re-run", len(wl.n_values), 0, problems)
    distinct = wl.distinct_path_fraction() if rec is not None else None
    if os.path.exists(wl.data_path):  # megabytes of JSONL nobody reads after the run
        os.remove(wl.data_path)
    ref_ms += host_ref_ms()

    expected = stored_digest(args.workload, args.seed)
    digest = digests[0] if digests else None
    digest_match = int(expected is not None and digest == expected)
    if expected is None:
        digest_status = "no reference digest for this seed"
    else:
        digest_status = "matches the reference digest" if digest_match else "DIFFERS from the reference digest"

    if rec is None:
        metrics = {
            "run_s": {"value": statistics.median(times[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(rec, wl, times, ref_ms, digest_match, rows, tally, distinct)
        rec.dump(os.path.join(out_dir, "spans.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    print(f"setup_s samples {[round(x, 4) for x in setup_samples]}")
    print(f"passes untraced {[round(x, 4) for x in times[False]]}  traced {[round(x, 4) for x in times[True]]}")
    print(f"host.ref_ms before {[round(x, 2) for x in ref_ms[:3]]}  after {[round(x, 2) for x in ref_ms[3:]]}")
    print(f"outputs digest {digest}  ({digest_status})")
    print(f"replicates attempted {tally.attempted}  failed {tally.failed}")
    for msg in tally.messages:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
