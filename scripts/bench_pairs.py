#!/usr/bin/env python3
"""Paired benchmark of a parent tree against this one, written as a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --pairs 10 --seconds 15 --seed 0 --label NAME \
        [--workloads NAME[,NAME]]

``DIR`` is a checkout of the parent commit (a ``git clone`` or ``git
archive`` of it); this tree itself, under any path, is refused.  For every
workload in ``BENCHMARK.json`` (or only those ``--workloads`` names) the
script alternates ``perfbench/run.py --trace 0`` runs between the parent and this
tree, parent first in even pairs and this tree first in odd ones, then makes
one ``--trace 1`` run per side.  It writes
``results/bench/BENCH_<label>.json`` with, per workload and end-to-end
metric, each side's runs, median and quartiles, the pairs this tree won, and
whether the gain rule and the regression bound hold; beside them each
untraced run's ``host.ref_ms`` (the median of the host reference timings
``run.py`` prints before and after its passes), so a side whose host ran
slow shows in the same pairs; the traced per-layer
medians of both sides; failures and digest status; both git hashes, the
numpy version and the core count.  Standard library only; one benchmark
process runs at a time.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv, bench: dict):
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workloads to run (default: every workload in BENCHMARK.json)")
    args = parser.parse_args(argv)
    args.workloads = list(dict.fromkeys(w.strip() for w in args.workloads.split(",") if w.strip()))
    unknown = [w for w in args.workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(names)}")
    if not args.workloads:
        parser.error("--workloads names no workload")
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    if not os.path.isfile(os.path.join(args.parent, "perfbench", "run.py")):
        parser.error(f"{args.parent} holds no perfbench/run.py")
    if os.path.realpath(args.parent) == os.path.realpath(ROOT):
        parser.error(f"--parent {args.parent} is this tree; a pair needs a separate checkout of the parent commit")
    if not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error("--label may hold only letters, digits, '-' and '_'")
    return args


def git_state(tree: str) -> dict:
    """HEAD of ``tree`` and whether its checkout differs from it."""
    def git(*cmd):
        proc = subprocess.run(["git", "-C", tree, *cmd], capture_output=True, text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"git": head or "unavailable", "dirty": None if status is None else bool(status)}


def run_bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its JSON line, provenance and digest status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("provenance "):
            result["provenance"] = json.loads(line[len("provenance "):])
        elif line.startswith("outputs digest "):
            result["digest_status"] = line[line.rfind("(") + 1 : -1]
        elif line.startswith("host.ref_ms "):
            result["host_ref_ms"] = host_ref_ms(line)
    return result


def host_ref_ms(line: str) -> float:
    """Median of the timings on ``run.py``'s ``host.ref_ms before [...]  after [...]`` line."""
    return statistics.median(float(x) for x in re.findall(r"\d+(?:\.\d+)?", line[len("host.ref_ms "):]))


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, parent: list, change: list) -> dict:
    """Both sides of one lower-is-better end-to-end metric over paired runs.

    ``gain`` is the claim rule: this tree lower in at least 9/10 of the pairs
    (ties count for neither) and the medians apart by more than the parent's
    quartile spread.  ``within_bound`` holds when this tree's median is no
    worse than the parent's by more than the relative bound of BENCHMARK.json.
    """
    p, c = summary(parent), summary(change)
    wins = sum(b < a for a, b in zip(parent, change))
    gap = p["median"] - c["median"]
    return {
        "unit": metric["unit"],
        "parent": p,
        "change": c,
        "change_lower_pairs": wins,
        "pairs": len(parent),
        "relative_change": -gap / p["median"] if p["median"] else None,
        "gain": wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"],
        "within_bound": c["median"] <= p["median"] * (1.0 + metric["bound"]),
        "bound": metric["bound"],
    }


def main(argv=None) -> int:
    bench = load_benchmark()
    args = parse_args(argv, bench)
    metrics = bench["end_to_end"]
    if any(m["better"] != "lower" for m in metrics):
        raise SystemExit("bench_pairs compares lower-is-better end-to-end metrics only")
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    provenance = {}
    out = {}
    for name in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_bench(trees[side], name, args.seed, args.seconds, trace=0)
                provenance.setdefault(side, result.get("provenance"))
                runs[side].append(result)
                m = result["metrics"]
                print(f"{name} pair {i} {side}: run_s {m['run_s']['value']:.4f}  setup_s {m['setup_s']['value']:.4f}"
                      f"  peak_rss_mb {m['peak_rss_mb']['value']:.2f}  host.ref_ms {result['host_ref_ms']:.2f}"
                      f"  failed {result['failed']}", flush=True)
        traced = {side: run_bench(trees[side], name, args.seed, args.seconds, trace=1) for side in trees}
        out[name] = {
            "end_to_end": {
                m["name"]: compare(m, *[[r["metrics"][m["name"]]["value"] for r in runs[side]] for side in trees])
                for m in metrics
            },
            "host_ref_ms": {side: summary([r["host_ref_ms"] for r in runs[side]]) for side in trees},
            "failed": {side: sum(r["failed"] for r in runs[side]) + traced[side]["failed"] for side in trees},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) + traced[side]["attempted"] for side in trees},
            "digest_status": {side: sorted({r.get("digest_status") for r in runs[side]}) for side in trees},
            "per_layer": {
                key: {side: traced[side]["metrics"][key]["value"] for side in trees if key in traced[side]["metrics"]}
                for key in traced["change"]["metrics"]
            },
        }
    doc = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed, "workloads": args.workloads,
                     "command": "perfbench/run.py, alternating parent/change; one --trace 1 run per side"},
        "parent": {**(provenance.get("parent") or {}), **git_state(trees["parent"])},
        "change": {**(provenance.get("change") or {}), **git_state(trees["change"])},
        "workloads": out,
    }
    path = os.path.join(ROOT, "results", "bench", f"BENCH_{args.label}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, w in out.items():
        for key, c in w["end_to_end"].items():
            print(f"{name:18s} {key:12s} {c['parent']['median']:.4f} -> {c['change']['median']:.4f} "
                  f"[{c['parent']['q1']:.4f}, {c['parent']['q3']:.4f}]  lower {c['change_lower_pairs']}/{c['pairs']}"
                  f"  gain {c['gain']}  within_bound {c['within_bound']}")
        ref = w["host_ref_ms"]
        print(f"{name:18s} {'host.ref_ms':12s} {ref['parent']['median']:.2f} -> {ref['change']['median']:.2f}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
