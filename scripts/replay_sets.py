#!/usr/bin/env python3
"""Replay every confidence-set build of one benchmark pass, timed and hashed.

    python3 scripts/replay_sets.py [--workloads NAME[,NAME]] [--k 15] [--seed 0]

Run from anywhere.  For each workload (default: all of ``perfbench/specs.py``)
it runs one untimed pass with ``perfbench/make_digests.one_pass`` while
recording the arguments of every ``learner.build_confidence_sets`` call, then
replays each call ``--k`` times on those same datasets.  It prints, per guess
count, the number of calls and the sum over them of each call's best time,
which is that guess count's share of one pass; and a sha256 over every
replayed call's anchors, members, combo and tail counts, tightness and empty
stages, in call order.  Two trees that build the same sets print the same
hashes, so running this script from a checkout of each compares the layer's
time with far less noise than whole passes, and its bits at once.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

# make_digests applies specs.PINNED_ENV before numpy is first imported
from make_digests import one_pass  # noqa: E402
import numpy as np  # noqa: E402
import specs  # noqa: E402
from skiprl import learner  # noqa: E402


def recorded_calls(name: str, seed: int) -> list:
    """The ``(args, kwargs)`` of each ``build_confidence_sets`` call of one pass, in order."""
    calls, real = [], learner.build_confidence_sets

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    learner.build_confidence_sets = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            one_pass(name, seed, tmp)
    finally:
        learner.build_confidence_sets = real
    return calls


def fold(digest, result: list) -> None:
    """Add one call's ``ConfidenceSets`` list to ``digest``."""
    for sets in result:
        digest.update(json.dumps([sets.empty_stage, len(sets.stage_sets)]).encode())
        digest.update(np.array(sets.tightness, dtype=float).tobytes())
        for stage in sets.stage_sets:
            if stage is None:
                digest.update(b"none")
                continue
            digest.update(stage.anchors.tobytes())
            digest.update(stage.members.tobytes())
            digest.update(json.dumps(stage.diagnostics(), sort_keys=True).encode())


def replay(calls: list, k: int) -> tuple:
    """Per guess count ``[calls, summed best seconds]``, and the hex digest of the results."""
    per_count = defaultdict(lambda: [0, 0.0])
    digest = hashlib.sha256()
    for args, kwargs in calls:
        best = float("inf")
        for _ in range(k):
            start = time.perf_counter()
            result = learner.build_confidence_sets(*args, **kwargs)
            best = min(best, time.perf_counter() - start)
        fold(digest, result)
        entry = per_count[len(args[1])]
        entry[0] += 1
        entry[1] += best
    return dict(per_count), digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(specs.WORKLOADS))
    parser.add_argument("--k", type=int, default=15, help="replays of each call; the best is kept")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error(f"--k must be >= 1, got {args.k}")
    for name in args.workloads.split(","):
        if name not in specs.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
        per_count, hexdigest = replay(recorded_calls(name, args.seed), args.k)
        print(f"{name}: {sum(c for c, _ in per_count.values())} calls", flush=True)
        for guesses, (count, seconds) in sorted(per_count.items()):
            print(f"  {guesses:>3} guesses: {count:>3} calls, best {seconds * 1e3:8.3f} ms per pass", flush=True)
        print(f"  sha256 {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
