#!/usr/bin/env python3
"""Check that the benchmark workloads still produce the reference rows.

    python3 scripts/check_digests.py [--seeds 0-19 | --seeds 0,7]

Run from anywhere.  For every workload and seed it runs one untimed pass with
``perfbench/make_digests.one_pass`` (which requires no raised replicate and
no ``row_failures``), then compares ``workloads.rows_digest`` of its rows with
``perfbench/digests.json``.  It prints one line per (workload, seed) and exits
1 on any mismatch.  It only reads the digest table; ``make_digests.py``
writes it.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

# make_digests applies specs.PINNED_ENV before numpy is first imported
from make_digests import one_pass  # noqa: E402
from run import stored_digest  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text: str) -> list:
    """"0-19", "3" or "0,7" to the seeds they name; a range naming no seed is refused."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        named = range(int(lo), int(hi or lo) + 1)
        if not named:
            raise argparse.ArgumentTypeError(f"seed range {part!r} names no seed")
        seeds.extend(named)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-19"))
    args = parser.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in specs.WORKLOADS:
            for seed in args.seeds:
                try:
                    digest = workloads.rows_digest(one_pass(name, seed, tmp))
                    ok = digest == stored_digest(name, seed)
                except RuntimeError as err:
                    digest, ok = str(err), False
                failed += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {name} seed {seed}: {digest}", flush=True)
    total = len(specs.WORKLOADS) * len(args.seeds)
    print(f"{total - failed}/{total} digests match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
