"""Write the table of output digests that ``run.py`` compares each run against.

    python3 perfbench/make_digests.py

Run from the repository root at the commit whose outputs are the reference.
For every workload and seeds 0..99 it runs one untimed pass and stores
``workloads.rows_digest`` of its rows in ``perfbench/digests.json``.  When
``results/acceptance/rows.csv`` exists it also compares, at seed 0, the
sweep-acceptance rows (and the same rows with the acceptance config's full
10-replicate calibration) with that file, column by column except wall_ms,
and records the outcome.  Regenerate the table whenever ``specs.py`` changes.
"""
from __future__ import annotations

import csv
import json
import os
import sys
import tempfile

import specs

os.environ.update(specs.PINNED_ENV)
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the pinned environment and src on the path)

COLUMNS = ("n", "seed", "gap", "chosen_guess", "feasible_count", "tightness_max")
SEEDS = 100
ROWS_CSV = os.path.join("results", "acceptance", "rows.csv")
OUT = os.path.join(HERE, "digests.json")


def one_pass(name: str, seed: int, out_dir: str, calibration_replicates=None) -> list:
    wl = workloads.Workload(name, seed, out_dir)
    if calibration_replicates is not None:
        wl.cfg.calibration.replicates = calibration_replicates
    wl.setup()
    rows, raised = wl.run_pass()
    if raised or wl.row_failures(rows):
        raise RuntimeError(f"{name} seed {seed}: the pass failed its checks")
    return rows


def compare_with_csv(rows, path) -> dict:
    with open(path) as fh:
        committed = {(int(r["n"]), int(r["seed"])): r for r in csv.DictReader(fh)}
    mismatched = []
    for row in rows:
        ref = committed.get((row.n, row.seed))
        ours = {c: repr(getattr(row, c)) if isinstance(getattr(row, c), float) else str(getattr(row, c))
                for c in COLUMNS}
        if ref is None or any(ours[c] != ref[c] for c in COLUMNS):
            mismatched.append([row.n, row.seed])
    return {"compared": len(rows), "mismatched": mismatched}


def main() -> int:
    doc = {"seeds": SEEDS, "digests": {}}
    work_dir = os.path.join(os.path.dirname(HERE), ".perfbench_out")
    os.makedirs(work_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        for name in specs.WORKLOADS:
            doc["digests"][name] = {}
            for seed in range(SEEDS):
                rows = one_pass(name, seed, tmp)
                doc["digests"][name][str(seed)] = workloads.rows_digest(rows)
                if name == "sweep-acceptance" and seed == 0 and os.path.exists(ROWS_CSV):
                    full = one_pass(name, 0, tmp, calibration_replicates=10)
                    doc["rows_csv_check"] = {
                        "file": ROWS_CSV,
                        "workload_rows": compare_with_csv(rows, ROWS_CSV),
                        "full_calibration_rows": compare_with_csv(full, ROWS_CSV),
                    }
            print(f"{name}: {SEEDS} digests", flush=True)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(doc.get("rows_csv_check"), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
