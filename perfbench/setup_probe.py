"""Time one set-up in a fresh process: import skiprl, then harness.build_instance.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds as the only line.  Interpreter start-up is not timed.
"""
import os
import sys
import time

import specs

os.environ.update(specs.PINNED_ENV)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv) -> int:
    name, seed = argv[1], int(argv[2])
    doc = specs.config_doc(name, seed)
    start = time.perf_counter()
    from skiprl import harness

    harness.build_instance(harness.ExperimentConfig.from_dict(doc))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
