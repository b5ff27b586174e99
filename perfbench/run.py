#!/usr/bin/env python3
"""branchnet benchmark: one command, three seeded workloads.

Run from the root of a branchnet checkout:

    python3 perfbench/run.py --workload trunk-train --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is a
separate run that records spans around calls into branchnet's modules and
reports the per-layer metrics, module self time and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit). The exit code is 0 when every correctness
check passed, 1 when one failed, and 2 when the run could not start.
Working files go to .perfbench/ under the checkout root.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs each workload in seconds, for the smoke test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "branchnet")):
        print(f"error: no branchnet sources under {SRC}; run from the root "
              f"of a branchnet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import runner
    return runner.run(args, ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main())
