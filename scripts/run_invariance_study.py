#!/usr/bin/env python3
"""Run the quarter-scale invariance study end to end.

Generates the synthetic suite, trains the identity trunk, fine-tunes a
branch at every depth for the nuisance and binary tasks, runs linear
probes over the branch layers, and writes all reports into the output
directory. With the default seed, the outputs reproduce the committed
reports byte for byte: study.txt matches reports/desk_study.txt, grid.txt
matches reports/branch_grid.txt, probe.txt matches
reports/invariance_probe.txt.
"""

import argparse
import sys

from branchnet.experiments import STUDY_SEED, run_desk_study


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="study_out",
                        help="output directory (default: study_out)")
    parser.add_argument("--seed", type=int, default=STUDY_SEED)
    args = parser.parse_args()

    result = run_desk_study(args.out, master_seed=args.seed)
    with open(result.report_paths["study"]) as f:
        sys.stdout.write(f.read())
    print(f"\nreports written under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
