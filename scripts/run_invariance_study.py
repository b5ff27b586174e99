#!/usr/bin/env python3
"""Run the quarter-scale invariance study end to end.

Generates the synthetic suite, trains the identity trunk, fine-tunes a
branch at every depth for the nuisance and binary tasks, runs linear
probes over the branch layers, and writes all reports into the output
directory. With the default seed, the outputs reproduce the committed
reports byte for byte: study.txt matches reports/desk_study.txt, grid.txt
matches reports/branch_grid.txt, probe.txt matches
reports/invariance_probe.txt.

After the report it prints one line to stderr with the wall seconds of
each phase and of the whole run (StudyResult.seconds); no file the study
writes holds them.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from branchnet.experiments import STUDY_SEED, run_desk_study  # noqa: E402


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
    print("seconds: " + " ".join(f"{phase}={s:.2f}"
                                 for phase, s in result.seconds.items()),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
