"""Per-stage tracking errors of the five cases at several step sizes.

    PYTHONPATH=src python3 tools/step_table.py [--steps 0.01,0.005,0.001] [--seed 0]

Runs every case at the default settings for each step size h and prints
one Markdown table row per (case, h): the average tracking error of each
stage and overall, in percent of the reference amplitude, as report.txt
gives them. Case d at h = 0.001 takes the longest, a few seconds.
"""

from __future__ import annotations

import argparse
import os

# one BLAS thread before numpy loads, as the CLI and the benchmark run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from adaptive_fbl import CASE_IDS, run_case, scenario_for_case  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", default="0.01,0.005,0.001", help="comma-separated step sizes (s)")
    parser.add_argument("--seed", type=int, default=0, help="GP optimizer seed")
    args = parser.parse_args(argv)
    steps = [float(h) for h in args.steps.split(",")]
    print("| case | h (s) | stage 1 (%) | stage 2 (%) | stage 3 (%) | overall (%) |")
    print("|---|---|---|---|---|---|")
    for case in CASE_IDS:
        for h in steps:
            _, metrics = run_case(scenario_for_case(case, h=h), seed=args.seed)
            cells = [*metrics.stage_error_pct, metrics.overall_error_pct]
            print(f"| {case} | {h:g} | " + " | ".join(f"{c:.6f}" for c in cells) + " |", flush=True)


if __name__ == "__main__":
    main()
