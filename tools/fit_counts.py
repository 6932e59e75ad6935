"""Likelihood work per GP fit, next to the fits' optima and the stage errors.

    PYTHONPATH=src python3 tools/fit_counts.py [--h 0.01] [--seeds 0] [--runs d,e,wide_window]

Runs case d and case e at step h with the default settings, and the
benchmark's `wide_window` config (case e, h = 0.01, gp_window = 200),
once per seed, and prints one Markdown table row per run and seed:
- the number of GP fits;
- likelihood values and gradients per fit;
- fit CPU ms per fit;
- the winners' log likelihoods, summed over the run's fits;
- the stage errors, in percent of the reference amplitude, as report.txt
  gives them.

The counts come from wrapping `gp._Likelihood.evaluate` and `.gradient`
from outside the program; the winners' likelihoods are evaluated after
each fit, outside the counts. Every optimizer start ascends in this
process, with no fit worker, so that every evaluation is counted and the
CPU time is the whole fit's. Traces do not depend on the worker, so the
errors are those of a run with it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import time
from dataclasses import dataclass

# one BLAS thread before numpy loads, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from adaptive_fbl import gp, run_case, scenario_for_case, simulator  # noqa: E402
from adaptive_fbl.gp import GpConfig  # noqa: E402

WIDE_WINDOW = ("e", 0.01, 200)  # case, h, gp_window


@dataclass
class FitCounts:
    fits: int = 0
    values: int = 0
    gradients: int = 0
    cpu_s: float = 0.0
    lml: float = 0.0


@contextlib.contextmanager
def counting():
    """Count likelihood values, gradients and fit CPU time into the
    FitCounts it yields, with every start ascended in this process."""
    counts = FitCounts()
    evaluate, gradient, fit = gp._Likelihood.evaluate, gp._Likelihood.gradient, gp.GpModel.fit

    def counted_evaluate(self, hyper):
        counts.values += 1
        return evaluate(self, hyper)

    def counted_gradient(self, hyper, ev):
        counts.gradients += 1
        return gradient(self, hyper, ev)

    def timed_fit(model):
        start = time.process_time()
        fit(model)
        counts.cpu_s += time.process_time() - start
        counts.fits += 1
        counts.lml += evaluate(gp._Likelihood(model.inputs, model.targets), model.hyper).value
        return model

    saved_workers = simulator.fit_workers
    gp._Likelihood.evaluate, gp._Likelihood.gradient, gp.GpModel.fit = counted_evaluate, counted_gradient, timed_fit
    simulator.fit_workers = lambda starts: None
    try:
        yield counts
    finally:
        gp._Likelihood.evaluate, gp._Likelihood.gradient, gp.GpModel.fit = evaluate, gradient, fit
        simulator.fit_workers = saved_workers


def measure(case: str, h: float, window: int, seed: int):
    """(FitCounts, stage errors in %) of one run."""
    with counting() as counts:
        _, metrics = run_case(scenario_for_case(case, h=h), gp_cfg=GpConfig(window=window), seed=seed)
    return counts, metrics.stage_error_pct


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--h", type=float, default=0.01, help="step (s) of the case d and e runs")
    parser.add_argument("--seeds", default="0", help="comma-separated GP optimizer seeds")
    parser.add_argument("--runs", default="d,e,wide_window", help="comma-separated subset of d,e,wide_window")
    args = parser.parse_args(argv)
    configs = {"d": ("d", args.h, GpConfig.window), "e": ("e", args.h, GpConfig.window), "wide_window": WIDE_WINDOW}
    runs = args.runs.split(",")
    unknown = sorted(set(runs) - set(configs))
    if unknown:
        parser.error(f"unknown runs {unknown}, expected a subset of {list(configs)}")
    print("| run | h (s) | seed | fits | values/fit | gradients/fit | fit CPU ms | winners' lml | stage 1 (%) | stage 2 (%) | stage 3 (%) |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for name in runs:
        case, h, window = configs[name]
        for seed in (int(s) for s in args.seeds.split(",")):
            c, errors = measure(case, h, window, seed)
            cells = [
                f"{c.fits}",
                f"{c.values / c.fits:.1f}",
                f"{c.gradients / c.fits:.1f}",
                f"{1e3 * c.cpu_s / c.fits:.1f}",
                f"{c.lml:.6f}",
                *(f"{e:.6f}" for e in errors),
            ]
            print(f"| {name} | {h:g} | {seed} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
