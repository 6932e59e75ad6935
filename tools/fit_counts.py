"""Likelihood work per GP fit, next to the fits' optima and the stage errors.

    PYTHONPATH=src python3 tools/fit_counts.py [--h 0.01] [--seeds 0] [--runs d,e,wide_window]

Runs case d and case e at step h with the default settings, and the
benchmark's `wide_window` config (case e, h = 0.01, gp_window = 200),
once per seed for 50 s instead of the default 30 s, and prints one
Markdown table row per run and seed:
- the number of GP fits;
- likelihood values and gradients per fit;
- fit CPU ms per fit;
- the winners' log likelihoods, summed over the run's fits;
- the stage errors, in percent of the reference amplitude. Stages 1 and
  2 read as report.txt gives them. Stage 3 reads over 28-30 s, rows at
  both ends included, which is what a 30 s run reports for it;
- the mean stage-3 error of each 2 s block from 20 s on, each block
  holding its first row and not its last;
- the stage-3 floor: the error over 40-50 s.

In stage 3 the error decays by about e^-1 per second until some 14 s in,
so the 28-30 s window sits on the knee of that decay, not at the floor,
and the blocks show where.

Stages 1 and 2 end at 20 s, and nothing a run does before 30 s depends
on its duration, so the fits and rows up to 30 s are those of a 30 s run.
The counts come from wrapping `gp._Likelihood.evaluate` and `.gradient`
from outside the program; the winners' likelihoods are evaluated after
each fit, outside the counts. `gp.usable_cpus` is forced to 1, so every
optimizer start ascends in this process, with no forked fit worker, and
every evaluation is counted and the CPU time is the whole fit's. Traces do
not depend on the CPU count, so the errors are those of any run.
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

import numpy as np  # noqa: E402

from adaptive_fbl import Scenario, gp, run_case  # noqa: E402
from adaptive_fbl.gp import GpConfig  # noqa: E402
from adaptive_fbl.simulator import average_error_pct, stage_masks, stage_rows  # noqa: E402

WIDE_WINDOW = ("e", 0.01, 200)  # case, h, gp_window
DURATION = 50.0  # s, long enough for stage 3 to reach its floor
REPORTED_END = 30.0  # s, the default duration, whose stage-3 error is 28-30 s
FLOOR_START = 40.0  # s
BLOCK = 2.0  # s


@dataclass
class FitCounts:
    fits: int = 0
    values: int = 0
    gradients: int = 0
    cpu_s: float = 0.0
    lml: float = 0.0


@dataclass
class StageErrors:
    """One run's errors, in percent of the reference amplitude."""

    stage1: float
    stage2: float
    stage3: float  # 28-30 s, as a 30 s run reports it
    blocks: list[float]  # stage 3 per 2 s
    floor: float  # 40-50 s


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

    usable_cpus = gp.usable_cpus
    gp._Likelihood.evaluate, gp._Likelihood.gradient, gp.GpModel.fit = counted_evaluate, counted_gradient, timed_fit
    gp.usable_cpus = lambda: 1
    try:
        yield counts
    finally:
        gp._Likelihood.evaluate, gp._Likelihood.gradient, gp.GpModel.fit = evaluate, gradient, fit
        gp.usable_cpus = usable_cpus


def stage_errors(trace, metrics) -> StageErrors:
    """The errors of one DURATION run."""
    i = np.arange(trace.n_rows)
    e1, amplitude, h = trace.e[:, 0], trace.ref_amplitude, trace.h
    _, i2 = stage_rows(trace.t1, trace.t2, h)
    block = round(BLOCK / h)
    blocks = [average_error_pct(e1[k : k + block], amplitude) for k in range(i2, trace.n_rows - 1, block)]
    reported = stage_masks(trace)[2] & (i <= round(REPORTED_END / h))
    floor = e1[round(FLOOR_START / h) :]
    return StageErrors(
        *metrics.stage_error_pct[:2],
        average_error_pct(e1[reported], amplitude),
        blocks,
        average_error_pct(floor, amplitude),
    )


def measure(case: str, h: float, window: int, seed: int) -> tuple[FitCounts, StageErrors]:
    """(FitCounts, stage errors) of one DURATION run."""
    with counting() as counts:
        trace, metrics = run_case(
            Scenario(case, h=h, duration=DURATION), gp_cfg=GpConfig(window=window), seed=seed
        )
    return counts, stage_errors(trace, metrics)


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
    columns = ["run", "h (s)", "seed", "fits", "values/fit", "gradients/fit", "fit CPU ms", "winners' lml"]
    columns += ["stage 1 (%)", "stage 2 (%)", "stage 3, 28-30 s (%)", "stage 3 per 2 s from 20 s (%)", "40-50 s (%)"]
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    for name in runs:
        case, h, window = configs[name]
        for seed in (int(s) for s in args.seeds.split(",")):
            c, e = measure(case, h, window, seed)
            cells = [
                f"{c.fits}",
                f"{c.values / c.fits:.1f}",
                f"{c.gradients / c.fits:.1f}",
                f"{1e3 * c.cpu_s / c.fits:.1f}",
                f"{c.lml:.6f}",
                f"{e.stage1:.6f}",
                f"{e.stage2:.6f}",
                f"{e.stage3:.6f}",
                " ".join(f"{b:.2g}" for b in e.blocks),
                f"{e.floor:.3g}",
            ]
            print(f"| {name} | {h:g} | {seed} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
