"""Per-layer spans recorded from outside the program.

`instrument` swaps the names the program looks up at call time for
wrappers that time each call, then puts the originals back:

    cli.run_case, cli.emit_trace                      (cli binds them by name)
    simulator.rk4_step, .compute_control,
    simulator.eval_regressor, .weight_update_derivative (simulator binds them)
    HistoryStack.try_record, GpModel.fit/predict/predict_mean (methods)

The derivative closure the simulator hands to rk4_step is wrapped as its
own span, `simulator.derivative`, so that time spent in simulator code
inside an integrator step is not charged to the integrator.

Spans are aggregated in memory per (parent, name): calls, total time and
the time covered by child spans, whose difference is the self time. Work
the tracer does for itself (the likelihood after each fit, the size of
each CSV) runs with the clock paused, so it lands in no span.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

RUN_CASE = "simulator.run_case"
DERIVATIVE = "simulator.derivative"
EMIT = "cli.emit_trace"
RK4 = "numerics.rk4_step"
CONTROL = "controller.compute_control"
REGRESSOR = "plant.eval_regressor"
WDOT = "concurrent_learning.weight_update_derivative"
RECORD = "concurrent_learning.try_record"
FIT = "gp.fit"
PREDICT = "gp.predict"
PREDICT_MEAN = "gp.predict_mean"


class Tracer:
    """Span aggregates plus the counters the layers' return values give."""

    def __init__(self):
        self.spans: dict[tuple[str | None, str], list[float]] = {}
        self.accepted = 0  # try_record calls that stored the record
        self.fit_sizes: list[int] = []  # window size at each fit
        self.fit_lml: list[float] = []  # log marginal likelihood after each fit
        self.emitted_bytes = 0
        self._stack: list[list] = []  # open spans: [name, child time]
        self._paused = 0.0

    def clock(self) -> float:
        """perf_counter less every paused interval."""
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self._stack.pop()
                agg = self.spans.setdefault((parent[0] if parent else None, name), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[1]
                if parent is not None:
                    parent[1] += dt

        return traced

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total s, self s) of one span name over all its parents."""
        calls = total = child = 0.0
        for (_, span), (c, tot, ch) in self.spans.items():
            if span == name:
                calls += c
                total += tot
                child += ch
        return int(calls), total, total - child

    def table(self) -> list[dict]:
        """The aggregates as rows, for writing out after the run."""
        return [
            {"parent": parent, "name": name, "calls": int(c), "total_s": tot, "self_s": tot - ch}
            for (parent, name), (c, tot, ch) in sorted(self.spans.items(), key=lambda kv: str(kv[0]))
        ]


@contextmanager
def instrument(tracer: Tracer, program):
    """Install the wrappers on the modules of `program` (the imported
    adaptive_fbl package) for the duration of the block."""
    cli, simulator = program.cli, program.simulator
    stack_cls, gp_cls = program.concurrent_learning.HistoryStack, program.gp.GpModel
    lml = program.gp.log_marginal_likelihood

    rk4_span = tracer.wrap(RK4, simulator.rk4_step)

    def rk4(f, t, z, h):
        return rk4_span(tracer.wrap(DERIVATIVE, f), t, z, h)

    record = tracer.wrap(RECORD, stack_cls.try_record)

    def try_record(self, *args, **kwargs):
        stored = record(self, *args, **kwargs)
        tracer.accepted += bool(stored)
        return stored

    fit = tracer.wrap(FIT, gp_cls.fit)

    def fit_and_score(self):
        n = len(self)
        out = fit(self)
        with tracer.paused():
            tracer.fit_sizes.append(n)
            tracer.fit_lml.append(float(lml(self.inputs, self.targets, self.hyper)[0]))
        return out

    emit = tracer.wrap(EMIT, cli.emit_trace)

    def emit_and_size(trace, path):
        emit(trace, path)
        with tracer.paused():
            tracer.emitted_bytes += os.path.getsize(path)

    patches = [
        (cli, "run_case", tracer.wrap(RUN_CASE, cli.run_case)),
        (cli, "emit_trace", emit_and_size),
        (simulator, "rk4_step", rk4),
        (simulator, "compute_control", tracer.wrap(CONTROL, simulator.compute_control)),
        (simulator, "eval_regressor", tracer.wrap(REGRESSOR, simulator.eval_regressor)),
        (simulator, "weight_update_derivative", tracer.wrap(WDOT, simulator.weight_update_derivative)),
        (stack_cls, "try_record", try_record),
        (gp_cls, "fit", fit_and_score),
        (gp_cls, "predict", tracer.wrap(PREDICT, gp_cls.predict)),
        (gp_cls, "predict_mean", tracer.wrap(PREDICT_MEAN, gp_cls.predict_mean)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced operation: name -> (value, unit).

    Times per call are self times; a layer with no calls reports 0.
    """
    def per_call(total: float, calls: int, scale: float) -> float:
        return total / calls * scale if calls else 0.0

    rk4_calls, _, rk4_self = tracer.totals(RK4)
    steps = rk4_calls or 1
    _, run_total, run_self = tracer.totals(RUN_CASE)
    _, _, deriv_self = tracer.totals(DERIVATIVE)
    _, emit_total, _ = tracer.totals(EMIT)
    ctl_calls, _, ctl_self = tracer.totals(CONTROL)
    reg_calls, _, reg_self = tracer.totals(REGRESSOR)
    wd_calls, _, wd_self = tracer.totals(WDOT)
    rec_calls, _, rec_self = tracer.totals(RECORD)
    fit_calls, _, fit_self = tracer.totals(FIT)
    pr_calls, _, pr_self = tracer.totals(PREDICT)
    pm_calls, _, pm_self = tracer.totals(PREDICT_MEAN)
    sizes, lmls = tracer.fit_sizes, tracer.fit_lml
    return {
        "cli.emit_trace.s": (emit_total, "s"),
        "cli.emit_trace.mb": (tracer.emitted_bytes / 1e6, "MB"),
        "simulator.run_case.s": (run_total, "s"),
        "simulator.self.s": (run_self + deriv_self, "s"),
        "numerics.rk4_step.calls": (rk4_calls, "count"),
        "numerics.rk4_step.us": (per_call(rk4_self, rk4_calls, 1e6), "us"),
        "controller.compute_control.per_step": (ctl_calls / steps, "1/step"),
        "controller.compute_control.us": (per_call(ctl_self, ctl_calls, 1e6), "us"),
        "plant.eval_regressor.per_step": (reg_calls / steps, "1/step"),
        "plant.eval_regressor.us": (per_call(reg_self, reg_calls, 1e6), "us"),
        "concurrent_learning.weight_update_derivative.us": (per_call(wd_self, wd_calls, 1e6), "us"),
        "concurrent_learning.try_record.offers": (rec_calls, "count"),
        "concurrent_learning.try_record.accepted": (tracer.accepted, "count"),
        "concurrent_learning.try_record.us": (per_call(rec_self, rec_calls, 1e6), "us"),
        "gp.fit.calls": (fit_calls, "count"),
        "gp.fit.ms": (per_call(fit_self, fit_calls, 1e3), "ms"),
        "gp.fit.n_mean": (sum(sizes) / len(sizes) if sizes else 0.0, "count"),
        "gp.fit.lml": (sum(lmls) / len(lmls) if lmls else 0.0, "nat"),
        "gp.predict.us": (per_call(pr_self, pr_calls, 1e6), "us"),
        "gp.predict_mean.us": (per_call(pm_self, pm_calls, 1e6), "us"),
        "gp.predict_mean.per_step": (pm_calls / steps, "1/step"),
    }
