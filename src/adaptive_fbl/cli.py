"""Command-line front end: config parsing, case execution, and a
line-oriented metrics report.

Config files are `key = value` lines; values are JSON literals (numbers,
booleans, lists) with bare words accepted as strings. Unknown keys are
rejected. Every run writes one CSV per case plus report.txt, and the
report embeds the fully resolved configuration so a run can be
reproduced from the report alone. Each case's CSV is streamed by
`run_case` while the case runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .concurrent_learning import LearnerConfig
from .controller import ControllerConfig, compute_P
from .errors import ConfigError, ConfigParseError, NotHurwitzError, OutOfRangeError, UnknownKeyError
from .gp import GpConfig
from .plant import REFERENCE_AMPLITUDE, REFERENCE_OMEGA, benchmark_plant, sine_reference

# emit_trace, the whole-trace CSV writer, keeps its name here for callers
# that write a Trace they hold; main passes each case's CSV path to
# run_case instead, which streams the file while the case runs.
from .simulator import (  # noqa: F401
    CASE_IDS,
    Metrics,
    Scenario,
    emit_trace,
    run_case,
    scenario_for_case,
)


@dataclass
class RunConfig:
    """Fully resolved run settings (defaults already filled in). Each
    field is named after its config key, so the report's config echo
    parses back to the same settings. Each default is read from the
    library setting the field fills, so none is stated twice."""

    cases: tuple[str, ...] = CASE_IDS
    out: str = "runs"
    seed: int = 0
    h: float = Scenario.h
    gains: list[float] = field(default_factory=lambda: list(ControllerConfig.gains))
    m: float = ControllerConfig.m
    rho: float = ControllerConfig.rho
    Q: list[list[float]] | None = ControllerConfig.q
    R: float = ControllerConfig.r
    rob_enabled: bool = ControllerConfig.rob_enabled
    gamma_w: float = LearnerConfig.gamma_w
    stack_capacity: int = LearnerConfig.stack_capacity
    record_period: float = LearnerConfig.record_period
    amplitude: float = REFERENCE_AMPLITUDE
    omega: float = REFERENCE_OMEGA
    gp_window: int = GpConfig.window
    gp_starts: int = GpConfig.starts

    def scenario(self, case_id: str) -> Scenario:
        try:
            return scenario_for_case(case_id, h=self.h)
        except ValueError as exc:  # a step that leaves a stage without rows
            raise OutOfRangeError(str(exc)) from None

    def controller_config(self) -> ControllerConfig:
        """The control-law settings, checked against the plant's order and
        solved for P, so gains that are not Hurwitz or a Q the matrix
        equation rejects are config errors."""
        try:
            ctl = ControllerConfig(
                gains=np.asarray(self.gains, dtype=float),
                m=self.m,
                rho=self.rho,
                q=None if self.Q is None else np.asarray(self.Q, dtype=float),
                r=self.R,
                rob_enabled=self.rob_enabled,
            )
        except ValueError as exc:
            raise OutOfRangeError(str(exc)) from None
        plant = benchmark_plant()
        if ctl.order != plant.order:
            raise OutOfRangeError(
                f"gains has {ctl.order} entries, plant {plant.name} has order {plant.order}"
            )
        try:
            compute_P(ctl)
        except (NotHurwitzError, ValueError) as exc:
            raise OutOfRangeError(str(exc)) from None
        return ctl

    def learner_config(self) -> LearnerConfig:
        return LearnerConfig(
            gamma_w=self.gamma_w,
            stack_capacity=self.stack_capacity,
            record_period=self.record_period,
        )

    def gp_config(self) -> GpConfig:
        return GpConfig(window=self.gp_window, starts=self.gp_starts)

    def resolved_items(self) -> list[tuple[str, str]]:
        items = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            items.append((f.name, json.dumps(value)))
        return items


def _number(v) -> bool:
    """A finite int or float, not a bool. json.loads and argparse's float
    both accept NaN and Infinity, and `NaN <= 0` is False."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _positive(name):
    def check(v):
        if not _number(v) or v <= 0:
            raise OutOfRangeError(f"{name} must be a positive finite number, got {v!r}")
        return float(v)

    return check


def _non_negative(name):
    def check(v):
        if not _number(v) or v < 0:
            raise OutOfRangeError(f"{name} must be a non-negative finite number, got {v!r}")
        return float(v)

    return check


def _positive_int(name, minimum=1):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
            raise OutOfRangeError(f"{name} must be an integer >= {minimum}, got {v!r}")
        return v

    return check


def _boolean(name):
    def check(v):
        if not isinstance(v, bool):
            raise OutOfRangeError(f"{name} must be true or false, got {v!r}")
        return v

    return check


def _cases(v):
    if isinstance(v, str):
        v = [c.strip() for c in v.split(",") if c.strip()]
    if not isinstance(v, list) or not v:
        raise OutOfRangeError(f"cases must be a non-empty list, got {v!r}")
    for c in v:
        if c not in CASE_IDS:
            raise OutOfRangeError(f"unknown case {c!r}, expected one of {CASE_IDS}")
    return tuple(dict.fromkeys(v))


def _gains(v):
    if not isinstance(v, list) or not v or not all(map(_number, v)):
        raise OutOfRangeError(f"gains must be a non-empty list of finite numbers, got {v!r}")
    return [float(g) for g in v]


def _matrix(name):
    def check(v):
        if v is None:
            return None
        ok = isinstance(v, list) and v and all(
            isinstance(row, list) and len(row) == len(v) and all(map(_number, row)) for row in v
        )
        if not ok:
            raise OutOfRangeError(
                f"{name} must be a square matrix of finite numbers as nested lists, got {v!r}"
            )
        return [[float(x) for x in row] for row in v]

    return check


def _string(name):
    def check(v):
        if not isinstance(v, str) or not v:
            raise OutOfRangeError(f"{name} must be a non-empty string, got {v!r}")
        return v

    return check


# config key -> validator; the key is also the RunConfig field's name
_KEYS = {
    "cases": _cases,
    "out": _string("out"),
    "seed": _positive_int("seed", minimum=0),
    "h": _positive("h"),
    "gains": _gains,
    "m": _non_negative("m"),
    "rho": _positive("rho"),
    "Q": _matrix("Q"),
    "R": _non_negative("R"),
    "rob_enabled": _boolean("rob_enabled"),
    "gamma_w": _positive("gamma_w"),
    "stack_capacity": _positive_int("stack_capacity"),
    "record_period": _positive("record_period"),
    "amplitude": _positive("amplitude"),
    "omega": _positive("omega"),
    "gp_window": _positive_int("gp_window"),
    "gp_starts": _positive_int("gp_starts", minimum=0),
}


def parse_config(text: str) -> RunConfig:
    """Parse a key = value document into a RunConfig with defaults filled."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if not key or not value_text:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _KEYS:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text
        try:
            setattr(cfg, key, _KEYS[key](value))
        except OutOfRangeError as exc:
            raise OutOfRangeError(f"line {lineno}: {exc}") from None
    return cfg


def _evaluate_checks(metrics: dict[str, Metrics]) -> list[tuple[str, float, float, bool]]:
    results = []
    if "a" in metrics and "b" in metrics:
        lhs = metrics["a"].overall_error_pct
        rhs = metrics["b"].overall_error_pct
        results.append(("cl_benefit", lhs, rhs, lhs > rhs))
    if "c" in metrics and "e" in metrics:
        lhs = metrics["c"].stage_error_pct[2]
        rhs = metrics["e"].stage_error_pct[2]
        results.append(("gp_vs_disturbed", lhs, rhs, lhs > rhs))
    if "d" in metrics and "e" in metrics:
        lhs = metrics["d"].stage_error_pct[2]
        rhs = 2.0 * metrics["e"].stage_error_pct[2]
        results.append(("mismatch_absorbed", lhs, rhs, lhs <= rhs))
    return results


def emit_report(metrics: dict[str, Metrics], cfg: RunConfig, path) -> bool:
    """Write the line-oriented report; returns True if all checks passed.

    One `metrics` record per case per stage plus the overall value, the
    enabled ordering checks, and the fully resolved config echo.
    """
    lines = ["report_version 1"]
    for key, value in cfg.resolved_items():
        lines.append(f"config {key}={value}")
    for case_id in sorted(metrics):
        m = metrics[case_id]
        for stage_idx, value in enumerate(m.stage_error_pct, start=1):
            lines.append(f"metrics case={case_id} stage={stage_idx} avg_tracking_error_pct={value!r}")
        lines.append(f"metrics case={case_id} stage=overall avg_tracking_error_pct={m.overall_error_pct!r}")
        lines.append(f"metrics case={case_id} final_weight_error={m.final_weight_error!r}")
    if "b" in metrics and "e" in metrics:
        ratio = metrics["e"].stage_error_pct[2] / max(metrics["b"].stage_error_pct[0], 1e-300)
        lines.append(f"ratio name=e_stage3_over_b_stage1 value={ratio!r}")
    checks = _evaluate_checks(metrics)
    all_pass = all(ok for _, _, _, ok in checks)
    for name, lhs, rhs, ok in checks:
        lines.append(f"check name={name} lhs={lhs!r} rhs={rhs!r} pass={'yes' if ok else 'no'}")
    lines.append(f"summary all_checks_pass={'yes' if all_pass else 'no'}")
    Path(path).write_text("\n".join(lines) + "\n")
    return all_pass


def _print_table(metrics: dict[str, Metrics]) -> None:
    print(f"{'case':>4} {'stage1%':>10} {'stage2%':>10} {'stage3%':>10} {'overall%':>10} {'|w-w*|':>10}")
    for case_id in sorted(metrics):
        m = metrics[case_id]
        s1, s2, s3 = m.stage_error_pct
        print(
            f"{case_id:>4} {s1:>10.4f} {s2:>10.4f} {s3:>10.4f} "
            f"{m.overall_error_pct:>10.4f} {m.final_weight_error:>10.5f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adaptive-fbl",
        description="Run the adaptive feedback-linearization benchmark cases.",
    )
    parser.add_argument("--config", type=Path, help="key = value config file")
    parser.add_argument("--cases", help="comma-separated subset of a,b,c,d,e")
    parser.add_argument("--out", help="output directory (default: runs)")
    parser.add_argument("--seed", type=int, help="seed for the GP optimizer starts")
    parser.add_argument("--h", type=float, help="integration step in seconds")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config.read_text()) if args.config else RunConfig()
        if args.cases is not None:
            cfg.cases = _cases(args.cases)
        if args.out is not None:
            cfg.out = args.out
        if args.seed is not None:
            cfg.seed = _positive_int("seed", minimum=0)(args.seed)
        if args.h is not None:
            cfg.h = _positive("h")(args.h)
        # everything a case needs is resolved before the first one runs
        scenarios = [cfg.scenario(case_id) for case_id in cfg.cases]
        controller = cfg.controller_config()
        learner, gp_cfg, reference = cfg.learner_config(), cfg.gp_config(), sine_reference(cfg.amplitude, cfg.omega)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    plant = benchmark_plant()
    metrics: dict[str, Metrics] = {}
    for scenario in scenarios:
        case_id = scenario.case_id
        csv_path = out_dir / f"case_{case_id}.csv"
        try:
            _, m = run_case(
                scenario,
                cfg=controller,
                learner=learner,
                gp_cfg=gp_cfg,
                seed=cfg.seed,
                plant=plant,
                reference=reference,
                csv_path=csv_path,
            )
        except Exception as exc:  # noqa: BLE001 - report any failed run and stop
            print(f"case {case_id} failed: {exc}", file=sys.stderr)
            return 1
        metrics[case_id] = m
        print(f"case {case_id}: trace written to {csv_path}")

    all_pass = emit_report(metrics, cfg, out_dir / "report.txt")
    _print_table(metrics)
    print(f"report written to {out_dir / 'report.txt'}")
    if not all_pass:
        print("ordering checks FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
