"""Command-line front end: config parsing, case execution, CSV traces,
and a line-oriented metrics report.

Config files are `key = value` lines; values are JSON literals (numbers,
booleans, lists) with bare words accepted as strings. Unknown keys are
rejected. Every run writes one CSV per case plus report.txt, and the
report embeds the fully resolved configuration so a run can be
reproduced from the report alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .concurrent_learning import LearnerConfig
from .controller import ControllerConfig, compute_P
from .errors import ConfigError, ConfigParseError, NotHurwitzError, OutOfRangeError, UnknownKeyError
from .gp import GpConfig
from .plant import BENCHMARK_NAME, PLANTS, REFERENCES
from .simulator import CASE_IDS, Metrics, Scenario, Trace, run_case, scenario_for_case


# Rows per formatting block in emit_trace. A block's cell strings are all
# alive at once: on a 30001-row, 22-column trace, 4096-row blocks raised
# peak memory by 9 MB and 512-row blocks by under 1 MB, at the same speed.
EMIT_BLOCK_ROWS = 512


@dataclass
class RunConfig:
    """Fully resolved run settings (defaults already filled in)."""

    cases: tuple[str, ...] = CASE_IDS
    out: str = "runs"
    seed: int = 0
    h: float = 1e-3
    plant: str = BENCHMARK_NAME
    reference: str = "sine"
    gains: list[float] = field(default_factory=lambda: [20.0, 20.0])
    m: float = 1.0
    rho: float = 0.01
    q: list[list[float]] | None = None
    r: float = 0.01
    m_auto: bool = False
    rob_enabled: bool = True
    cl_enabled: bool | None = None
    gp_enabled: bool | None = None
    gamma_w: float = 3.0
    stack_capacity: int = 35
    record_period: float = 0.05
    amplitude: float = 0.5
    omega: float = 1.0
    gp_window: int = 100
    gp_sample_period: float = 0.1
    gp_refit_period: float = 0.5
    gp_starts: int = 5
    gp_lengthscale_mode: str = "shared"
    gp_sigma_n_floor: float = 1e-4
    paper_literal_gp_sign: bool = False
    derivative_mode: str = "exact"

    def scenario(self, case_id: str) -> Scenario:
        try:
            scn = scenario_for_case(case_id, h=self.h)
        except ValueError as exc:  # a step that leaves a stage without rows
            raise OutOfRangeError(str(exc)) from None
        # cl_enabled / gp_enabled can only confirm what the case defines
        if self.cl_enabled is not None and self.cl_enabled != scn.cl_enabled:
            raise OutOfRangeError(
                f"case {case_id} requires cl_enabled={str(scn.cl_enabled).lower()}"
            )
        if self.gp_enabled is not None and self.gp_enabled != scn.gp_enabled:
            raise OutOfRangeError(
                f"case {case_id} requires gp_enabled={str(scn.gp_enabled).lower()}"
            )
        return scn

    def controller_config(self) -> ControllerConfig:
        """The control-law settings, checked against the plant's order and
        solved for P, so gains that are not Hurwitz or a Q the matrix
        equation rejects are config errors."""
        try:
            ctl = ControllerConfig(
                gains=np.asarray(self.gains, dtype=float),
                m=self.m,
                rho=self.rho,
                q=None if self.q is None else np.asarray(self.q, dtype=float),
                r=self.r,
                rob_enabled=self.rob_enabled,
                m_auto=self.m_auto,
            )
        except ValueError as exc:
            raise OutOfRangeError(str(exc)) from None
        order = PLANTS[self.plant]().order
        if ctl.order != order:
            raise OutOfRangeError(f"gains has {ctl.order} entries, plant {self.plant} has order {order}")
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
        return GpConfig(
            window=self.gp_window,
            sample_period=self.gp_sample_period,
            refit_period=self.gp_refit_period,
            starts=self.gp_starts,
            lengthscale_mode=self.gp_lengthscale_mode,
            sigma_n_floor=self.gp_sigma_n_floor,
            paper_literal_sign=self.paper_literal_gp_sign,
        )

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
    if not isinstance(v, list) or not v or not all(
        isinstance(g, (int, float)) and not isinstance(g, bool) for g in v
    ):
        raise OutOfRangeError(f"gains must be a non-empty list of numbers, got {v!r}")
    return [float(g) for g in v]


def _matrix(name):
    def check(v):
        if v is None:
            return None
        ok = isinstance(v, list) and v and all(
            isinstance(row, list) and len(row) == len(v) for row in v
        )
        if not ok:
            raise OutOfRangeError(f"{name} must be a square matrix as nested lists, got {v!r}")
        return [[float(x) for x in row] for row in v]

    return check


def _choice(name, options):
    def check(v):
        if v not in options:
            raise OutOfRangeError(f"{name} must be one of {options}, got {v!r}")
        return v

    return check


def _string(name):
    def check(v):
        if not isinstance(v, str) or not v:
            raise OutOfRangeError(f"{name} must be a non-empty string, got {v!r}")
        return v

    return check


# config key -> (RunConfig attribute, validator)
_KEYS = {
    "cases": ("cases", _cases),
    "out": ("out", _string("out")),
    "seed": ("seed", _positive_int("seed", minimum=0)),
    "h": ("h", _positive("h")),
    "plant": ("plant", _choice("plant", tuple(PLANTS))),
    "reference": ("reference", _choice("reference", tuple(REFERENCES))),
    "gains": ("gains", _gains),
    "m": ("m", _non_negative("m")),
    "rho": ("rho", _positive("rho")),
    "Q": ("q", _matrix("Q")),
    "R": ("r", _non_negative("R")),
    "m_auto": ("m_auto", _boolean("m_auto")),
    "rob_enabled": ("rob_enabled", _boolean("rob_enabled")),
    "cl_enabled": ("cl_enabled", _boolean("cl_enabled")),
    "gp_enabled": ("gp_enabled", _boolean("gp_enabled")),
    "gamma_w": ("gamma_w", _positive("gamma_w")),
    "stack_capacity": ("stack_capacity", _positive_int("stack_capacity")),
    "record_period": ("record_period", _positive("record_period")),
    "amplitude": ("amplitude", _positive("amplitude")),
    "omega": ("omega", _positive("omega")),
    "gp_window": ("gp_window", _positive_int("gp_window")),
    "gp_sample_period": ("gp_sample_period", _positive("gp_sample_period")),
    "gp_refit_period": ("gp_refit_period", _positive("gp_refit_period")),
    "gp_starts": ("gp_starts", _positive_int("gp_starts", minimum=0)),
    "gp_lengthscale_mode": ("gp_lengthscale_mode", _choice("gp_lengthscale_mode", ("shared", "per_dim"))),
    "gp_sigma_n_floor": ("gp_sigma_n_floor", _positive("gp_sigma_n_floor")),
    "paper_literal_gp_sign": ("paper_literal_gp_sign", _boolean("paper_literal_gp_sign")),
    "derivative_mode": ("derivative_mode", _choice("derivative_mode", ("exact", "fd"))),
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
        attr, validator = _KEYS[key]
        try:
            setattr(cfg, attr, validator(value))
        except OutOfRangeError as exc:
            raise OutOfRangeError(f"line {lineno}: {exc}") from None
    return cfg


def emit_trace(trace: Trace, path) -> None:
    """Write one trace as CSV: fixed column order, full-precision decimals.

    Every float cell is repr(float(value)) and the stage cell str(int(value)).
    Rows are formatted a block at a time, column by column, which keeps the
    strings of only one block alive at once.
    """
    names, cols = zip(*trace.named_columns())
    stage_col = len(cols) - 1
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, trace.n_rows, EMIT_BLOCK_ROWS):
            block = slice(start, start + EMIT_BLOCK_ROWS)
            cells = [
                _block_cells(col[block].astype(int), str)
                if j == stage_col
                else _block_cells(np.asarray(col[block], dtype=float), repr)
                for j, col in enumerate(cols)
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _block_cells(values: np.ndarray, fmt):
    """The cell strings of one column block of 8-byte numbers. A block whose
    values all share one bit pattern (so 0.0 and -0.0 differ) is formatted
    once: the zeros of an inactive term, the weights after learning stops."""
    bits = values.view(np.int64)
    if (bits == bits[0]).all():
        return repeat(fmt(values[0].item()), values.size)
    return map(fmt, values.tolist())


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
    parser.add_argument(
        "--paper-literal-gp-sign",
        action="store_true",
        help="train the GP on the mismatch with the literal sign (for comparison)",
    )
    args = parser.parse_args(argv)
    # One BLAS thread unless the caller chose otherwise. The GP's 100-200
    # point factorizations gain nothing from threads, and scipy, whose BLAS
    # they run on, is first imported at the first fit, after this line.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

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
        if args.paper_literal_gp_sign:
            cfg.paper_literal_gp_sign = True
        # everything a case needs is resolved before the first one runs
        scenarios = [cfg.scenario(case_id) for case_id in cfg.cases]
        controller = cfg.controller_config()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    plant = PLANTS[cfg.plant]()
    metrics: dict[str, Metrics] = {}
    for scenario in scenarios:
        case_id = scenario.case_id
        try:
            trace, m = run_case(
                scenario,
                cfg=controller,
                learner=cfg.learner_config(),
                gp_cfg=cfg.gp_config(),
                seed=cfg.seed,
                plant=plant,
                reference=REFERENCES[cfg.reference](cfg.amplitude, cfg.omega),
                ref_amplitude=cfg.amplitude,
                derivative_mode=cfg.derivative_mode,
            )
        except Exception as exc:  # noqa: BLE001 - report any failed run and stop
            print(f"case {case_id} failed: {exc}", file=sys.stderr)
            return 1
        emit_trace(trace, out_dir / f"case_{case_id}.csv")
        metrics[case_id] = m
        print(f"case {case_id}: trace written to {out_dir / f'case_{case_id}.csv'}")

    all_pass = emit_report(metrics, cfg, out_dir / "report.txt")
    _print_table(metrics)
    print(f"report written to {out_dir / 'report.txt'}")
    if not all_pass:
        print("ordering checks FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
