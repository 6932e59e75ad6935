"""Output checks for one CLI run, written against the README alone.

Nothing here imports the program: the trace schema, the reference, the
control-law identity, the disturbance, the stage boundaries, the metric
definitions and the ideal weights are restated from the README and the
paper, so a fault in the program's own computations cannot hide itself.

`check_run` returns a list of failure messages; an empty list means the
run's CSV trace and report.txt hold every property below.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

# Ideal weights of the benchmark plant, as the paper states them.
W_STAR = np.array([1.0, -1.0, 0.5])
AMPLITUDE = 0.5  # reference 0.5 sin t
T1, T2, T_END = 10.0, 20.0, 30.0  # stage boundaries and run length (s)
TRANSIENT = 8.0  # seconds dropped at each stage start by the report's averages
DIST_START, DIST_END = 10.0, 30.0  # disturbance window (s), inclusive

COLUMNS = (
    "t", "x1", "x2", "x1_ref", "x2_ref", "e1", "e2",
    "u_total", "u_fbl", "u_sfb", "u_ref", "u_gp", "u_rob",
    "w1", "w2", "w3", "gp_mean", "gp_var", "d_true", "V", "Vdot", "stage",
)

# case -> (weight learning, GP compensation, disturbance), the README's table
CASES = {
    "a": (False, False, False),
    "b": (True, False, False),
    "c": (True, False, True),
    "d": (False, True, True),
    "e": (True, True, True),
}

W_CONVERGED = 0.02  # max |w(10 s) - w*| for learning cases
ABSORB_RATIO = 0.01  # stage-3 error over stage-2 error with the GP on
GP_CORRELATION = 0.9  # stage-3 corr(gp_mean, d - (w - w*).phi)
PARITY = 1.5  # case e: stage-3 error over its own stage-1 error (C03)

EXACT_TOL = 1e-12  # identities the trace states with one float operation
SUM_TOL = 1e-9  # the five-term control sum
REPORT_RTOL = 1e-9  # metrics recomputed from the trace against report.txt


def load_trace(path) -> dict[str, np.ndarray]:
    """Parse a CSV trace, holding it to the README's schema.

    Raises ValueError on a wrong header, a short row, a float cell that is
    not the exact repr of its value, or a stage other than 1, 2 or 3.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if tuple(header) != COLUMNS:
            raise ValueError(f"header {header} is not the schema {list(COLUMNS)}")
        cols: list[list[float]] = [[] for _ in COLUMNS]
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(COLUMNS):
                raise ValueError(f"line {lineno}: {len(cells)} cells, expected {len(COLUMNS)}")
            for cell, col in zip(cells[:-1], cols):
                value = float(cell)
                if repr(value) != cell:
                    raise ValueError(f"line {lineno}: {cell!r} is not a full-precision repr")
                col.append(value)
            if cells[-1] not in ("1", "2", "3"):
                raise ValueError(f"line {lineno}: stage {cells[-1]!r} is not 1, 2 or 3")
            cols[-1].append(int(cells[-1]))
    return {name: np.array(col) for name, col in zip(COLUMNS, cols)}


_METRIC = re.compile(r"^metrics case=(\w) stage=(\w+) avg_tracking_error_pct=(\S+)$")
_WEIGHT = re.compile(r"^metrics case=(\w) final_weight_error=(\S+)$")


def load_report(path, case: str) -> dict[str, float]:
    """Stage errors ("1", "2", "3", "overall") and "w_err" of one case."""
    found: dict[str, float] = {}
    for line in Path(path).read_text().splitlines():
        m = _METRIC.match(line)
        if m and m.group(1) == case:
            found[m.group(2)] = float(m.group(3))
        m = _WEIGHT.match(line)
        if m and m.group(1) == case:
            found["w_err"] = float(m.group(2))
    missing = {"1", "2", "3", "overall", "w_err"} - set(found)
    if missing:
        raise ValueError(f"report.txt lacks {sorted(missing)} for case {case}")
    return found


def regressor(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """phi(x) = [sin x1, |x2| x1, exp(x1 x2)], one row per sample."""
    return np.stack([np.sin(x1), np.abs(x2) * x1, np.exp(x1 * x2)], axis=1)


def stage_errors(tr: dict[str, np.ndarray], h: float) -> dict[str, float]:
    """The report's averages, mean|e1| / amplitude * 100 over each stage's
    steady tail, recomputed from the trace's e1 and t columns."""
    t, e1 = tr["t"], tr["e1"]
    half = 0.5 * h
    tails = [
        (t > TRANSIENT - half) & (t < T1 - half),
        (t > T1 + TRANSIENT - half) & (t < T2 - half),
        t > T2 + TRANSIENT - half,
    ]
    out = {str(k): float(np.mean(np.abs(e1[m]))) / AMPLITUDE * 100.0 for k, m in enumerate(tails, 1)}
    union = tails[0] | tails[1] | tails[2]
    out["overall"] = float(np.mean(np.abs(e1[union]))) / AMPLITUDE * 100.0
    return out


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def check_trace(tr: dict[str, np.ndarray], report: dict[str, float], case: str, h: float) -> list[str]:
    """Every property of one parsed trace and its report; [] when all hold."""
    learning, gp_on, disturbed = CASES[case]
    fails: list[str] = []
    t = tr["t"]
    n_rows = int(round(T_END / h)) + 1
    if t.size != n_rows:
        return [f"{t.size} rows, expected {n_rows}"]
    half = 0.5 * h

    if not _close(t, np.arange(n_rows) * h, 1e-9):
        fails.append("t is not the step grid i*h")
    if not (_close(tr["x1_ref"], AMPLITUDE * np.sin(t), EXACT_TOL)
            and _close(tr["x2_ref"], AMPLITUDE * np.cos(t), EXACT_TOL)):
        fails.append("reference is not 0.5 sin t, 0.5 cos t")
    if not (_close(tr["e1"], tr["x1_ref"] - tr["x1"], EXACT_TOL)
            and _close(tr["e2"], tr["x2_ref"] - tr["x2"], EXACT_TOL)):
        fails.append("e is not x_ref - x")
    u_sum = tr["u_fbl"] + tr["u_sfb"] + tr["u_ref"] - tr["u_gp"] - tr["u_rob"]
    if not _close(tr["u_total"], u_sum, SUM_TOL):
        fails.append("u_total is not u_fbl + u_sfb + u_ref - u_gp - u_rob")

    inside = (t > DIST_START + half) & (t < DIST_END - half)
    outside = (t < DIST_START - half) | (t > DIST_END + half)
    if disturbed:
        d_ok = _close(tr["d_true"][inside], np.cos(tr["x1"][inside]) + tr["x2"][inside], EXACT_TOL)
    else:
        d_ok = not np.any(tr["d_true"][inside])
    if not (d_ok and not np.any(tr["d_true"][outside])):
        fails.append("d_true is not cos x1 + x2 inside 10-30 s and 0 elsewhere")

    want_stage = np.where(t < T1 - half, 1, np.where(t < T2 - half, 2, 3))
    if not np.array_equal(tr["stage"], want_stage):
        fails.append("stage column disagrees with the 10 s / 20 s boundaries")

    errs = stage_errors(tr, h)
    for key, value in errs.items():
        if not math.isclose(value, report[key], rel_tol=REPORT_RTOL):
            fails.append(f"stage {key} error {report[key]!r} in report.txt, {value!r} from e1")
    w = np.stack([tr["w1"], tr["w2"], tr["w3"]], axis=1)
    w_err = float(np.max(np.abs(w[-1] - W_STAR)))
    if not math.isclose(w_err, report["w_err"], rel_tol=REPORT_RTOL):
        fails.append(f"final weight error {report['w_err']!r} in report.txt, {w_err!r} from w")

    i1 = int(round(T1 / h))
    if not np.array_equal(w[i1 + 1 :], np.broadcast_to(w[i1 + 1], w[i1 + 1 :].shape)):
        fails.append("w changes after 10 s")
    if learning:
        gap = float(np.max(np.abs(w[i1] - W_STAR)))
        if gap > W_CONVERGED:
            fails.append(f"max|w(10 s) - w*| = {gap:.4g} > {W_CONVERGED}")

    if gp_on:
        if np.any(tr["gp_var"] < 0.0):
            fails.append("gp_var < 0")
        if errs["3"] > ABSORB_RATIO * errs["2"]:
            fails.append(f"stage-3 error {errs['3']:.4g}% > {ABSORB_RATIO} x stage-2 {errs['2']:.4g}%")
        s3 = tr["stage"] == 3
        phi = regressor(tr["x1"][s3], tr["x2"][s3])
        residual = tr["d_true"][s3] - np.einsum("ij,ij->i", w[s3] - W_STAR, phi)
        corr = float(np.corrcoef(tr["gp_mean"][s3], residual)[0, 1])
        if not corr >= GP_CORRELATION:
            fails.append(f"stage-3 corr(gp_mean, d - (w - w*).phi) = {corr:.4f} < {GP_CORRELATION}")
    if learning and gp_on and errs["3"] > PARITY * errs["1"]:
        fails.append(f"stage-3 error {errs['3']:.4g}% > {PARITY} x stage-1 {errs['1']:.4g}%")
    return fails


def check_run(out_dir, case: str, h: float) -> list[str]:
    """Load `case_<case>.csv` and report.txt from out_dir and check them."""
    out_dir = Path(out_dir)
    try:
        tr = load_trace(out_dir / f"case_{case}.csv")
        report = load_report(out_dir / "report.txt", case)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    return check_trace(tr, report, case, h)
