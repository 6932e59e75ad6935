"""Scenario runner for the five benchmark cases, metrics, and the
quadratic-form stability monitor.

A run has three stages on a fixed step grid, switched at the rows
(i1, i2) = stage_rows(t1, t2, h), that is round(t1 / h) and round(t2 / h):

    stage 1 (i < i1):        no disturbance; weight learning and recording
    stage 2 (i1 <= i < i2):  disturbance active; GP collects data, no compensation
    stage 3 (i >= i2):       GP compensates and keeps refitting

The disturbance acts from t1 to the end of the run, and a plant's
disturbance function acts only on these disturbed stages. Each step takes
the stage of the row it starts from: its row and all four RK4 evaluations
use that stage's flags, so every switch falls on a step boundary.

The cases differ in which learning pieces are active:

    a: no learning, fixed mismatched weights, no disturbance
    b: weight learning only, no disturbance
    c: weight learning only, disturbance active
    d: fixed mismatched weights, GP compensation, disturbance active
    e: weight learning and GP compensation, disturbance active

On a step that learns, the plant state and the weight estimate are
integrated together as one RK4 state, so both advance at one integration
order; every other step integrates x alone and leaves w as it is. The
stepping core is generated Python source on scalar locals (`step_kernel`):
the row evaluation, the stage derivative (control law, plant step and,
when learning, weight rate) and a whole RK4 step from the row's values,
compiled once per plant shape and stage flags and bound to the run's
constants. The row evaluation that fills the trace at each step is the
first RK4 stage, so one step costs four evaluations of the closed loop.
numpy holds the trace and does the per-run setup. Each row is stored with
one assignment into one preallocated buffer, whose column views are the
trace's arrays, and the quadratic-form monitor runs once over the whole
trace after the last step.

Given a CSV path, a run streams its trace to it: the buffer is a shared
anonymous mapping, and a forked writer process formats each finished
block of rows while later rows are still being stepped. After the last
step, the run formats the blocks the writer has not reached, from the
back, until the two meet (`_CsvWriter`).
"""

from __future__ import annotations

import math
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

# compute_control, eval_regressor, weight_update_derivative and rk4_step are
# imported for bench/tracing.py, which patches them here by name
from .concurrent_learning import HistoryStack, LearnerConfig, stack_source, update_source
from .concurrent_learning import weight_update_derivative  # noqa: F401
from .controller import (
    ControlBreakdown,
    ControllerConfig,
    compute_control,  # noqa: F401
    compute_P,
    law_source,
    weighting_matrix,
)
from .errors import NonFiniteValueError, StateEscapeError, TraceWriteError
from .gp import REFIT_PERIOD, SAMPLE_PERIOD, GpConfig, GpModel, training_target
from .numerics import compiled, dot, fork_child, function_source, quad_form, reap_child, require_count
from .numerics import require_finite, symbols, tuple_source
from .numerics import rk4_step  # noqa: F401
from .plant import (
    Plant,
    ReferenceModel,
    benchmark_plant,
    chain_source,
    check_reference_shape,
    check_regressor_shape,
    eval_regressor,  # noqa: F401
    sine_reference,
)

CASE_IDS = ("a", "b", "c", "d", "e")
INITIAL_WEIGHT_ESTIMATE = np.array([0.5, -1.3, 0.75])
STATE_ESCAPE_LIMIT = 1e3
# Seconds dropped at each stage start in the metrics. The dominant
# closed-loop pole at the standard gains is ~ -1.06 1/s, and the error
# inherited across a stage boundary decays on it. In stages 1 and 2 it
# falls below the levels the averages compare within ~8 time constants.
# In stage 3 it decays by about e^-1 per second for some 14 s, so the
# 28-30 s window sits on the knee of that decay, not at the floor.
TRANSIENT_EXCLUDE = 8.0

# case id -> (weight learning, gp compensation, disturbance active)
CASE_FLAGS = {
    "a": (False, False, False),
    "b": (True, False, False),
    "c": (True, False, True),
    "d": (False, True, True),
    "e": (True, True, True),
}


def stage_rows(t1: float, t2: float, h: float) -> tuple[int, int]:
    """The rows (i1, i2) on which stages 2 and 3 begin: the stage-switch rule."""
    return round(t1 / h), round(t2 / h)


@dataclass(frozen=True)
class Scenario:
    """One simulation case: stage boundaries and step size. The case's
    flags are read from CASE_FLAGS, their one home."""

    case_id: str
    duration: float = 30.0
    h: float = 1e-3
    t1: float = 10.0
    t2: float = 20.0
    w0: np.ndarray | None = None

    def __post_init__(self):
        if self.case_id not in CASE_FLAGS:
            raise ValueError(f"unknown case {self.case_id!r}, expected one of {CASE_IDS}")
        require_finite(self, "h", "duration", "t1", "t2")
        if self.h <= 0 or self.duration <= 0:
            raise ValueError("h and duration must be positive")
        if not (0 < self.t1 <= self.t2):
            raise ValueError("stage boundaries must satisfy 0 < t1 <= t2")
        i1, i2 = stage_rows(self.t1, self.t2, self.h)
        if i1 == 0 or (i1 == i2 and self.t1 < self.t2):
            where = f"stage {1 if i1 == 0 else 2} (t1={self.t1:g}, t2={self.t2:g})"
            raise ValueError(f"h={self.h:g} leaves {where} without rows")
        if self.w0 is not None:
            object.__setattr__(self, "w0", np.asarray(self.w0, dtype=float))

    @property
    def cl_enabled(self) -> bool:
        return CASE_FLAGS[self.case_id][0]

    @property
    def gp_enabled(self) -> bool:
        return CASE_FLAGS[self.case_id][1]

    @property
    def disturbed(self) -> bool:
        return CASE_FLAGS[self.case_id][2]


@dataclass
class Trace:
    """Per-step record of one run, column-oriented."""

    case_id: str
    h: float
    t1: float
    t2: float
    w_star: np.ndarray
    ref_amplitude: float
    t: np.ndarray
    x: np.ndarray
    x_ref: np.ndarray
    e: np.ndarray
    u_total: np.ndarray
    u_fbl: np.ndarray
    u_sfb: np.ndarray
    u_ref: np.ndarray
    u_gp: np.ndarray
    u_rob: np.ndarray
    w: np.ndarray
    gp_var: np.ndarray
    d_true: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    stage: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.t.size

    def named_columns(self) -> list[tuple[str, np.ndarray]]:
        """(name, column) pairs in the CSV column order. The `gp_mean`
        column is u_gp again: the GP's mean where it compensates, else 0."""
        n = self.x.shape[1]
        m = self.w.shape[1]
        cols = [("t", self.t)]
        cols += [(f"x{i + 1}", self.x[:, i]) for i in range(n)]
        cols += [(f"x{i + 1}_ref", self.x_ref[:, i]) for i in range(n)]
        cols += [(f"e{i + 1}", self.e[:, i]) for i in range(n)]
        cols += [
            ("u_total", self.u_total),
            ("u_fbl", self.u_fbl),
            ("u_sfb", self.u_sfb),
            ("u_ref", self.u_ref),
            ("u_gp", self.u_gp),
            ("u_rob", self.u_rob),
        ]
        cols += [(f"w{i + 1}", self.w[:, i]) for i in range(m)]
        cols += [
            ("gp_mean", self.u_gp),
            ("gp_var", self.gp_var),
            ("d_true", self.d_true),
            ("V", self.v),
            ("Vdot", self.vdot),
            ("stage", self.stage),
        ]
        return cols


# Rows per formatting block of a CSV trace, and per message to a run's CSV
# writer. A block's cell strings are all alive at once: on a 30001-row,
# 22-column trace, 4096-row blocks raised peak memory by 9 MB and 512-row
# blocks by under 1 MB, at the same speed.
EMIT_BLOCK_ROWS = 512


def emit_trace(trace: Trace, path) -> None:
    """Write one trace as CSV: fixed column order, full-precision decimals.

    Every float cell is repr(float(value)) and the stage cell str(int(value)).
    Rows are formatted a block at a time, column by column, which keeps the
    strings of only one block alive at once.
    """
    with open(path, "w", newline="") as fh:
        _write_rows(fh, trace, header=True)


def _write_rows(fh, trace: Trace, header: bool = False) -> None:
    """Write the trace's rows as CSV lines, after the header line if asked:
    the one formatter of `emit_trace` and of a run's CSV writer."""
    names, cols = zip(*trace.named_columns())
    if header:
        fh.write(",".join(names) + "\n")
    stage_col = len(cols) - 1
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


class _CsvWriter:
    """A forked process that writes a run's CSV while the run steps on;
    after the last step, the run formats the blocks the writer has not
    reached yet.

    The run's row buffer is a shared anonymous mapping, so this process
    sees every row the run stores. The CSV's rows fall into blocks of
    EMIT_BLOCK_ROWS. Each time a block is stored, the run sends the count
    of rows stored so far down a pipe, and the writer formats the blocks
    from the front, in order, into `<path>.<pid>.tmp` next to the CSV.

    A front/back pair of block indices in a second shared mapping says who
    formats which block: the writer has claimed the blocks below front,
    the run those from back on. A claim moves one end by one under an
    flock on the temporary file, which each process opens for itself
    after the fork, so the kernel drops the lock of a process that dies
    holding it.

    After the last row has passed its check, the run sends the final row
    count and claims blocks from the back, one at a time, while at least
    two are unclaimed: the last unclaimed block is the one the writer
    takes next. A writer that has kept up leaves only the final block,
    and the run claims nothing. The run formats each block it claims into
    a side file, `<path>.<pid>.tail.tmp`, and keeps only where each ends.
    The writer exits 0 once the two ends have met. The run then copies
    its blocks onto the end of the temporary file in forward order,
    deletes the side file and renames the temporary file to `path`.

    On any failure the run kills the writer and deletes both files.
    """

    def __init__(self, path, rows: int, trace_of: Callable[[int, int], Trace]):
        self.path = os.fspath(path)
        self.tmp = f"{self.path}.{os.getpid()}.tmp"
        self.tail = f"{self.path}.{os.getpid()}.tail.tmp"
        self.rows = rows
        self.trace_of = trace_of
        self.sent = 0
        self.tail_ends: list[int] = []  # the side file's offset after each of the run's blocks
        # [front, back]: the writer has claimed the blocks [0, front), the run [back, all)
        self.ends = memoryview(mmap.mmap(-1, 16)).cast("q")
        self.ends[1] = -(-rows // EMIT_BLOCK_ROWS)
        counts, self.pipe = os.pipe()
        try:
            open(self.tmp, "w").close()  # the flock's file exists before either process locks it
            self.pid = fork_child(lambda: self._serve(counts), f"CSV writer for {self.path}")
        except BaseException:
            os.close(self.pipe)
            _remove(self.tmp)
            raise
        finally:
            os.close(counts)

    def send(self, count: int) -> None:
        """Tell the writer that rows [0, count) are stored."""
        try:
            os.write(self.pipe, count.to_bytes(8, "little"))
        except BrokenPipeError:  # the writer has died: reap it, raise its failure
            self.close()
            raise
        self.sent = count

    def share_tail(self) -> None:
        """Once the last row has passed its check: send the rows not sent
        yet, then format the blocks claimed from the back into the side
        file, each as the writer would."""
        if self.rows > self.sent:
            self.send(self.rows)
        lock = os.open(self.tmp, os.O_RDONLY)
        try:
            block = self._claim_back(lock)
            if block is None:
                return
            with open(self.tail, "w", newline="") as fh:
                while block is not None:
                    _write_rows(fh, self._block(block))
                    self.tail_ends.append(fh.tell())
                    block = self._claim_back(lock)
        finally:
            os.close(lock)

    def finish(self) -> None:
        """Wait until the writer has exited 0, append the run's blocks to
        its file in forward order, and give the complete file its name."""
        self.close()
        if self.tail_ends:
            ends = self.tail_ends
            with open(self.tail, "rb") as src, open(self.tmp, "ab") as dst:
                for start, end in reversed(list(zip([0, *ends], ends))):
                    src.seek(start)
                    dst.write(src.read(end - start))
            os.unlink(self.tail)
        os.replace(self.tmp, self.path)

    def close(self, kill: bool = False) -> None:
        """Reap the writer, first sending it SIGKILL if kill; reaping is a
        no-op once done. A killed or failed writer leaves no temporary or
        side file, and unless it was killed, its failure is raised as
        TraceWriteError. After finish, nothing is left to delete."""
        code = 0
        if self.pid is not None:
            pid, self.pid = self.pid, None
            os.close(self.pipe)
            code = reap_child(pid, kill)
        if kill or code != 0:
            _remove(self.tmp)
            _remove(self.tail)
        if code != 0 and not kill:
            raise TraceWriteError(f"the CSV writer for {self.path} exited with status {code}")

    def _block(self, block: int) -> Trace:
        start = block * EMIT_BLOCK_ROWS
        return self.trace_of(start, min(start + EMIT_BLOCK_ROWS, self.rows))

    def _claim_back(self, lock: int) -> int | None:
        """The run's claim: the last unclaimed block, or None while fewer
        than two are unclaimed."""
        with _locked(lock):
            front, back = self.ends
            if back - front < 2:
                return None
            self.ends[1] = back - 1
        return back - 1

    def _serve(self, counts: int) -> None:
        """The writer process's body, which calls no BLAS routine: claim and
        format blocks from the front as the run stores them, until the ends meet."""
        os.close(self.pipe)
        lock = os.open(self.tmp, os.O_RDONLY)  # this process's own open file for the flock
        with open(self.tmp, "w", newline="") as fh, open(counts, "rb") as msgs:
            _write_rows(fh, self.trace_of(0, 0), header=True)
            ready = 0  # the blocks whose rows are all stored
            while True:
                with _locked(lock):
                    block, back = self.ends
                    if block < min(ready, back):
                        self.ends[0] = block + 1
                if block == back:
                    break
                if block == ready:
                    msg = msgs.read(8)
                    if len(msg) != 8:
                        raise EOFError("the run's last row count never came")
                    ready = -(-int.from_bytes(msg, "little") // EMIT_BLOCK_ROWS)
                else:
                    _write_rows(fh, self._block(block))


@contextmanager
def _locked(fd: int):
    """Hold an exclusive flock on fd, an open file of the calling process's
    own: the kernel drops the lock when that process dies."""
    import fcntl

    fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


@dataclass(frozen=True)
class Metrics:
    """Tracking-error summary of one run."""

    case_id: str
    stage_error_pct: tuple[float, float, float]
    overall_error_pct: float
    final_weight_error: float


def average_error_pct(e1: np.ndarray, ref_amplitude: float) -> float:
    """Mean absolute first-state error as a percentage of the reference amplitude."""
    if e1.size == 0:
        return math.nan
    return float(np.mean(np.abs(e1))) / ref_amplitude * 100.0


def stage_masks(trace: Trace) -> list[np.ndarray]:
    """Row masks for the three stages, each excluding its first seconds of transient."""
    i = np.arange(trace.n_rows)
    i1, i2 = stage_rows(trace.t1, trace.t2, trace.h)
    excl = int(round(TRANSIENT_EXCLUDE / trace.h))
    return [
        (i >= excl) & (i < i1),
        (i >= i1 + excl) & (i < i2),
        (i >= i2 + excl),
    ]


def compute_metrics(trace: Trace) -> Metrics:
    """Per-stage and overall average tracking error, as a percentage of the
    trace's reference amplitude, plus the final weight error.

    Each stage drops its first TRANSIENT_EXCLUDE (8 s), so a stage shorter
    than that comes out as nan, the same as a stage the run never reached.
    """
    masks = stage_masks(trace)
    e1 = trace.e[:, 0]
    stage_vals = tuple(average_error_pct(e1[m], trace.ref_amplitude) for m in masks)
    union = masks[0] | masks[1] | masks[2]
    overall = average_error_pct(e1[union], trace.ref_amplitude)
    final_w = float(np.max(np.abs(trace.w[-1] - trace.w_star)))
    return Metrics(trace.case_id, stage_vals, overall, final_w)


def lyapunov_monitor(
    p: Sequence[Sequence[float]],
    s_tilde: Sequence[Sequence[float]],
    e: np.ndarray,
    bracket: np.ndarray,
    u_rob: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-form value V = e.T P e and its analytic rate
    Vdot = -e.T S e + 2 s (bracket + u_rob), s = b.T P e, on every row.

    e is (rows, n); bracket and u_rob hold one value per row. bracket is
    the measured residual forcing (model error minus disturbance plus GP
    compensation). The sums go through numerics.dot on e's columns, left
    to right, so each row gets the same bits as quad_form on that row.
    """
    cols = list(np.transpose(e))
    v = quad_form(p, cols)
    s = dot(p[-1], cols)  # b.T P e
    vdot = -quad_form(s_tilde, cols) + 2.0 * s * (bracket + u_rob)
    return v, vdot


class StepKernel(NamedTuple):
    """The stepping core of one stage as generated functions (`step_kernel`).

    row(t, x, w) -> (cells, phi, e, xdot, u_total): the row at (t, x, w);
        cells are the row buffer's values in order, phi is what the
        regressor returned, e and xdot are tuples
    derivative(t, *z) -> z's derivative as a tuple, z being (x1..xn, w1..wm)
        on a step that learns, else (x1..xn) with w bound as it is
    step(t, x, w, xdot, phi, e) -> z after one RK4 step as a list, from
        the row at (t, x, w): k1 is xdot and, on a step that learns, the
        weight rates at (w, phi, e) on the stack as bound.
        numerics.rk4_step's arithmetic, written out
    """

    row: Callable
    derivative: Callable
    step: Callable


def step_kernel(
    cfg: ControllerConfig,
    p_last: Sequence[float],
    plant: Plant,
    reference: ReferenceModel,
    h: float,
    w: Sequence[float],
    *,
    learning: bool,
    disturbed: bool,
    gamma: float = 0.0,
    stack: HistoryStack | None = None,
    gp: GpModel | None = None,
) -> StepKernel:
    """The closed loop of one stage as a StepKernel bound to its constants.

    Given gp, an object with the GP's predict and predict_mean, the kernel
    compensates with it: predict on rows, predict_mean in stages; without
    it u_gp = 0. A step that learns needs gamma and the record stack, whose
    sums (`HistoryStack.sums`) are bound as they are now; a step that does
    not learn binds w. The source is compiled once per (n, m, learning,
    disturbed, gp), under a file name that tracebacks show.
    """
    n, m = cfg.order, len(w)
    key = (n, m, learning, disturbed, gp is not None)
    words = [word for word, on in zip(("learning", "disturbed", "gp"), key[2:]) if on]
    name = f"<{' '.join([f'step kernel n={n} m={m}', *words])}>"
    bind = compiled(name, lambda: _kernel_source(*key))["bind"]
    gram, phi_rhs = stack.sums(m) if learning else ((), ())
    predict = (gp.predict, gp.predict_mean) if gp is not None else (None, None)
    w_star = np.asarray(plant.ideal_weights, dtype=float).tolist()
    return StepKernel(
        *bind(
            cfg.gains, p_last, cfg.m, cfg.rho, w_star, w, gamma, gram, phi_rhs, h, 0.5 * h, h / 6.0,
            reference.trajectory, plant.regressor, plant.disturbance, *predict,
        )
    )


def _kernel_source(n, m, learning, disturbed, gp) -> str:
    """Source of bind(...), which returns StepKernel's three functions: the
    controller's law, the plant's chain and concurrent learning's update
    law, each from its module, on the scalars x1..xn, w1..wm, f1..fm."""
    x, w, f = symbols("x", n), symbols("w", m), symbols("f", m)
    e, ref = symbols("e", n), symbols("ref", n)
    chain, xdot = chain_source(n, m)
    update, wdot = update_source(n, m) if learning else ([], [])
    z, zdot = (x + w, xdot + wdot) if learning else (x, xdot)
    law_and_chain = [*law_source(n, m), *chain]

    def inputs(row: bool) -> list[str]:
        """The reference, the errors, phi, d and u_gp (and gp_var on a row) at (t, x)."""
        lines = [
            "x_ref, u_ref = trajectory(t)",
            f"{tuple_source(ref)} = x_ref",
            *(f"{ei} = {ri} - {xi}" for ei, ri, xi in zip(e, ref, x)),
            "phi = regressor(x)",
            f"{tuple_source(f)} = phi",
            "d = disturbance(t, x)" if disturbed else "d = 0.0",
        ]
        if gp:
            lines.append("u_gp, gp_var = predict(x)" if row else "u_gp = predict_mean(x)")
        else:
            lines.append("u_gp, gp_var = 0.0, 0.0" if row else "u_gp = 0.0")
        return lines

    cells = ["t", *x, *ref, *e, "u_fbl", "u_sfb", "u_ref", "u_gp", "u_rob", "u_total", *w]
    cells += ["gp_var", "d", "-u_fbl + u_total + u_gp - xd"]  # the last is the bracket
    row = function_source(
        "row(t, x, w)",
        [
            f"{tuple_source(x)} = x",
            f"{tuple_source(w)} = w",
            *inputs(row=True),
            *law_and_chain,
            f"return [{', '.join(cells)}], phi, ({tuple_source(e)}), ({tuple_source(xdot)}), u_total",
        ],
    )
    derivative = function_source(
        f"derivative(t, {', '.join(z)})",
        [f"x = [{', '.join(x)}]", *inputs(row=False), *law_and_chain, *update, f"return {tuple_source(zdot)}"],
    )

    # k1 is the row's xdot and, on a step that learns, the weight rates
    ks = [[*symbols("k1_", n), *wdot], *(symbols(f"k{k}_", len(z)) for k in (2, 3, 4))]

    def stage(k: int, at: str, scale: str) -> str:
        state = ", ".join(f"{zi} + {scale} * {ki}" for zi, ki in zip(z, ks[k - 2]))
        return f"{tuple_source(ks[k - 1])} = derivative({at}, {state})"

    combined = (f"{zi} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})" for zi, a, b, c, d in zip(z, *ks))
    learned = [f"{tuple_source(w)} = w", f"{tuple_source(f)} = phi", f"{tuple_source(e)} = e", *update]
    step = function_source(
        "step(t, x, w, xdot, phi, e)",
        [
            f"{tuple_source(x)} = x",
            *(learned if learning else []),
            f"{tuple_source(ks[0][:n])} = xdot",
            "tm = t + half",
            stage(2, "tm", "half"),
            stage(3, "tm", "half"),
            stage(4, "t + h", "h"),
            f"return [{', '.join(combined)}]",
        ],
    )
    constants = [
        f"{tuple_source(symbols('gain', n))} = gains",
        f"{tuple_source(symbols('p', n))} = p_last",
        f"{tuple_source(symbols('ws', m))} = w_star",
        *(stack_source(m) if learning else [f"{tuple_source(w)} = w"]),
    ]
    return function_source(
        "bind(gains, p_last, m_rob, rho, w_star, w, gamma, gram, phi_rhs, h, half, sixth,\n"
        "         trajectory, regressor, disturbance, predict, predict_mean)",
        [*constants, *"\n".join([row, derivative, step]).splitlines(), "return row, derivative, step"],
    )


def run_case(
    scenario: Scenario,
    cfg: ControllerConfig | None = None,
    learner: LearnerConfig | None = None,
    gp_cfg: GpConfig | None = None,
    seed: int = 0,
    plant: Plant | None = None,
    reference: ReferenceModel | None = None,
    csv_path=None,
) -> tuple[Trace, Metrics]:
    """Simulate one case and return its trace and metrics.

    Deterministic for a fixed (scenario, configs, seed): the seed, an
    integer >= 0, only feeds the random optimizer starts of the GP's first
    fit, and of a later refit whose ascent from the incumbent fails. The
    GP samples and refits on gp.SAMPLE_PERIOD and gp.REFIT_PERIOD, and
    compensates on stage-3 steps once fitted. The measured state
    derivative used for records, GP targets, and the monitor is the exact
    plant evaluation: each row's xdot, which is also its step's k1 (the
    kernel's `step` adds the weight rates on the stack after the row's
    record).

    After each step the new (x, w) must be finite with every |x_i| <=
    STATE_ESCAPE_LIMIT, else StateEscapeError (finite) or NonFiniteValueError
    (inf or nan); the final row's derivative must be finite too.

    Given csv_path, the trace is written there as `emit_trace` writes it:
    by a forked process while the run steps and, for the blocks that
    process has not reached after the last step, by the run itself
    (`_CsvWriter`). The run gives the file its name before it returns. A
    run that fails leaves neither that file nor a temporary or side one;
    a writer that fails fails the run with TraceWriteError. Without
    os.fork the CSV is written after the last step. The GP's first fit
    forks and reaps its own processes (`GpModel.fit`), so none outlives
    it; a later refit forks none.
    """
    if cfg is None:
        cfg = ControllerConfig()
    if learner is None:
        learner = LearnerConfig()
    if gp_cfg is None:
        gp_cfg = GpConfig()
    require_count("seed", seed, 0)

    if plant is None:
        plant = benchmark_plant()
    if reference is None:
        reference = sine_reference()

    n = plant.order
    if cfg.order != n:
        raise ValueError(f"controller has {cfg.order} gains, plant has order {n}")
    m_dim = plant.ideal_weights.size
    w0 = scenario.w0 if scenario.w0 is not None else INITIAL_WEIGHT_ESTIMATE
    if w0.shape != (m_dim,) or not np.all(np.isfinite(w0)):
        raise ValueError(f"w0 must be {m_dim} finite numbers")

    # the hot loop works on floats: P as rows, states as lists
    p_rows = compute_P(cfg).tolist()
    s_rows = weighting_matrix(cfg).tolist()
    w_star = plant.ideal_weights

    h = scenario.h
    n_steps = int(round(scenario.duration / h))
    i1, i2 = stage_rows(scenario.t1, scenario.t2, h)
    rec_every = max(1, int(round(learner.record_period / h)))
    samp_every = max(1, int(round(SAMPLE_PERIOD / h)))
    refit_every = max(1, int(round(REFIT_PERIOD / h)))

    stack = HistoryStack(learner.stack_capacity)
    model = GpModel(window=gp_cfg.window, starts=gp_cfg.starts, seed=seed) if scenario.gp_enabled else None

    rows = n_steps + 1
    # Row i of the run, stored with one assignment: t, x, x_ref, e, the
    # ControlBreakdown fields in their order, w, and gp_var, d_true and
    # the row's bracket for the monitor. The trace's float columns are
    # views of this buffer, never copies of it. The buffer is a shared
    # mapping, so a forked CSV writer sees each row once stored.
    widths = [1, n, n, n, len(ControlBreakdown._fields), m_dim, 3]
    splits = np.cumsum(widths[:-1])
    buf = np.frombuffer(mmap.mmap(-1, rows * sum(widths) * 8)).reshape(rows, sum(widths))

    def trace_of(start: int, stop: int) -> Trace:
        """Rows start..stop-1 as a Trace whose float columns view the
        buffer: the whole run's trace, or one block for the CSV writer.
        The monitor works row by row, so a block's V and Vdot are the
        whole trace's rows, bit for bit."""
        t_col, x_col, x_ref_col, e_col, bd_cols, w_col, rest = np.split(
            buf[start:stop], splits, axis=1
        )
        u_fbl, u_sfb, u_ref, u_gp, u_rob, u_total = bd_cols.T
        gp_var, d_true, bracket = rest.T
        v, vdot = lyapunov_monitor(p_rows, s_rows, e_col, bracket, u_rob)
        i = np.arange(start, stop)
        return Trace(
            case_id=scenario.case_id,
            h=h,
            t1=scenario.t1,
            t2=scenario.t2,
            w_star=w_star.copy(),
            ref_amplitude=reference.amplitude,
            t=t_col[:, 0],
            x=x_col,
            x_ref=x_ref_col,
            e=e_col,
            u_total=u_total,
            u_fbl=u_fbl,
            u_sfb=u_sfb,
            u_ref=u_ref,
            u_gp=u_gp,
            u_rob=u_rob,
            w=w_col,
            gp_var=gp_var,
            d_true=d_true,
            v=v,
            vdot=vdot,
            stage=1 + (i >= i1) + (i >= i2),
        )

    x = [0.0] * n
    w = w0.tolist()
    check_regressor_shape(plant, x)
    check_reference_shape(reference, n)

    def bind(flags, w):
        """The kernel of a step with these flags, on the stack as it is now."""
        learning, disturbed, gp = flags
        return step_kernel(
            cfg, p_rows[-1], plant, reference, h, w,
            learning=learning, disturbed=disturbed, gamma=learner.gamma_w, stack=stack,
            gp=model if gp else None,
        )

    writer = _CsvWriter(csv_path, rows, trace_of) if csv_path is not None and hasattr(os, "fork") else None
    flush_at = EMIT_BLOCK_ROWS - 1 if writer is not None else -1  # the row that completes a block
    bound = None  # the flags the kernel is bound for
    try:
        for i in range(rows):
            t = i * h

            # The one stage clock: the row, its records and samples, and every
            # RK4 evaluation of the step that starts here read these flags.
            stage = 1 if i < i1 else (2 if i < i2 else 3)
            learning = scenario.cl_enabled and stage == 1

            if model is not None and stage == 3 and (i - i2) % refit_every == 0 and len(model) >= 2:
                model.fit()

            gp = model is not None and stage == 3 and model.fitted
            flags = (learning, scenario.disturbed and stage > 1, gp)
            if flags != bound:
                row, _, step = bind(flags, w)
                bound = flags

            cells, phi, e, xdot, u_total = row(t, x, w)
            buf[i] = cells
            if i == flush_at:
                writer.send(i + 1)
                flush_at += EMIT_BLOCK_ROWS

            xdot_n_meas = xdot[-1]
            if learning and i % rec_every == 0 and stack.try_record(phi, xdot_n_meas, u_total):
                row, _, step = bind(flags, w)
            if model is not None and stage > 1 and (i - i1) % samp_every == 0:
                model.observe(x, training_target(xdot_n_meas, w, phi, u_total))

            if i < n_steps:
                z_next = step(t, x, w, xdot, phi, e)
                x_next, w_next = (z_next[:n], z_next[n:]) if learning else (z_next, w)
                # the run's one state check per step; nan fails the first test
                finite = all(map(math.isfinite, z_next))
                if not finite or max(map(abs, x_next)) > STATE_ESCAPE_LIMIT:
                    where = f"in the step from t={t:g} to t={t + h:g}: "
                    where += f"last finite state (x, w) = {x + w}, result {x_next + w_next}"
                    if finite:
                        raise StateEscapeError(f"state left |x| <= {STATE_ESCAPE_LIMIT:g} {where}")
                    raise NonFiniteValueError(f"state turned inf or nan {where}")
                x, w = x_next, w_next
            elif not all(map(math.isfinite, xdot)):  # no step follows the final row
                raise NonFiniteValueError(
                    f"inf or nan on the final row at t={t:g}: (x, w) = {x + w}, xdot = {list(xdot)}"
                )
        if writer is not None:
            writer.share_tail()
        # the whole trace and its metrics, while the writer formats its last blocks
        trace = trace_of(0, rows)
        metrics = compute_metrics(trace)
        if writer is not None:
            writer.finish()
        elif csv_path is not None:
            emit_trace(trace, csv_path)
    finally:
        # The run owns its CSV writer, as each fit owns its children: no
        # process outlives it. A failed run kills its writer and deletes its
        # files (a no-op once finish has named the CSV), and so reports its
        # own error.
        if writer is not None:
            writer.close(kill=True)
    return trace, metrics
