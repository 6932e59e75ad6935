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

The plant state and the weight estimate are integrated together as one
RK4 state so everything advances at a single integration order. The
control law is evaluated inside every integrator stage, and the row
evaluation that fills the trace at each step is the first stage: one
step costs four evaluations of the closed loop. The stepping core runs
on plain float lists; numpy holds the trace and does the per-run setup.
Each row is stored with one assignment into one preallocated buffer,
whose column views are the trace's arrays, and the quadratic-form
monitor runs once over the whole trace after the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Sequence

import numpy as np

from .concurrent_learning import HistoryStack, LearnerConfig, LearnerState, weight_update_derivative
from .controller import (
    ControlBreakdown,
    ControllerConfig,
    compute_control,
    compute_P,
    weighting_matrix,
)
from .errors import NonFiniteValueError, StateEscapeError
from .gp import GpConfig, GpModel, training_target
from .numerics import dot, quad_form, rk4_step
from .plant import (
    Plant,
    ReferenceModel,
    benchmark_plant,
    check_regressor_shape,
    eval_regressor,
    plant_step,
    sine_reference,
)

CASE_IDS = ("a", "b", "c", "d", "e")
INITIAL_WEIGHT_ESTIMATE = np.array([0.5, -1.3, 0.75])
STATE_ESCAPE_LIMIT = 1e3
# Seconds dropped at each stage start in the metrics, leaving the steady
# tail of each stage. The dominant closed-loop pole at the standard gains
# is ~ -1.06 1/s, and the error inherited across a stage boundary needs
# ~8 time constants to fall below the learned-compensation floors the
# per-stage averages are meant to compare.
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
    """One simulation case: stage boundaries, step size, and feature flags."""

    case_id: str
    cl_enabled: bool
    gp_enabled: bool
    disturbed: bool
    duration: float = 30.0
    h: float = 1e-3
    t1: float = 10.0
    t2: float = 20.0
    w0: np.ndarray | None = None

    def __post_init__(self):
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


def scenario_for_case(case_id: str, **overrides) -> Scenario:
    """Standard scenario for one of the named cases."""
    if case_id not in CASE_FLAGS:
        raise ValueError(f"unknown case {case_id!r}, expected one of {CASE_IDS}")
    cl, gp, disturbed = CASE_FLAGS[case_id]
    return Scenario(case_id=case_id, cl_enabled=cl, gp_enabled=gp, disturbed=disturbed, **overrides)


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
    gp_mean: np.ndarray
    gp_var: np.ndarray
    d_true: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    stage: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.t.size

    def named_columns(self) -> list[tuple[str, np.ndarray]]:
        """(name, column) pairs in the CSV column order."""
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
            ("gp_mean", self.gp_mean),
            ("gp_var", self.gp_var),
            ("d_true", self.d_true),
            ("V", self.v),
            ("Vdot", self.vdot),
            ("stage", self.stage),
        ]
        return cols


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


def compute_metrics(trace: Trace, ref_amplitude: float) -> Metrics:
    """Per-stage and overall average tracking error, plus the final weight error.

    Each stage drops its first TRANSIENT_EXCLUDE (8 s), so a stage shorter
    than that comes out as nan, the same as a stage the run never reached.
    """
    masks = stage_masks(trace)
    e1 = trace.e[:, 0]
    stage_vals = tuple(average_error_pct(e1[m], ref_amplitude) for m in masks)
    union = masks[0] | masks[1] | masks[2]
    overall = average_error_pct(e1[union], ref_amplitude)
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


def run_case(
    scenario: Scenario,
    cfg: ControllerConfig | None = None,
    learner: LearnerConfig | None = None,
    gp_cfg: GpConfig | None = None,
    seed: int = 0,
    plant: Plant | None = None,
    reference: ReferenceModel | None = None,
    ref_amplitude: float = 0.5,
    oracle_gp: bool = False,
    derivative_mode: str = "exact",
) -> tuple[Trace, Metrics]:
    """Simulate one case and return its trace and metrics.

    Deterministic for a fixed (scenario, configs, seed): the seed only
    feeds the GP hyperparameter optimizer starts. oracle_gp replaces the
    GP compensation with the exact residual (testing hook). With
    derivative_mode="fd" the measured state derivative used for records,
    GP targets, and the monitor is a backward difference instead of the
    exact plant evaluation.

    After each step the new (x, w) must be finite with every |x_i| <=
    STATE_ESCAPE_LIMIT, else StateEscapeError (finite) or NonFiniteValueError
    (inf or nan); the final row's derivative must be finite too.
    """
    if derivative_mode not in ("exact", "fd"):
        raise ValueError("derivative_mode must be 'exact' or 'fd'")
    if cfg is None:
        cfg = ControllerConfig()
    if learner is None:
        learner = LearnerConfig()
    if gp_cfg is None:
        gp_cfg = GpConfig()

    if plant is None:
        plant = benchmark_plant()
    if reference is None:
        reference = sine_reference(amplitude=ref_amplitude)

    n = plant.order
    if cfg.order != n:
        raise ValueError(f"controller has {cfg.order} gains, plant has order {n}")
    m_dim = plant.ideal_weights.size
    w0 = scenario.w0 if scenario.w0 is not None else INITIAL_WEIGHT_ESTIMATE
    if w0.shape != (m_dim,) or not np.all(np.isfinite(w0)):
        raise ValueError(f"w0 must be {m_dim} finite numbers")

    # the hot loop works on floats: P as rows, states as lists
    p_rows = compute_P(cfg).tolist()
    w_star = plant.ideal_weights
    w_star_list = w_star.tolist()

    h = scenario.h
    n_steps = int(round(scenario.duration / h))
    i1, i2 = stage_rows(scenario.t1, scenario.t2, h)
    rec_every = max(1, int(round(learner.record_period / h)))
    samp_every = max(1, int(round(gp_cfg.sample_period / h)))
    refit_every = max(1, int(round(gp_cfg.refit_period / h)))
    target_sign = -1.0 if gp_cfg.paper_literal_sign else 1.0

    stack = HistoryStack(learner.stack_capacity)
    lstate = LearnerState(gamma_w=learner.gamma_w, stack=stack)
    model = GpModel.from_config(gp_cfg, seed=seed) if scenario.gp_enabled and not oracle_gp else None

    rows = n_steps + 1
    # Row i of the run, stored with one assignment: t, x, x_ref, e, the
    # ControlBreakdown fields in their order, w, and gp_mean, gp_var,
    # d_true and the row's bracket for the monitor. The trace's float
    # columns are views of this buffer, never copies of it.
    widths = [1, n, n, n, len(ControlBreakdown._fields), m_dim, 4]
    buf = np.empty((rows, sum(widths)))

    x = [0.0] * n
    w = w0.tolist()
    check_regressor_shape(plant, x)
    no_learning = [0.0] * m_dim
    running_mismatch = 0.0

    def evaluate(t, x, w, m_value, row):
        """The closed loop at (t, x, w) under the current step's flags:
        control law and plant step.

        Returns (x_ref, e, phi, gp_var, bd, xdot, d). On a row (row=True)
        the GP term comes with its posterior variance; inside integrator
        stages only the mean is needed.
        """
        x_ref, xdot_n_ref = reference.trajectory(t)
        e = list(map(sub, x_ref, x))
        phi = eval_regressor(plant, x)
        d = plant.disturbance(t, x) if disturbed else 0.0
        g, g_var = 0.0, 0.0
        if compensating:
            if oracle_gp:
                g = d - dot(list(map(sub, w, w_star_list)), phi)
            elif model.fitted:
                g, g_var = model.predict(x) if row else (model.predict_mean(x), 0.0)
        bd = compute_control(cfg, p_rows, w, phi, e, xdot_n_ref, g, m_value=m_value)
        xdot = plant_step(plant, x, phi, bd.u_total, d)
        return x_ref, e, phi, g_var, bd, xdot, d

    def weight_rate(w, phi, e):
        if learning:
            return weight_update_derivative(lstate, w, phi, e, p_rows)
        return no_learning

    def derivative(tt, zz):
        # The row's evaluation is the first RK4 stage; its weight rate is
        # taken only after try_record may have changed the stack.
        if zz is z:
            return k1
        xs, ws = zz[:n], zz[n:]
        _, e_s, phi_s, _, _, xdot_s, _ = evaluate(tt, xs, ws, m_value, row=False)
        return xdot_s + weight_rate(ws, phi_s, e_s)

    prev_xn = None
    for i in range(rows):
        t = i * h

        # The one stage clock: the row, its records and samples, and every
        # RK4 evaluation of the step that starts here read these flags.
        stage = 1 if i < i1 else (2 if i < i2 else 3)
        learning = scenario.cl_enabled and stage == 1
        disturbed = scenario.disturbed and stage > 1
        compensating = scenario.gp_enabled and stage == 3

        if model is not None and stage == 3 and (i - i2) % refit_every == 0 and len(model) >= 2:
            model.fit()

        m_value = cfg.m
        if cfg.m_auto:
            m_value = min(max(1.1 * running_mismatch, 0.1), 10.0)

        x_ref, e, phi, gp_var, bd, xdot, d = evaluate(t, x, w, m_value, row=True)

        if derivative_mode == "fd" and prev_xn is not None:
            xdot_n_meas = (x[-1] - prev_xn) / h
        else:
            xdot_n_meas = xdot[-1]
        # -u_fbl is w . phi
        bracket = -bd.u_fbl + bd.u_total + bd.u_gp - xdot_n_meas
        buf[i] = [t, *x, *x_ref, *e, *bd, *w, bd.u_gp, gp_var, d, bracket]

        running_mismatch = max(running_mismatch, abs(bracket))

        if learning and i % rec_every == 0:
            stack.try_record(phi, xdot_n_meas, bd.u_total)
        if model is not None and stage > 1 and (i - i1) % samp_every == 0:
            model.observe(x, target_sign * training_target(xdot_n_meas, w, phi, bd.u_total))

        if i < n_steps:
            prev_xn = x[-1]
            z = x + w
            k1 = xdot + weight_rate(w, phi, e)
            z_next = rk4_step(derivative, t, z, h)
            x, w = z_next[:n], z_next[n:]
            # the run's one state check per step; nan fails the first test
            finite = all(map(math.isfinite, z_next))
            if not finite or max(map(abs, x)) > STATE_ESCAPE_LIMIT:
                where = f"in the step from t={t:g} to t={t + h:g}: "
                where += f"last finite state (x, w) = {z}, result {z_next}"
                if finite:
                    raise StateEscapeError(f"state left |x| <= {STATE_ESCAPE_LIMIT:g} {where}")
                raise NonFiniteValueError(f"state turned inf or nan {where}")
        elif not all(map(math.isfinite, xdot)):  # no step follows the final row
            raise NonFiniteValueError(
                f"inf or nan on the final row at t={t:g}: (x, w) = {x + w}, xdot = {xdot}"
            )

    t_col, x_col, x_ref_col, e_col, bd_cols, w_col, rest = np.split(
        buf, np.cumsum(widths[:-1]), axis=1
    )
    u_fbl, u_sfb, u_ref, u_gp, u_rob, u_total = bd_cols.T
    gp_mean, gp_var, d_true, bracket = rest.T
    v, vdot = lyapunov_monitor(p_rows, weighting_matrix(cfg).tolist(), e_col, bracket, u_rob)
    stage = np.full(rows, 3)
    stage[:i2] = 2
    stage[:i1] = 1
    tr = Trace(
        case_id=scenario.case_id,
        h=h,
        t1=scenario.t1,
        t2=scenario.t2,
        w_star=w_star.copy(),
        ref_amplitude=ref_amplitude,
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
        gp_mean=gp_mean,
        gp_var=gp_var,
        d_true=d_true,
        v=v,
        vdot=vdot,
        stage=stage,
    )
    return tr, compute_metrics(tr, ref_amplitude)
