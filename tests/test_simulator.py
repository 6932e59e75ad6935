import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from adaptive_fbl import simulator
from adaptive_fbl.concurrent_learning import LearnerConfig
from adaptive_fbl.controller import ControllerConfig, compute_P, weighting_matrix
from adaptive_fbl.errors import NonFiniteValueError, StateEscapeError
from adaptive_fbl.gp import REFIT_PERIOD, GpConfig
from adaptive_fbl.numerics import quad_form
from adaptive_fbl.plant import (
    Plant,
    ReferenceModel,
    benchmark_plant,
    integrator_chain,
    sine_reference,
)
from adaptive_fbl.simulator import (
    CASE_FLAGS,
    Scenario,
    average_error_pct,
    compute_metrics,
    lyapunov_monitor,
    run_case,
    scenario_for_case,
    stage_masks,
    stage_rows,
)

W_STAR = np.array([1.0, -1.0, 0.5])


def case_trace(case_runs, cid):
    return case_runs[cid][0]


def benchmark_disturbance(tr):
    """cos x1 + x2 on every row, with the float arithmetic the plant uses."""
    return np.array([math.cos(x1) + x2 for x1, x2 in tr.x.tolist()])


def benchmark_phi(x):
    return np.stack(
        [np.sin(x[:, 0]), np.abs(x[:, 1]) * x[:, 0], np.exp(x[:, 0] * x[:, 1])], axis=1
    )


class TestScenario:
    def test_case_profiles(self):
        assert CASE_FLAGS["a"] == (False, False, False)
        assert CASE_FLAGS["b"] == (True, False, False)
        assert CASE_FLAGS["c"] == (True, False, True)
        assert CASE_FLAGS["d"] == (False, True, True)
        assert CASE_FLAGS["e"] == (True, True, True)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            scenario_for_case("f")

    def test_flag_contradiction_rejected(self):
        """The case flags live on the scenario alone, so no second copy can
        contradict them, and the robustness term has no switch but its
        gain m."""
        with pytest.raises(TypeError):
            ControllerConfig(gp_enabled=False)
        with pytest.raises(TypeError):
            ControllerConfig(rob_enabled=False)
        with pytest.raises(TypeError):
            LearnerConfig(cl_enabled=False)
        with pytest.raises(TypeError):
            scenario_for_case("a", rob_enabled=False)
        with pytest.raises(TypeError):
            Scenario("a", cl_enabled=True)

    @pytest.mark.parametrize(
        "h, t1, t2, empty",
        [
            (0.01, 0.004, 20.0, "stage 1"),  # round(t1/h) == 0
            (0.5, 10.0, 10.2, "stage 2"),  # round(t1/h) == round(t2/h), t1 < t2
        ],
    )
    def test_step_that_empties_a_stage_rejected(self, h, t1, t2, empty):
        """A learning case whose stage 1 rounds away would run in stage 2
        from its first row and never learn, without an error."""
        with pytest.raises(ValueError, match=f"leaves {empty} .* without rows"):
            scenario_for_case("b", h=h, t1=t1, t2=t2, duration=2.0)
        # t1 == t2 asks for no stage 2, and gets none
        assert scenario_for_case("b", h=0.5, t1=10.0, t2=10.0).t2 == 10.0

    @pytest.mark.parametrize(
        "make, name, value",
        [
            (make, name, value)
            for make, names in [
                (ControllerConfig, ["m", "rho", "r"]),
                (LearnerConfig, ["gamma_w", "stack_capacity", "record_period"]),
                (GpConfig, ["window", "starts"]),
                (Scenario, ["h", "duration", "t1", "t2"]),
            ]
            for name in names
            for value in [math.nan, math.inf, -math.inf]
        ]
        + [
            (ControllerConfig, "gains", [20.0, math.nan]),
            (ControllerConfig, "q", [[1.0, 0.0], [0.0, math.inf]]),
        ],
    )
    def test_library_configs_reject_non_finite_values(self, make, name, value):
        """inf and nan fail at construction, naming the field, not in the
        middle of a run: `nan <= 0` is False, so a range check passes it."""
        if make is Scenario:
            make = functools.partial(scenario_for_case, "b")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [(name, value) for name in ("stack_capacity", "window", "starts", "seed") for value in (2.5, True)]
        + [("seed", -1)],
    )
    def test_counts_must_be_integers(self, monkeypatch, name, value):
        """A fractional, bool or negative count fails before the first step,
        naming its field. Unchecked, a stack capacity of 2.5 fails once the
        stack is full, 1.5 starts or a seed of 2.5 at the first fit, and
        True passes as 1."""

        def unbound(*args, **kwargs):
            raise AssertionError("a stepping kernel was bound")

        monkeypatch.setattr(simulator, "step_kernel", unbound)
        run = functools.partial(run_case, scenario_for_case("e", h=0.01, duration=2.0, t1=0.5, t2=1.0))
        start = {
            "stack_capacity": lambda v: run(learner=LearnerConfig(stack_capacity=v)),
            "window": lambda v: run(gp_cfg=GpConfig(window=v)),
            "starts": lambda v: run(gp_cfg=GpConfig(starts=v)),
            "seed": lambda v: run(seed=v),
        }[name]
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            start(value)

    def test_controller_order_must_match_plant(self, monkeypatch):
        """Three gains on the order-2 plant fail before a stepping kernel is
        ever bound, instead of failing inside its first row."""
        calls = Counter()
        original = simulator.step_kernel

        def counted(*args, **kwargs):
            calls["step_kernel"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(simulator, "step_kernel", counted)
        cfg = ControllerConfig(gains=(20.0, 20.0, 20.0))
        with pytest.raises(ValueError, match="3 gains, plant has order 2"):
            run_case(scenario_for_case("a", duration=1.0), cfg=cfg)
        assert calls["step_kernel"] == 0


class TestTraceContracts:
    def test_rows_uniform_grid(self, case_runs):
        tr = case_trace(case_runs, "a")
        assert tr.n_rows == 30001
        dt = np.diff(tr.t)
        assert np.all(dt > 0)
        np.testing.assert_allclose(dt, tr.h, rtol=1e-9)

    def test_quadratic_form_column_consistent(self, case_runs):
        tr = case_trace(case_runs, "e")
        p = compute_P(ControllerConfig(gains=np.array([20.0, 20.0])))
        v = np.einsum("ij,jk,ik->i", tr.e, p, tr.e)
        assert np.max(np.abs(v - tr.v)) <= 1e-12

    def test_breakdown_identity_every_row(self, case_runs):
        for cid in ("a", "c", "e"):
            tr = case_trace(case_runs, cid)
            total = tr.u_fbl + tr.u_sfb + tr.u_ref - tr.u_gp - tr.u_rob
            np.testing.assert_array_equal(total, tr.u_total)

    def test_robustness_bounded(self, case_runs):
        for cid in ("a", "c", "e"):
            tr = case_trace(case_runs, cid)
            assert np.max(np.abs(tr.u_rob)) <= 1.0 + 1e-15

    def test_float_columns_are_views_of_one_buffer(self, case_runs):
        """run_case stores each row once; the trace's float columns view
        that one buffer instead of holding copies of it (only V, Vdot and
        the stage column are arrays of their own)."""
        tr = case_trace(case_runs, "e")
        own = {"V", "Vdot", "stage"}
        cols = [col for name, col in tr.named_columns() if name not in own]
        bases = {id(col.base) for col in cols}
        assert len(bases) == 1 and cols[0].base is not None
        base = cols[0].base
        assert all(np.shares_memory(col, base) for col in cols)

    def test_stage_column(self, case_runs):
        tr = case_trace(case_runs, "e")
        i = np.arange(tr.n_rows)
        np.testing.assert_array_equal(tr.stage[i < 10000], 1)
        np.testing.assert_array_equal(tr.stage[(i >= 10000) & (i < 20000)], 2)
        np.testing.assert_array_equal(tr.stage[i >= 20000], 3)


class TestStageGating:
    def test_gp_silent_before_compensation_stage(self, case_runs):
        for cid in ("d", "e"):
            tr = case_trace(case_runs, cid)
            assert np.all(tr.u_gp[tr.t < 20.0] == 0.0)
            assert np.any(tr.u_gp[tr.t >= 20.0] != 0.0)

    def test_disturbance_gate(self, case_runs):
        for cid in ("c", "d", "e"):
            tr = case_trace(case_runs, cid)
            assert np.all(tr.d_true[tr.t < 10.0] == 0.0)
            assert np.any(tr.d_true[tr.t >= 10.0] != 0.0)
        for cid in ("a", "b"):
            tr = case_trace(case_runs, cid)
            assert np.all(tr.d_true == 0.0)

    def test_weights_frozen_after_training_stage(self, case_runs):
        for cid in ("b", "c", "e"):
            tr = case_trace(case_runs, cid)
            after = tr.w[tr.t >= 10.0]
            np.testing.assert_array_equal(after, np.broadcast_to(after[0], after.shape))

    def test_fixed_weight_cases_never_adapt(self, case_runs):
        for cid in ("a", "d"):
            tr = case_trace(case_runs, cid)
            np.testing.assert_array_equal(tr.w, np.broadcast_to(tr.w[0], tr.w.shape))
            np.testing.assert_allclose(tr.w[0], [0.5, -1.3, 0.75])


class OracleGp:
    """Stand-in for simulator.GpModel on the benchmark plant that learns the
    exact residual. Its targets are d(x) - (w - w*) . phi(x), so its fit
    solves w - w* by least squares from the targets minus d(x), and its
    mean is d(x) - (w - w*) . phi(x) at the solved weights, with no
    variance."""

    def __init__(self, **settings):
        self.plant = benchmark_plant()
        self.inputs, self.targets = [], []
        self.fitted = False

    def __len__(self):
        return len(self.targets)

    def observe(self, x, y):
        self.inputs.append(list(x))
        self.targets.append(y)

    def d(self, x):
        return self.plant.disturbance(0.0, x)

    def fit(self):
        phi = np.array([self.plant.regressor(x) for x in self.inputs])
        d = np.array([self.d(x) for x in self.inputs])
        self.w_err = np.linalg.lstsq(phi, d - np.array(self.targets), rcond=None)[0]
        self.fitted = True

    def predict_mean(self, x):
        return self.d(x) - float(self.w_err @ np.asarray(self.plant.regressor(x)))

    def predict(self, x):
        return self.predict_mean(x), 0.0


def assert_stage_clock(tr, scn):
    """Stage column, disturbance, learning and compensation all switch on
    the rows (i1, i2) = stage_rows(t1, t2, h)."""
    i1, i2 = stage_rows(scn.t1, scn.t2, scn.h)
    i = np.arange(tr.n_rows)
    np.testing.assert_array_equal(tr.stage, np.where(i < i1, 1, np.where(i < i2, 2, 3)))
    quiet = tr.stage == 1
    assert np.all(tr.d_true[quiet] == 0.0)
    if scn.disturbed:
        np.testing.assert_array_equal(tr.d_true[~quiet], benchmark_disturbance(tr)[~quiet])
    else:
        assert np.all(tr.d_true == 0.0)
    # no step from a row past stage 1 moves the weights
    np.testing.assert_array_equal(tr.w[i1 + 1 :], tr.w[i1:-1])
    if scn.cl_enabled and i1 < tr.n_rows:
        assert np.any(tr.w[i1] != tr.w[i1 - 1])
    assert np.all(tr.u_gp[:i2] == 0.0)


class TestStageClock:
    def test_benchmark_plant_quiet_in_undisturbed_cases(self):
        """An explicitly passed benchmark plant is disturbed only where
        the case says so."""
        for cid in ("a", "b"):
            tr, _ = run_case(scenario_for_case(cid, h=0.01, duration=12.0), plant=benchmark_plant())
            assert np.all(tr.d_true == 0.0)

    def test_disturbance_follows_t1(self):
        scn = scenario_for_case("c", h=0.01, duration=9.0, t1=5.0, t2=8.0)
        tr, _ = run_case(scn)
        assert_stage_clock(tr, scn)
        assert tr.d_true[500] != 0.0

    def test_switch_on_a_step_that_does_not_divide_t1(self):
        """At h = 0.003 the first stage-2 row is t = 9.999: it is
        disturbed, and the weights stop there."""
        scn = scenario_for_case("c", h=0.003, duration=10.05)
        tr, _ = run_case(scn)
        assert tr.t[3333] == pytest.approx(9.999)
        assert tr.stage[3333] == 2 and tr.d_true[3333] != 0.0
        assert_stage_clock(tr, scn)

    @settings(max_examples=15)
    @given(
        h=st.sampled_from([0.002, 0.003, 0.005, 0.01]),
        t1=st.floats(0.1, 2.0),
        gap=st.floats(0.2, 1.5),
        duration=st.floats(0.5, 3.0),
    )
    def test_gates_switch_at_stage_rows(self, h, t1, gap, duration):
        for cid in ("c", "d", "e"):
            scn = scenario_for_case(cid, h=h, t1=t1, t2=t1 + gap, duration=duration)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulator, "GpModel", OracleGp)
                tr, _ = run_case(scn)
            assert_stage_clock(tr, scn)
            _, i2 = stage_rows(scn.t1, scn.t2, h)
            if scn.gp_enabled and i2 < tr.n_rows:
                assert tr.u_gp[i2] != 0.0


class TestErrorDynamicsConsistency:
    def test_finite_difference_matches_model(self, case_runs):
        """Central-difference de/dt against the closed-loop error field,
        away from stage boundaries where the forcing is discontinuous."""
        tr = case_trace(case_runs, "c")
        a, b = integrator_chain(2)
        k = np.array([20.0, 20.0])
        a_cl = a - np.outer(b, k)
        phi = benchmark_phi(tr.x)
        bracket = (
            np.einsum("ij,ij->i", tr.w - W_STAR, phi) - tr.d_true + tr.u_gp + tr.u_rob
        )
        rhs = tr.e @ a_cl.T + np.outer(bracket, b)
        fd = (tr.e[2:] - tr.e[:-2]) / (2 * tr.h)
        t_mid = tr.t[1:-1]
        smooth = ((t_mid > 0.5) & (t_mid < 9.5)) | ((t_mid > 10.5) & (t_mid < 19.5)) | (
            (t_mid > 20.5) & (t_mid < 29.5)
        )
        err = np.max(np.abs(fd[smooth] - rhs[1:-1][smooth]))
        assert err <= 1e-4


def linear_loop_error(duration, h=1e-3):
    """Max |e_sim - e_analytic| on the linear closed loop: ideal weights,
    no disturbance, and no extra terms, so the tracking error follows the
    pure linear error system."""
    scn = scenario_for_case("a", duration=duration, h=h, w0=W_STAR.copy())
    cfg = ControllerConfig(gains=np.array([20.0, 20.0]), m=0.0)
    trace, _ = run_case(scn, cfg=cfg)
    a, b = integrator_chain(2)
    a_cl = a - np.outer(b, cfg.gains)
    # eigen-decomposition oracle, independent of the integrator
    lam, vecs = np.linalg.eig(a_cl)
    coeffs = np.linalg.solve(vecs, np.array([0.0, 0.5]))
    analytic = np.real(
        np.einsum("tk,jk->tj", np.exp(np.outer(trace.t, lam)) * coeffs, vecs)
    )
    return float(np.max(np.abs(trace.e - analytic)))


class TestLinearClosedLoopEquivalence:
    def test_matches_analytic_error_solution(self):
        assert linear_loop_error(2.0) <= 1e-4

    def test_fourth_order_convergence_end_to_end(self):
        """Halving the step divides the error of the whole closed loop by
        2**4: the row evaluation reused as the first stage keeps RK4 order."""
        ratio = linear_loop_error(5.0, h=0.01) / linear_loop_error(5.0, h=0.005)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


class TestSteppingCore:
    def test_four_closed_loop_evaluations_per_step(self, monkeypatch):
        """A step evaluates the closed loop four times, once per RK4 stage:
        its row's evaluation is the first stage, k1, and the step's three
        later stages are one evaluation each. Only a step that learns
        integrates w with x."""
        counts = Counter()
        plant, reference = benchmark_plant(), sine_reference()

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)

            return call

        counted_plant = Plant(
            order=2,
            ideal_weights=plant.ideal_weights,
            regressor=counted("regressor", plant.regressor),
            disturbance=plant.disturbance,
        )
        bind = simulator.step_kernel
        state_sizes, step_evaluations = [], []

        def observed(*args, **kwargs):
            kernel = bind(*args, **kwargs)

            def step(*args):
                before = counts["regressor"]
                z_next = kernel.step(*args)
                state_sizes.append(len(z_next))
                step_evaluations.append(counts["regressor"] - before)
                return z_next

            return kernel._replace(step=step)

        monkeypatch.setattr(simulator, "step_kernel", observed)
        learning, steps = 10, 20
        scn = scenario_for_case("b", duration=steps * 1e-3, t1=learning * 1e-3, t2=0.015)
        counted_reference = ReferenceModel(counted("trajectory", reference.trajectory), reference.amplitude)
        run_case(scn, plant=counted_plant, reference=counted_reference)
        # three stages inside each step; the row's evaluation is its k1
        assert step_evaluations == [3] * steps
        # each step's row and three stages, the final row, and the shape checks
        assert counts["trajectory"] == 4 * steps + 2
        assert counts["regressor"] == 4 * steps + 2
        # (x, w) on learning steps, x alone after them
        assert state_sizes == [5] * learning + [2] * (steps - learning)

    def test_one_learning_kernel_for_any_stack(self, monkeypatch):
        """An empty record stack binds zero sums, so case b compiles one
        kernel for its learning steps, before and after the first record,
        and one for the steps after learning."""
        names = set()
        compiled = simulator.compiled

        def recorded(name, source):
            names.add(name)
            return compiled(name, source)

        monkeypatch.setattr(simulator, "compiled", recorded)
        run_case(scenario_for_case("b", h=1e-3))
        assert sorted(names) == ["<step kernel n=2 m=3 >", "<step kernel n=2 m=3 learning>"]


class TestMetrics:
    def make_trace(self, e1, h=1e-3):
        n = e1.size
        tr_args = dict(
            case_id="x",
            h=h,
            t1=10.0,
            t2=20.0,
            w_star=W_STAR.copy(),
            ref_amplitude=0.5,
            t=np.arange(n) * h,
            x=np.zeros((n, 2)),
            x_ref=np.zeros((n, 2)),
            e=np.column_stack([e1, np.zeros(n)]),
            u_total=np.zeros(n),
            u_fbl=np.zeros(n),
            u_sfb=np.zeros(n),
            u_ref=np.zeros(n),
            u_gp=np.zeros(n),
            u_rob=np.zeros(n),
            w=np.tile(W_STAR, (n, 1)),
            gp_var=np.zeros(n),
            d_true=np.zeros(n),
            v=np.zeros(n),
            vdot=np.zeros(n),
            stage=np.ones(n, dtype=int),
        )
        from adaptive_fbl.simulator import Trace

        return Trace(**tr_args)

    def test_zero_error(self):
        assert average_error_pct(np.zeros(100), 0.5) == 0.0

    def test_constant_error(self):
        assert abs(average_error_pct(np.full(100, 0.05), 0.5) - 10.0) <= 1e-12

    def test_rectified_sine(self):
        t = np.arange(0.0, 2.0 * np.pi, 1e-3)
        val = average_error_pct(0.05 * np.abs(np.sin(t)), 0.5)
        assert abs(val - 10.0 * 2.0 / np.pi) <= 1e-2

    def test_stage_windows_exclude_transients(self):
        e1 = np.ones(30001)
        tr = self.make_trace(e1)
        masks = stage_masks(tr)
        assert masks[0].sum() == 2000  # [8, 10) seconds
        assert masks[1].sum() == 2000
        assert masks[2].sum() == 2001  # stage 3 includes the final row
        m = compute_metrics(tr)
        assert m.overall_error_pct == pytest.approx(200.0)

    def test_run_normalises_by_its_references_amplitude(self):
        """The reference carries its amplitude into the trace, and the
        metrics state the error as a percentage of it."""
        tr, m = run_case(scenario_for_case("a", h=0.01), reference=sine_reference(amplitude=0.25))
        assert tr.ref_amplitude == 0.25
        assert m.stage_error_pct[0] == average_error_pct(tr.e[stage_masks(tr)[0], 0], 0.25)

    def test_final_weight_error(self, case_runs):
        tr, metrics = case_runs["a"]
        assert metrics.final_weight_error == pytest.approx(0.5)


class TestLyapunovMonitor:
    """The monitor runs once over a whole trace, on arrays of rows."""

    def test_zero_error(self):
        p = np.array([[1.025, 0.025], [0.025, 0.02625]])
        s = np.eye(2)
        v, vdot = lyapunov_monitor(p, s, np.zeros((4, 2)), np.zeros(4), np.zeros(4))
        assert np.all(v == 0.0) and np.all(vdot == 0.0)

    def test_scalar_quadratic_form(self):
        e = np.array([[2.0], [-1.0], [0.5]])
        v, _ = lyapunov_monitor(np.array([[0.5]]), np.array([[1.0]]), e, np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(v, [2.0, 0.5, 0.125])

    @settings(max_examples=60)
    @given(data=st.data(), n=st.integers(1, 3), rows=st.integers(1, 40))
    def test_blocks_of_rows_give_the_whole_traces_bits(self, data, n, rows):
        """A run's CSV writer computes V and Vdot block by block: on any
        contiguous row blocks the monitor gives the bits of the same rows
        of the whole-trace result."""
        cell = st.floats(-1e3, 1e3, allow_nan=False)
        p, s_tilde = (data.draw(arrays(float, (n, n), elements=cell)).tolist() for _ in range(2))
        e = data.draw(arrays(float, (rows, n), elements=cell))
        bracket, u_rob = (data.draw(arrays(float, rows, elements=cell)) for _ in range(2))
        cuts = sorted(data.draw(st.lists(st.integers(0, rows), max_size=4)))
        bounds = list(zip([0, *cuts], [*cuts, rows]))
        whole = lyapunov_monitor(p, s_tilde, e, bracket, u_rob)
        blocks = [lyapunov_monitor(p, s_tilde, e[a:b], bracket[a:b], u_rob[a:b]) for a, b in bounds]
        for k in (0, 1):
            assert np.concatenate([block[k] for block in blocks]).tobytes() == whole[k].tobytes()

    @settings(max_examples=10)
    @given(
        case=st.sampled_from(simulator.CASE_IDS),
        w0=arrays(float, 3, elements=st.floats(-2.0, 2.0)),
        duration=st.floats(1.0, 2.0),
        t1=st.floats(0.1, 1.0),
        gap=st.floats(0.01, 1.0),
    )
    def test_rate_is_the_derivative_of_the_value(self, case, w0, duration, t1, gap):
        """Along a run, Vdot is dV/dt: a central difference of V matches it
        away from stage switches and GP refits, where the forcing jumps. The
        difference's own error is about h**2/6 times V's third derivative,
        that is Vdot's second difference over 6, so each row is held to
        three times the largest such estimate within two rows of it."""
        h = 1e-3
        scn = scenario_for_case(case, h=h, duration=duration, t1=t1, t2=t1 + gap, w0=w0)
        tr, _ = run_case(scn)
        v, vdot = tr.v, tr.vdot
        fd = (v[2:] - v[:-2]) / (2 * h)
        truncation = np.abs(vdot[2:] - 2 * vdot[1:-1] + vdot[:-2]) / 6
        bound = 3 * np.pad(sliding_window_view(truncation, 5).max(axis=1), 2, mode="edge") + 1e-9
        i = np.arange(1, tr.n_rows - 1)
        i1, i2 = stage_rows(scn.t1, scn.t2, h)
        smooth = (np.abs(i - i1) > 1) & (np.abs(i - i2) > 1)
        if scn.gp_enabled:
            refit_every = round(REFIT_PERIOD / h)
            smooth &= (i < i2) | ((i - i2 + 1) % refit_every > 2)
        assert np.all(np.abs(fd - vdot[1:-1])[smooth] <= bound[smooth])

    def test_case_e_columns_match_row_by_row_formulas(self, case_runs):
        """V has the bits of a per-row quad_form; Vdot is -e'Se + 2 s
        (bracket + u_rob) with the bracket rebuilt from the trace's own
        columns, the measured xdot_n being w*.phi(x) + u_total + d_true."""
        tr = case_trace(case_runs, "e")
        cfg = ControllerConfig(gains=np.array([20.0, 20.0]))
        p = compute_P(cfg).tolist()
        s_tilde = weighting_matrix(cfg)
        v_rows = np.array([quad_form(p, e) for e in tr.e.tolist()])
        np.testing.assert_array_equal(tr.v, v_rows)

        xdot_n = benchmark_phi(tr.x) @ W_STAR + tr.u_total + tr.d_true
        bracket = -tr.u_fbl + tr.u_total + tr.u_gp - xdot_n
        s_var = tr.e @ np.array(p[-1])
        vdot = -np.einsum("ij,jk,ik->i", tr.e, s_tilde, tr.e) + 2.0 * s_var * (bracket + tr.u_rob)
        assert np.max(np.abs(tr.vdot - vdot)) <= 1e-9

    @pytest.mark.parametrize("cid", ["b", "c", "e"])
    def test_composite_function_falls_through_stage_one(self, case_runs, cid):
        """The paper's composite Lyapunov function V_c = e'Pe + (w - w*)'(w
        - w*)/gamma_w strictly falls from each stage-1 row to the next in
        the cases that learn the weights: the feedback law and concurrent
        learning bring the tracking and weight errors down together."""
        tr = case_trace(case_runs, cid)
        rows = tr.stage == 1
        w_err = tr.w[rows] - tr.w_star
        v_c = tr.v[rows] + np.einsum("ij,ij->i", w_err, w_err) / LearnerConfig().gamma_w
        rises = np.flatnonzero(np.diff(v_c) >= 0.0)
        assert rises.size == 0, f"V_c rises at stage-1 rows {rises[:5]} of {v_c.size}"

    def test_negative_rate_when_gain_dominates(self, case_runs):
        """Wherever the robustness gain dominates the measured residual and
        the sliding variable is outside the boundary layer, the
        quadratic-form rate must be negative."""
        tr = case_trace(case_runs, "e")
        cfg = ControllerConfig(gains=np.array([20.0, 20.0]))
        p = compute_P(cfg)
        phi = benchmark_phi(tr.x)
        bracket = np.einsum("ij,ij->i", tr.w - W_STAR, phi) - tr.d_true + tr.u_gp
        s_var = tr.e @ p[-1]
        applicable = (np.abs(bracket) < cfg.m) & (np.abs(s_var) > cfg.rho)
        assert np.count_nonzero(applicable) > 0  # the check must not be vacuous
        assert np.all(tr.vdot[applicable] < 0.0)


class TestCaseOrderings:
    def test_learning_beats_fixed_mismatch(self, case_runs):
        assert case_runs["b"][1].overall_error_pct < case_runs["a"][1].overall_error_pct

    def test_compensation_beats_raw_disturbance(self, case_runs):
        assert case_runs["e"][1].stage_error_pct[2] < case_runs["c"][1].stage_error_pct[2]

    def test_mismatch_case_tracks_like_learned_case(self, case_runs):
        d3 = case_runs["d"][1].stage_error_pct[2]
        e3 = case_runs["e"][1].stage_error_pct[2]
        assert d3 <= 2.0 * e3


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        scn = scenario_for_case("c", duration=3.0)
        tr1, _ = run_case(scn, seed=7)
        tr2, _ = run_case(scn, seed=7)
        for (name, col1), (_, col2) in zip(tr1.named_columns(), tr2.named_columns()):
            assert np.array_equal(col1, col2), name


class TestOracleInjection:
    def test_perfect_compensation_bounds_the_gp_case(self, case_runs, monkeypatch):
        """Compensating with the exact residual bounds what the learned
        model can achieve."""
        monkeypatch.setattr(simulator, "GpModel", OracleGp)
        tr, metrics = run_case(scenario_for_case("e"))
        b_stage1 = case_runs["b"][1].stage_error_pct[0]
        assert metrics.stage_error_pct[2] <= 1.1 * b_stage1


class TestStateEscape:
    def test_runaway_state_aborts_with_diagnostic(self):
        runaway = Plant(
            order=2,
            ideal_weights=np.array([0.0]),
            regressor=lambda x: np.array([0.0]),
            disturbance=lambda t, x: 1e5,
            name="runaway",
        )
        # the disturbance acts from t1 on
        scn = scenario_for_case("c", duration=5.0, t1=0.5, w0=np.array([0.0]))
        with pytest.raises(StateEscapeError, match="state left"):
            run_case(scn, plant=runaway)


def nan_disturbed_plant(after=0.0):
    """The benchmark regressor and weights with a disturbance that is nan
    from t = after on (it acts only on a scenario's disturbed stages)."""
    return Plant(
        order=2,
        ideal_weights=W_STAR.copy(),
        regressor=benchmark_plant().regressor,
        disturbance=lambda t, x: math.nan if t >= after else 0.0,
    )


class TestOneStateCheckPerStep:
    @pytest.mark.parametrize(
        "scenario, plant, message",
        [
            pytest.param(
                # exp(theta * thetadot) overflows inside an RK4 stage of this
                # step; the step's start state is enough to reproduce it
                scenario_for_case("b", h=0.03),
                None,
                r"state turned inf or nan in the step from t=2\.01 to t=2\.04: "
                r"last finite state \(x, w\) = \[-0\.164359132154522\d*, 247\.18295528475\d*, .*\], "
                r"result \[inf, nan,",
                id="regressor-overflow-in-stage",
            ),
            pytest.param(
                scenario_for_case("c", h=0.01, t1=0.5, duration=1.0),
                nan_disturbed_plant(),
                r"state turned inf or nan in the step from t=0\.5 to t=0\.51: .* result \[nan, nan,",
                id="nan-disturbance-on-first-disturbed-row",
            ),
            pytest.param(
                # stage 2 starts on the final row: no step sees the disturbance
                scenario_for_case("c", h=0.01, t1=1.0, duration=1.0),
                nan_disturbed_plant(),
                r"inf or nan on the final row at t=1: \(x, w\) = \[.*\], xdot = \[.*, nan\]",
                id="nan-on-final-row-only",
            ),
            pytest.param(
                # nan only in the fourth stage, at t = 0.76: x2 turns nan and
                # x1 stays finite, and max(map(abs, x)) skips a nan that does
                # not come first, so a bound on it alone lets this through
                scenario_for_case("c", h=0.01, t1=0.5, duration=1.0),
                nan_disturbed_plant(after=0.758),
                r"state turned inf or nan in the step from t=0\.75 to t=0\.76: "
                r".* result \[-?\d\.\d+(e-\d+)?, nan, ",
                id="nan-that-max-abs-misses",
            ),
        ],
    )
    def test_raises_at_its_step(self, scenario, plant, message):
        with pytest.raises(NonFiniteValueError, match=message):
            run_case(scenario, plant=plant)

    def test_initial_weights_must_be_finite(self):
        """The first step's start state is the last finite state its
        message names, so a nan w0 is refused before stepping."""
        with pytest.raises(ValueError, match="finite"):
            run_case(scenario_for_case("b", duration=0.1, w0=[math.nan, 0.0, 0.0]))


class TestPlantShape:
    def test_regressor_length_checked_before_stepping(self):
        short = Plant(
            order=2,
            ideal_weights=W_STAR.copy(),
            regressor=lambda x: (0.0, 0.0),
            disturbance=lambda t, x: 0.0,
        )
        with pytest.raises(ValueError, match="regressor returned"):
            run_case(scenario_for_case("a", duration=1.0), plant=short)

    @pytest.mark.parametrize("states", [1, 3])
    def test_reference_length_checked_before_stepping(self, states):
        """A reference with the wrong number of states is refused at the
        run's start with both lengths, not inside the row store."""
        wrong = ReferenceModel(lambda t: ([math.sin(t)] * states, 0.0), amplitude=1.0)
        with pytest.raises(ValueError, match=f"reference returned {states} states, the plant has order 2"):
            run_case(scenario_for_case("a", duration=1.0), reference=wrong)
