"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failure) and then asserts, so a red criterion is
both human-readable and CI-fatal.
"""

import time

import numpy as np
import pytest

from adaptive_fbl.cli import emit_trace
from adaptive_fbl.concurrent_learning import HistoryStack, LearnerState, weight_update_derivative
from adaptive_fbl.controller import ControllerConfig, compute_P
from adaptive_fbl.gp import JITTER_REL, GpModel, Hyperparams, log_marginal_likelihood
from adaptive_fbl.numerics import rk4_step, solve_lyapunov
from adaptive_fbl.plant import integrator_chain
from adaptive_fbl.simulator import run_case, scenario_for_case, stage_masks

W_STAR = np.array([1.0, -1.0, 0.5])


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def benchmark_phi(x):
    return np.stack(
        [np.sin(x[:, 0]), np.abs(x[:, 1]) * x[:, 0], np.exp(x[:, 0] * x[:, 1])], axis=1
    )


def test_c01_parameter_convergence():
    start = time.perf_counter()
    trace, _ = run_case(scenario_for_case("b"))
    elapsed = time.perf_counter() - start
    i1 = int(round(10.0 / trace.h))
    err = float(np.max(np.abs(trace.w[i1] - W_STAR)))
    report(
        "C01 parameter convergence",
        err <= 0.02 and elapsed <= 60.0,
        f"|w(10s) - w*|_inf = {err:.5f} <= 0.02, runtime {elapsed:.1f}s <= 60s",
    )


def test_c02_concurrent_learning_benefit(case_runs):
    a = case_runs["a"][1].overall_error_pct
    b = case_runs["b"][1].overall_error_pct
    report(
        "C02 learning benefit",
        b <= 0.2 * a,
        f"case b overall {b:.4f}% <= 0.2 x case a overall {a:.4f}%",
    )


def test_c03_gp_compensation_parity(case_runs):
    b_stage1 = case_runs["b"][1].stage_error_pct[0]
    e_stage3 = case_runs["e"][1].stage_error_pct[2]
    report(
        "C03 compensation parity",
        e_stage3 <= 1.5 * b_stage1,
        f"case e stage-3 {e_stage3:.5f}% <= 1.5 x case b stage-1 {b_stage1:.5f}%",
    )


def test_c04_mismatch_absorption(case_runs):
    d_stage3 = case_runs["d"][1].stage_error_pct[2]
    e_stage3 = case_runs["e"][1].stage_error_pct[2]
    parity = d_stage3 <= 2.0 * e_stage3

    tr_d, tr_e = case_runs["d"][0], case_runs["e"][0]
    mask = tr_d.stage == 3
    phi = benchmark_phi(tr_d.x[mask])
    model_gap = np.einsum("ij,ij->i", np.broadcast_to(W_STAR, tr_d.w[mask].shape) - tr_d.w[mask], phi)
    diff = tr_d.gp_mean[mask] - tr_e.gp_mean[mask]
    corr = float(np.corrcoef(diff, model_gap)[0, 1])
    report(
        "C04 mismatch absorption",
        parity and corr >= 0.9,
        f"case d stage-3 {d_stage3:.5f}% <= 2 x case e {e_stage3:.5f}%; "
        f"corr(gp_d - gp_e, (w* - w).phi) = {corr:.4f} >= 0.9",
    )


def test_c05_disturbance_impact_without_gp(case_runs):
    tr_c = case_runs["c"][0]
    masks = stage_masks(tr_c)
    window = masks[1] | masks[2]
    c_23 = float(np.mean(np.abs(tr_c.e[window, 0]))) / 0.5 * 100.0
    b_overall = case_runs["b"][1].overall_error_pct
    report(
        "C05 disturbance impact",
        c_23 >= 3.0 * b_overall,
        f"case c stage-2/3 {c_23:.4f}% >= 3 x case b overall {b_overall:.4f}%",
    )


def kernel_matrix(a, b, hyper):
    """Oracle squared-exponential covariances from direct differences."""
    z = (a[:, None, :] - b[None, :, :]) / hyper.length_scale
    return hyper.sigma_f**2 * np.exp(-0.5 * np.sum(z * z, axis=-1))


def test_c06_gp_exactness_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 31))
        dim = int(rng.integers(1, 4))
        hyper = Hyperparams(
            sigma_f=float(rng.uniform(0.5, 2.0)),
            length_scale=float(rng.uniform(0.3, 1.5)),
            sigma_n=float(rng.uniform(0.0, 0.4)),
        )
        x = rng.uniform(-2, 2, size=(n, dim))
        y = rng.standard_normal(n)
        model = GpModel(window=n, hyper=hyper)
        for xi, yi in zip(x, y):
            model.observe(xi, yi)
        model.refresh()
        jitter = JITTER_REL * (hyper.sigma_f**2 + hyper.sigma_n**2)
        ky_inv = np.linalg.inv(
            kernel_matrix(x, x, hyper) + (hyper.sigma_n**2 + jitter) * np.eye(n)
        )
        for _ in range(5):
            q = rng.uniform(-2, 2, size=dim)
            k_star = kernel_matrix(x, q[None, :], hyper)[:, 0]
            mean_o = float(k_star @ ky_inv @ y)
            var_o = max(hyper.sigma_f**2 - float(k_star @ ky_inv @ k_star), 0.0)
            mean, var = model.predict(q)
            worst = max(worst, abs(mean - mean_o), abs(var - var_o))
    elapsed = time.perf_counter() - start
    report(
        "C06 GP exactness oracle",
        worst <= 1e-8 and elapsed <= 10.0,
        f"max |prediction - direct inversion| = {worst:.2e} <= 1e-8, runtime {elapsed:.1f}s <= 10s",
    )


def test_c07_lyapunov_machinery():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        a_cl = a - (np.max(np.linalg.eigvals(a).real) + 0.5 + rng.uniform(0, 2)) * np.eye(n)
        g = rng.standard_normal((n, n))
        s = g @ g.T + n * np.eye(n)
        p = solve_lyapunov(a_cl, s)
        worst = max(worst, float(np.linalg.norm(a_cl.T @ p + p @ a_cl + s)))
        assert np.all(np.linalg.eigvalsh(p) > 0)

    cfg = ControllerConfig(gains=np.array([20.0, 20.0]), r=0.0)
    p_bench = compute_P(cfg)
    bench_err = float(np.max(np.abs(p_bench - np.array([[1.025, 0.025], [0.025, 0.02625]]))))
    report(
        "C07 Lyapunov machinery",
        worst <= 1e-10 and bench_err <= 1e-9,
        f"max residual {worst:.2e} <= 1e-10 over 50 systems; benchmark P error {bench_err:.2e} <= 1e-9",
    )


def test_c08_likelihood_gradient():
    rng = np.random.default_rng(300)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(5, 20))
        x = rng.uniform(-2, 2, size=(n, dim))
        y = rng.standard_normal(n)
        hyper = Hyperparams(
            sigma_f=float(rng.uniform(0.5, 2.0)),
            length_scale=float(rng.uniform(0.4, 1.5)),
            sigma_n=float(rng.uniform(0.1, 0.6)),
        )
        _, grad = log_marginal_likelihood(x, y, hyper)
        theta = hyper.log_vector()
        fd = np.zeros_like(theta)
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += eps
            down[j] -= eps
            fd[j] = (
                log_marginal_likelihood(x, y, Hyperparams.from_log_vector(up))[0]
                - log_marginal_likelihood(x, y, Hyperparams.from_log_vector(down))[0]
            ) / (2 * eps)
        worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(fd)))
    report(
        "C08 likelihood gradient",
        worst <= 1e-5,
        f"max relative error vs central differences = {worst:.2e} <= 1e-5",
    )


def test_c09_linear_closed_loop_equivalence():
    scn = scenario_for_case("a", duration=5.0, w0=W_STAR.copy())
    cfg = ControllerConfig(gains=np.array([20.0, 20.0]), rob_enabled=False)
    trace, _ = run_case(scn, cfg=cfg)
    a, b = integrator_chain(2)
    a_cl = a - np.outer(b, cfg.gains)
    lam, vecs = np.linalg.eig(a_cl)
    coeffs = np.linalg.solve(vecs, np.array([0.0, 0.5]))
    analytic = np.real(np.einsum("tk,jk->tj", np.exp(np.outer(trace.t, lam)) * coeffs, vecs))
    err = float(np.max(np.abs(trace.e - analytic)))
    report(
        "C09 linear closed-loop equivalence",
        err <= 1e-4,
        f"max |e_sim - e_analytic| = {err:.2e} <= 1e-4 over 5s",
    )


def test_c10_stability_monitor(case_runs):
    tr = case_runs["e"][0]
    cfg = ControllerConfig(gains=np.array([20.0, 20.0]))
    p = compute_P(cfg)
    phi = benchmark_phi(tr.x)
    bracket = np.einsum("ij,ij->i", tr.w - W_STAR, phi) - tr.d_true + tr.u_gp
    s_var = tr.e @ p[-1]
    applicable = (np.abs(bracket) < cfg.m) & (np.abs(s_var) > cfg.rho)
    n_applicable = int(np.count_nonzero(applicable))
    violations = int(np.count_nonzero(tr.vdot[applicable] >= 0.0))
    report(
        "C10 stability monitor",
        n_applicable > 0 and violations == 0,
        f"{violations} violations over {n_applicable} applicable steps",
    )


def test_c11_exponential_stack_convergence():
    rng = np.random.default_rng(400)
    stack = HistoryStack(8)
    while len(stack) < 8:
        phi = rng.uniform(-1, 1, 3)
        stack.try_record(phi, float(W_STAR @ phi), 0.0)
    gamma = 3.0
    lam_min = float(np.min(np.linalg.eigvalsh(stack.phi_matrix @ stack.phi_matrix.T)))
    assert lam_min > 0.0

    state = LearnerState(gamma, stack)
    w = np.array([0.5, -1.3, 0.75])
    norm0 = float(np.linalg.norm(w - W_STAR))
    h = 1e-3

    def f(t, w_vec):
        return weight_update_derivative(state, w_vec, np.zeros(3), np.zeros(2), np.eye(2))

    worst_margin = 0.0
    for i in range(3000):
        w = rk4_step(f, i * h, w, h)
        t = (i + 1) * h
        envelope = norm0 * np.exp(-gamma * lam_min * t) * (1 + 1e-6)
        err = float(np.linalg.norm(w - W_STAR))
        worst_margin = max(worst_margin, err / envelope)
        assert err <= envelope
    report(
        "C11 exponential stack convergence",
        worst_margin <= 1.0,
        f"max error/envelope ratio = {worst_margin:.6f} <= 1 over 3s",
    )


def test_c12_determinism(case_runs, tmp_path):
    tr1 = case_runs["e"][0]
    tr2, _ = run_case(scenario_for_case("e"))
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    emit_trace(tr1, p1)
    emit_trace(tr2, p2)
    identical = p1.read_bytes() == p2.read_bytes()
    report(
        "C12 determinism",
        identical,
        f"two identically configured runs emit byte-identical CSV ({p1.stat().st_size} bytes)",
    )
