import numpy as np
import pytest

from adaptive_fbl.controller import (
    ControllerConfig,
    closed_loop_matrix,
    compute_control,
    compute_P,
    weighting_matrix,
)
from adaptive_fbl.errors import NotHurwitzError

W_STAR = np.array([1.0, -1.0, 0.5])


def benchmark_cfg(**kwargs):
    defaults = dict(gains=np.array([20.0, 20.0]), m=1.0, rho=0.01, r=0.0)
    defaults.update(kwargs)
    return ControllerConfig(**defaults)


class TestComputeP:
    def test_benchmark_gains_unit_q(self):
        p = compute_P(benchmark_cfg())
        np.testing.assert_allclose(
            p, [[1.025, 0.025], [0.025, 0.02625]], atol=1e-12
        )

    def test_scalar_system(self):
        cfg = ControllerConfig(gains=np.array([2.0]), q=np.array([[2.0]]), r=0.0)
        np.testing.assert_allclose(compute_P(cfg), [[0.5]], rtol=1e-14)

    def test_residual_with_control_weight(self):
        cfg = benchmark_cfg(r=0.01)
        p = compute_P(cfg)
        a_cl = closed_loop_matrix(cfg)
        s = weighting_matrix(cfg)
        assert np.linalg.norm(a_cl.T @ p + p @ a_cl + s) <= 1e-10

    def test_unstable_gains_rejected(self):
        with pytest.raises(NotHurwitzError):
            compute_P(benchmark_cfg(gains=np.array([-1.0, -1.0])))


def robustness_term(p, e, m, rho):
    """The robustness component of the control law alone: no model term,
    no feedforward and no GP term."""
    return compute_control(benchmark_cfg(m=m, rho=rho), p, np.zeros(3), np.zeros(3), e, 0.0).u_rob


class TestRobustnessTerm:
    """The boundary-layer robustness term, as compute_control forms it."""

    P = np.array([[1.025, 0.025], [0.025, 0.02625]])

    def test_zero_error(self):
        assert robustness_term(self.P, np.zeros(2), m=1.0, rho=0.01) == 0.0

    def test_saturated_region(self):
        # s = 0.5 via e chosen along the b.T P row
        e = np.array([0.0, 0.5 / 0.02625])
        assert robustness_term(self.P, e, m=1.0, rho=0.01) == -1.0

    def test_linear_inside_boundary_layer(self):
        e = np.array([0.0, 0.005 / 0.02625])
        val = robustness_term(self.P, e, m=1.0, rho=0.01)
        assert abs(val - (-0.5)) <= 1e-12

    def test_magnitude_never_exceeds_gain(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            e = rng.uniform(-5, 5, size=2)
            m = rng.uniform(0.0, 3.0)
            assert abs(robustness_term(self.P, e, m, rho=0.01)) <= m + 1e-15


class TestComputeControl:
    def test_pure_model_cancellation(self):
        cfg = benchmark_cfg(m=0.0)
        p = compute_P(cfg)
        bd = compute_control(
            cfg, p, W_STAR, np.array([0.0, 0.0, 1.0]), np.zeros(2), 0.0, gp_mean=0.0
        )
        assert bd.u_fbl == -0.5
        assert bd.u_total == -0.5

    def test_composed_at_reference_start(self):
        cfg = benchmark_cfg()
        p = compute_P(cfg)
        e = np.array([0.0, 0.5])
        bd = compute_control(cfg, p, W_STAR, np.array([0.0, 0.0, 1.0]), e, 0.0)
        assert bd.u_sfb == 10.0
        # s = 0.02625 * 0.5 exceeds the boundary layer, so the term saturates
        assert bd.u_rob == -1.0
        assert abs(bd.u_total - 10.5) <= 1e-12

    def test_gp_term_is_linear(self):
        cfg = benchmark_cfg()
        p = compute_P(cfg)
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal(3)
            phi = rng.standard_normal(3)
            e = rng.standard_normal(2)
            g = rng.standard_normal()
            base = compute_control(cfg, p, w, phi, e, 0.3, gp_mean=0.0)
            comp = compute_control(cfg, p, w, phi, e, 0.3, gp_mean=g)
            assert abs((comp.u_total - base.u_total) - (-g)) <= 1e-12

    def test_breakdown_identity_exact(self):
        cfg = benchmark_cfg()
        p = compute_P(cfg)
        rng = np.random.default_rng(9)
        for _ in range(200):
            bd = compute_control(
                cfg,
                p,
                rng.standard_normal(3),
                rng.standard_normal(3),
                rng.standard_normal(2),
                rng.standard_normal(),
                gp_mean=rng.standard_normal(),
            )
            assert bd.u_total == bd.u_fbl + bd.u_sfb + bd.u_ref - bd.u_gp - bd.u_rob

    def test_zero_gain_turns_the_robustness_term_off(self):
        cfg = benchmark_cfg(m=0.0)
        p = compute_P(cfg)
        bd = compute_control(cfg, p, W_STAR, np.ones(3), np.ones(2), 0.0)
        assert bd.u_rob == 0.0


class TestConfigValidation:
    def test_default_q_is_identity(self):
        cfg = ControllerConfig(gains=np.array([20.0, 20.0]))
        np.testing.assert_array_equal(cfg.q, np.eye(2))

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            ControllerConfig(gains=np.array([20.0, 20.0]), rho=0.0)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(gains=np.array([20.0, 20.0]), m=-0.1)

    def test_q_must_match_gains(self):
        with pytest.raises(ValueError, match="Q must be 2x2"):
            ControllerConfig(gains=np.array([20.0, 20.0]), q=np.eye(3))
