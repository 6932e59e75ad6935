import numpy as np
import pytest

from adaptive_fbl.errors import NotHurwitzError
from adaptive_fbl.numerics import rk4_step, solve_lyapunov


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def random_hurwitz(rng, n):
    a = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(a).real)
    return a - (shift + 0.5 + rng.uniform(0.0, 2.0)) * np.eye(n)


class TestSolveLyapunov:
    def test_scalar(self):
        p = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        np.testing.assert_allclose(p, [[1.0]], rtol=1e-14)

    def test_benchmark_gains(self):
        a_cl = np.array([[0.0, 1.0], [-20.0, -20.0]])
        p = solve_lyapunov(a_cl, np.eye(2))
        expected = np.array([[1.025, 0.025], [0.025, 0.02625]])
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_solution_is_spd(self):
        rng = np.random.default_rng(3)
        a_cl = random_hurwitz(rng, 3)
        p = solve_lyapunov(a_cl, random_spd(rng, 3))
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        for _ in range(100):
            x = rng.standard_normal(3)
            assert x @ p @ x > 0.0

    def test_residual_on_seeded_hurwitz_family(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            a_cl = random_hurwitz(rng, n)
            s = random_spd(rng, n)
            p = solve_lyapunov(a_cl, s)
            residual = np.linalg.norm(a_cl.T @ p + p @ a_cl + s)
            assert residual <= 1e-10
            np.testing.assert_allclose(p, p.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(p) > 0.0)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))
        # marginally stable double integrator is rejected too
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_s_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.array([[-1.0]]), np.array([[-2.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestRk4:
    def test_zero_field(self):
        x = rk4_step(lambda t, x: np.zeros_like(x), 0.0, np.array([1.0, 2.0]), 0.1)
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_scalar_exponential_single_step(self):
        x = rk4_step(lambda t, x: x, 0.0, np.array([1.0]), 0.1)
        # fourth-order Taylor polynomial of exp(0.1)
        assert abs(x[0] - 1.1051708333333333) <= 1e-8

    def test_fourth_order_convergence(self):
        def integrate(h):
            x = np.array([1.0])
            steps = int(round(1.0 / h))
            for i in range(steps):
                x = rk4_step(lambda t, x: x, i * h, x, h)
            return abs(x[0] - np.e)

        ratio = integrate(1e-2) / integrate(5e-3)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, x: x, 0.0, np.array([1.0]), 0.0)
