import math
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from adaptive_fbl.errors import NotHurwitzError
from adaptive_fbl.numerics import dot, dot_source, rk4_step, solve_lyapunov


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

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 3),
        decay=st.tuples(st.floats(0.3, 2.0), st.floats(0.3, 2.0)),
        freq=st.floats(0.0, 2.0),
        basis=arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)),
        x0=arrays(float, 3, elements=st.floats(-1.0, 1.0)),
    )
    def test_fourth_order_on_stable_linear_systems(self, n, decay, freq, basis, x0):
        """Halving h divides the error at t = 1 by about 2^4 on x' = A x,
        A = Q D Q' with Q orthogonal and D stable: poles -a +- i freq for
        n >= 2, and -c for n = 1 and n = 3."""
        assume(np.linalg.norm(x0[:n]) > 0.1)
        a, c = decay
        d = np.diag([-a, -a, -c][:n]) if n > 1 else np.array([[-c]])
        if n > 1:
            d[0, 1], d[1, 0] = freq, -freq
        q, _ = np.linalg.qr(basis[:n, :n] + 3.0 * np.eye(n))  # well away from singular
        a_mat = q @ d @ q.T
        rows = a_mat.tolist()
        exact = expm(a_mat) @ x0[:n]

        def error(steps):
            h, x = 1.0 / steps, x0[:n].tolist()
            for i in range(steps):
                x = rk4_step(lambda t, z: [sum(map(mul, row, z)) for row in rows], i * h, x, h)
            return np.linalg.norm(np.array(x) - exact)

        ratio = error(10) / error(20)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, x: x, 0.0, np.array([1.0]), 0.0)


class TestDot:
    def test_adds_left_to_right_from_zero(self):
        """No compensated summation, on any CPython: 1e16 + 1.0 rounds back
        to 1e16, so the sum is 0.0 (a compensated sum gives 1.0)."""
        assert dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
        assert dot([0.1] * 10, [1.0] * 10) == 0.9999999999999999

    def test_negative_zero_product_adds_to_zero(self):
        assert math.copysign(1.0, dot([-0.0], [1.0])) == 1.0

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=5))
    def test_source_form_gives_the_same_bits(self, pairs):
        a, b = (list(v) for v in zip(*pairs))
        names = {f"a{i}": v for i, v in enumerate(a)} | {f"b{i}": v for i, v in enumerate(b)}
        source = dot_source([f"a{i}" for i in range(len(a))], [f"b{i}" for i in range(len(b))])
        assert eval(source, names).hex() == dot(a, b).hex()
