"""Dense linear algebra for small systems and fixed-step RK4 integration.

Matrices are tiny (state order n <= 5, kernel windows ~100), so dense
direct methods are used throughout. The integrator and the dot products
work on plain float sequences: on vectors of 2-5 elements a numpy call
costs far more in dispatch than in arithmetic.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Sequence

import numpy as np

from .errors import NotHurwitzError

SYMMETRY_RTOL = 1e-9


def _require_square_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} has non-finite entries")
    scale = max(float(np.max(np.abs(m))), 1.0)
    if np.max(np.abs(m - m.T)) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{what} is not symmetric to relative tolerance {SYMMETRY_RTOL}")
    return m


def solve_lyapunov(a_cl: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Solve a_cl.T @ P + P @ a_cl + s = 0 for symmetric positive definite P.

    Uses Kronecker vectorization of the n^2-dimensional linear system;
    fine for the small closed-loop matrices this package deals with.
    a_cl must be Hurwitz and s symmetric positive definite.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    if a_cl.ndim != 2 or a_cl.shape[0] != a_cl.shape[1]:
        raise ValueError(f"a_cl must be square, got shape {a_cl.shape}")
    s = _require_square_symmetric(s, "s")
    if s.shape != a_cl.shape:
        raise ValueError("a_cl and s must have matching shapes")
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise ValueError("s must be positive definite") from exc

    eigs = np.linalg.eigvals(a_cl)
    if np.any(eigs.real >= 0.0):
        raise NotHurwitzError(f"a_cl has eigenvalues with real parts {sorted(eigs.real)}")

    n = a_cl.shape[0]
    eye = np.eye(n)
    # vec(A.T P) + vec(P A) = -vec(S), column-major vec convention
    coeff = np.kron(eye, a_cl.T) + np.kron(a_cl.T, eye)
    try:
        vec_p = np.linalg.solve(coeff, -s.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise NotHurwitzError("vectorized Lyapunov system is singular") from exc
    p = vec_p.reshape((n, n), order="F")
    p = 0.5 * (p + p.T)
    try:
        np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise NotHurwitzError("solution is not positive definite") from exc
    return p


def dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product of two short float sequences, summed left to right."""
    return sum(map(mul, a, b))


def quad_form(m: Sequence[Sequence[float]], v: Sequence[float]) -> float:
    """v.T m v for a square matrix given as rows."""
    return dot(v, [dot(row, v) for row in m])


def rk4_step(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    t: float,
    x: Sequence[float],
    h: float,
) -> list[float]:
    """One classical fourth-order Runge-Kutta step of size h.

    The first stage is f(t, x) with x itself, the very object passed in,
    so a caller that already holds the derivative at (t, x) can return it
    instead of evaluating again. The stages are not checked: a stage that
    returns inf or nan makes the result inf or nan, for the caller to test.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    half = 0.5 * h
    k1 = f(t, x)
    k2 = f(t + half, [xi + half * ki for xi, ki in zip(x, k1)])
    k3 = f(t + half, [xi + half * ki for xi, ki in zip(x, k2)])
    k4 = f(t + h, [xi + h * ki for xi, ki in zip(x, k3)])
    sixth = h / 6.0
    return [
        xi + sixth * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]
