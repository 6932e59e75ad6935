"""Dense linear algebra for small systems, fixed-step RK4 integration,
the source helpers of the simulator's generated stepping kernel, and the
fork/reap pair of every child process (CSV writer, GP fit worker).

Matrices are tiny (state order n <= 5, kernel windows ~100), so dense
direct methods are used throughout. The integrator and the dot products
work on plain float sequences: on vectors of 2-5 elements a numpy call
costs far more in dispatch than in arithmetic.

A dot product is 0.0 + a1*b1 + ... + an*bn, added left to right: `dot`
computes it and `dot_source` writes it as Python source, so generated
code and library code round alike on every CPython version.
"""

from __future__ import annotations

import gc
import numbers
import os
import signal
from typing import Callable, Sequence

import numpy as np

from .errors import NotHurwitzError

SYMMETRY_RTOL = 1e-9


def require_finite(config, *names: str) -> None:
    """Raise ValueError naming the first of config's fields `names` that
    is, or holds, inf or nan: a comparison such as `nan <= 0` is False, so
    range checks alone let them through."""
    for name in names:
        value = getattr(config, name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_count(name: str, value, minimum: int) -> None:
    """Raise ValueError naming the setting unless value is an integer >=
    minimum: 2.5 would fail only mid-run, and a bool would pass as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


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
    """Dot product of two short float sequences, 0.0 + a1*b1 + ... + an*bn
    added left to right. Entries may be numpy arrays of one shape, which
    gives the dot product of each position."""
    acc = 0.0
    for ai, bi in zip(a, b):
        acc = acc + ai * bi
    return acc


def symbols(prefix: str, count: int) -> list[str]:
    """The names prefix1 .. prefix<count> of a generated source's scalars."""
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def tuple_source(names: Sequence[str]) -> str:
    """`a, b` for a tuple of names, `a,` for a tuple of one."""
    return ", ".join(names) + ("," if len(names) == 1 else "")


def dot_source(a: Sequence[str], b: Sequence[str]) -> str:
    """`dot` as an expression on named scalars: 0.0 + a1 * b1 + ... ."""
    return " + ".join(["0.0", *(f"{ai} * {bi}" for ai, bi in zip(a, b))])


def function_source(signature: str, body: Sequence[str]) -> str:
    """`def signature:` with the lines of body indented under it."""
    return f"def {signature}:\n" + "".join(f"    {line}\n" if line else "\n" for line in body)


# generated sources by file name; the name encodes everything the source depends on
_COMPILED: dict[str, dict] = {}


def compiled(filename: str, source: Callable[[], str]) -> dict:
    """The namespace that the source returned by source() defines, compiled
    once per filename. The source is registered in linecache under the
    filename, so tracebacks and inspect.getsource show the generated lines."""
    namespace = _COMPILED.get(filename)
    if namespace is None:
        import linecache

        text = source()
        namespace = {"__name__": __name__}
        exec(compile(text, filename, "exec"), namespace)
        linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
        _COMPILED[filename] = namespace
    return namespace


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


def fork_child(body: Callable[[], object], name: str) -> int:
    """Fork a child that runs body, and return its pid. The child collects
    no garbage, so it finalizes none of the parent's objects, and leaves
    only through os._exit, never into its caller's stack: with status 0
    once body returns, else 1, after writing name and the traceback to fd 2."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            gc.disable()
            body()
            status = 0
        except BaseException:
            import traceback

            os.write(2, f"{name}:\n{traceback.format_exc()}".encode())
        finally:
            os._exit(status)
    return pid


def reap_child(pid: int, kill: bool = False) -> int:
    """Wait for the child pid, first sending it SIGKILL if kill, and return
    its exit code: minus the signal's number if a signal ended it."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
