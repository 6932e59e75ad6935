"""Online weight estimation driven by recorded data.

The estimate follows

    wdot = -gamma * phi(x) * (e.T P b) - gamma * sum_j phi_j * eps_j

where the sum runs over a finite stack of records (phi_j, xdot_n_j, u_j)
captured while the disturbance is inactive, and

    eps_j = w . phi_j - (xdot_n_j - u_j)

is the prediction error of the current estimate against record j. The
stored regressor phi_j appears inside the sum, which is what lets the
recorded data drive the weight error to zero without persistent
excitation: once the stacked regressors span weight space, the sum term
is a full-rank linear feedback on the weight error.

Records are selected to maximize the smallest singular value of the
stacked regressor matrix, so the convergence rate only improves as the
run proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .numerics import compiled, dot_source, function_source, require_finite, symbols, tuple_source


class Record(NamedTuple):
    phi: np.ndarray
    xdot_n: float
    u: float


@dataclass
class LearnerConfig:
    """Tuning knobs for the weight estimator."""

    gamma_w: float = 3.0
    stack_capacity: int = 35
    record_period: float = 0.05

    def __post_init__(self):
        require_finite(self, "gamma_w", "stack_capacity", "record_period")
        if self.gamma_w <= 0:
            raise ValueError("gamma_w must be positive")
        if self.stack_capacity < 1:
            raise ValueError("stack_capacity must be >= 1")
        if self.record_period <= 0:
            raise ValueError("record_period must be positive")


def stack_sigma_min(phi_matrix: np.ndarray) -> float:
    """Smallest singular value of the stacked regressors, as a map onto
    weight space: zero until the columns span all of it."""
    return _stack_metrics(phi_matrix)[0][1]


def _stack_metrics(phi_matrix: np.ndarray) -> tuple[tuple[int, float], float]:
    """((rank, sigma_min), tol) of the stacked regressor matrix, where
    singular values at or below tol count as zero.

    sigma_min is the m-th singular value (zero while rank < m), so it is
    exactly the square root of the smallest eigenvalue of sum phi_j phi_j.T.
    Replacement quality compares rank first: building span dominates
    polishing the already-spanned directions.
    """
    sv = np.linalg.svd(phi_matrix, compute_uv=False)
    tol = max(phi_matrix.shape) * np.finfo(float).eps * sv[0] if sv.size else 0.0
    return _qualities(sv[None], phi_matrix.shape[0], tol)[0], tol


def _qualities(sv: np.ndarray, m: int, tol: float) -> list[tuple[int, float]]:
    """(rank, sigma_min) of each of a batch of matrices with m rows, from
    their singular values, one descending row per matrix, with rank
    counted against one tolerance for the whole batch."""
    if sv.shape[1] == 0:
        return [(0, 0.0)] * sv.shape[0]
    ranks = np.sum(sv > tol, axis=1)
    # below full rank the last singular value is rounding under the tolerance
    sigmas = np.where(ranks == m, sv[:, -1], 0.0)
    return list(zip(ranks.tolist(), sigmas.tolist()))


class HistoryStack:
    """Bounded store of (phi, xdot_n, u) records with rank-seeking replacement."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.records: list[Record] = []
        self.min_singular_value = 0.0
        # derived from records by _rebuild; _phi_matrix = None marks them stale
        self._phi_matrix: np.ndarray | None = None
        self._gram: list[list[float]] = []
        self._phi_rhs: list[float] = []

    def __len__(self) -> int:
        return len(self.records)

    @property
    def phi_matrix(self) -> np.ndarray:
        """Stored regressors as columns, shape (m, len(stack))."""
        if self._phi_matrix is None:
            self._rebuild()
        return self._phi_matrix

    @property
    def gram(self) -> list[list[float]]:
        """Rows of the Gram matrix sum_j phi_j phi_j.T (empty for an empty stack)."""
        if self._phi_matrix is None:
            self._rebuild()
        return self._gram

    @property
    def phi_rhs(self) -> list[float]:
        """sum_j phi_j (xdot_n_j - u_j), so that sum_j phi_j eps_j = gram w - phi_rhs."""
        if self._phi_matrix is None:
            self._rebuild()
        return self._phi_rhs

    def _rebuild(self):
        if self.records:
            self._phi_matrix = np.stack([r.phi for r in self.records], axis=1)
            # xdot_n_j - u_j is the recorded value of w* . phi_j
            residual_rhs = np.array([r.xdot_n - r.u for r in self.records])
            self._gram = (self._phi_matrix @ self._phi_matrix.T).tolist()
            self._phi_rhs = (self._phi_matrix @ residual_rhs).tolist()
        else:
            self._phi_matrix = np.zeros((0, 0))
            self._gram = []
            self._phi_rhs = []

    def try_record(self, phi: Sequence[float], xdot_n: float, u: float) -> bool:
        """Offer a candidate record; returns True if it was stored.

        While the stack is filling every candidate is appended. Once full,
        the candidate replaces the record whose removal yields the best
        strict improvement of (rank, sigma_min), the first such slot on a
        tie; candidates that cannot improve it (including exact duplicates)
        are rejected.
        """
        phi = np.array(phi, dtype=float)
        rec = Record(phi, float(xdot_n), float(u))
        if len(self.records) < self.capacity:
            self.records.append(rec)
            self._phi_matrix = None
            self.min_singular_value = stack_sigma_min(self.phi_matrix)
            return True

        current = self.phi_matrix
        if np.any(np.all(current == phi[:, None], axis=0)):
            return False

        # trials[j] is the stack with slot j holding the candidate; one
        # batched SVD scores every slot. Every trial counts rank against
        # the current stack's tolerance: against its own, a trial that
        # drops the largest record can count a tiny direction as new rank.
        trials = np.repeat(current[None], self.capacity, axis=0)
        slots = np.arange(self.capacity)
        trials[slots, :, slots] = phi
        trial_sv = np.linalg.svd(trials, compute_uv=False)
        best_j = -1
        best_quality, tol = _stack_metrics(current)
        for j, quality in enumerate(_qualities(trial_sv, current.shape[0], tol)):
            if quality > best_quality:
                best_j = j
                best_quality = quality
        if best_j < 0:
            return False
        self.records[best_j] = rec
        self._phi_matrix = None
        self.min_singular_value = best_quality[1]
        return True


def update_source(n: int, m: int, filled: bool) -> tuple[list[str], list[str]]:
    """The update law as Python source, the one definition of it: (lines,
    names of the m weight rates). The lines read the weights w1..wm, the
    regressor f1..fm, the errors e1..en and the constants gamma and P's
    last row p1..pn; on a filled stack also the Gram rows gram<j>_<k> and
    phi_rhs rhs1..rhsm. The record sum costs the same for any number of
    records, and a changed stack needs its new constants bound.
    """
    w, f = symbols("w", m), symbols("f", m)
    lines = [f"r = -gamma * ({dot_source(symbols('p', n), symbols('e', n))})"]
    for j in range(1, m + 1):
        rate = f"wd{j} = r * f{j}"
        if filled:
            rate += f" - gamma * ({dot_source(symbols(f'gram{j}_', m), w)} - rhs{j})"
        lines.append(rate)
    return lines, symbols("wd", m)


def stack_source(m: int) -> list[str]:
    """Lines that unpack a filled stack's `gram` and `phi_rhs` into the
    names update_source reads."""
    rows = [f"({tuple_source(symbols(f'gram{j}_', m))})" for j in range(1, m + 1)]
    return [f"{tuple_source(rows)} = gram", f"{tuple_source(symbols('rhs', m))} = phi_rhs"]


def _update_function(n: int, m: int, filled: bool) -> str:
    """Source of rate(gamma, p_last, gram, phi_rhs, w, phi, e), which
    returns the weight rates as a list."""
    lines, rates = update_source(n, m, filled)
    unpack = [
        f"{tuple_source(symbols('p', n))} = p_last",
        f"{tuple_source(symbols('w', m))} = w",
        f"{tuple_source(symbols('f', m))} = phi",
        f"{tuple_source(symbols('e', n))} = e",
        *(stack_source(m) if filled else []),
    ]
    return function_source(
        "rate(gamma, p_last, gram, phi_rhs, w, phi, e)",
        [*unpack, *lines, f"return [{', '.join(rates)}]"],
    )


def weight_update_derivative(
    gamma: float,
    stack: HistoryStack,
    w: Sequence[float],
    phi_now: Sequence[float],
    e: Sequence[float],
    p: Sequence[Sequence[float]],
) -> list[float]:
    """One evaluation of `update_source`'s update law with gain gamma on the
    stack as it is now; p is P as rows."""
    n, m, filled = len(e), len(w), len(stack) > 0
    name = f"<weight update n={n} m={m}{' filled' if filled else ''}>"
    rate = compiled(name, lambda: _update_function(n, m, filled))["rate"]
    return rate(gamma, p[-1], stack.gram, stack.phi_rhs, w, phi_now, e)
