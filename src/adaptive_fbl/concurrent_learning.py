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
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np


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


@dataclass
class LearnerState:
    """The weight estimator's gain and record stack."""

    gamma_w: float
    stack: HistoryStack


def weight_rate(state: LearnerState, p_last: Sequence[float]):
    """The weight estimate's time derivative with the gain, P's last row and
    the stack's Gram rows as they are now bound: a function (w, phi_now, e)
    -> wdot, the one definition of the update law. The record sum's cost
    does not grow with the number of records; a changed stack needs a new
    binding. The dot products are numerics.dot's sums, written out."""
    gamma, stack = state.gamma_w, state.stack
    terms = list(zip(stack.gram, stack.phi_rhs)) if len(stack) else None

    def rate(w, phi_now, e):
        r = -gamma * sum(map(mul, p_last, e))
        if terms is None:
            return [r * v for v in phi_now]
        return [r * v - gamma * (sum(map(mul, row, w)) - b) for v, (row, b) in zip(phi_now, terms)]

    return rate


def weight_update_derivative(
    state: LearnerState,
    w: Sequence[float],
    phi_now: Sequence[float],
    e: Sequence[float],
    p: Sequence[Sequence[float]],
) -> list[float]:
    """One evaluation of `weight_rate` on the stack as it is now; p is P as rows."""
    return weight_rate(state, p[-1])(w, phi_now, e)
