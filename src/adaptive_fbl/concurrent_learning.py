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

from .numerics import compiled, dot_source, function_source, require_count, require_finite, symbols, tuple_source


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
        require_count("stack_capacity", self.stack_capacity, 1)
        if self.record_period <= 0:
            raise ValueError("record_period must be positive")


def _qualities(sv: np.ndarray, m: int, tol: float) -> list[tuple[int, float]]:
    """(rank, sigma_min) of each of a batch of matrices with m rows, from
    their singular values, one descending row per matrix, with rank
    counted against one tolerance for the whole batch.

    sigma_min is the m-th singular value (zero while rank < m), so it is
    exactly the square root of the smallest eigenvalue of sum phi_j phi_j.T.
    Replacement quality compares rank first: building span dominates
    polishing the already-spanned directions.
    """
    ranks = np.sum(sv > tol, axis=1)
    # below full rank the last singular value is rounding under the tolerance
    sigmas = np.where(ranks == m, sv[:, -1], 0.0)
    return list(zip(ranks.tolist(), sigmas.tolist()))


class HistoryStack:
    """Bounded store of (phi, xdot_n, u) records with rank-seeking replacement.

    Each stored record derives the stack's matrices and score (`_rebuild`),
    which exist once a record is stored; `sums` gives the update law's
    record sums for the empty stack too.
    """

    def __init__(self, capacity: int):
        require_count("capacity", capacity, 1)
        self.capacity = capacity
        self.records: list[Record] = []
        self.min_singular_value = 0.0

    def __len__(self) -> int:
        return len(self.records)

    def _rebuild(self):
        """Derive the records' matrices and score, once per stored record:
        phi_matrix, the stored regressors as columns, shape (m, len(stack));
        gram, the rows of the Gram matrix sum_j phi_j phi_j.T; phi_rhs,
        sum_j phi_j (xdot_n_j - u_j), so that sum_j phi_j eps_j = gram w -
        phi_rhs; and the stack's (rank, sigma_min) with the tolerance under
        which a singular value counts as zero."""
        self.phi_matrix = np.stack([r.phi for r in self.records], axis=1)
        # xdot_n_j - u_j is the recorded value of w* . phi_j
        residual_rhs = np.array([r.xdot_n - r.u for r in self.records])
        self.gram = (self.phi_matrix @ self.phi_matrix.T).tolist()
        self.phi_rhs = (self.phi_matrix @ residual_rhs).tolist()
        sv = np.linalg.svd(self.phi_matrix, compute_uv=False)
        self._tol = max(self.phi_matrix.shape) * np.finfo(float).eps * sv[0]
        self._quality = _qualities(sv[None], self.phi_matrix.shape[0], self._tol)[0]
        self.min_singular_value = self._quality[1]

    def sums(self, m: int) -> tuple[list[list[float]], list[float]]:
        """(gram, phi_rhs) for weights of m entries: an empty stack
        contributes m rows of m zeros and m zeros."""
        if self.records:
            return self.gram, self.phi_rhs
        return [[0.0] * m] * m, [0.0] * m

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
            self._rebuild()
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
        best_quality = self._quality
        for j, quality in enumerate(_qualities(trial_sv, current.shape[0], self._tol)):
            if quality > best_quality:
                best_j = j
                best_quality = quality
        if best_j < 0:
            return False
        self.records[best_j] = rec
        self._rebuild()
        return True


def update_source(n: int, m: int) -> tuple[list[str], list[str]]:
    """The update law as Python source, the one definition of it: (lines,
    names of the m weight rates). The lines read the weights w1..wm, the
    regressor f1..fm, the errors e1..en, the constants gamma and P's last
    row p1..pn, and the stack's Gram rows gram<j>_<k> and phi_rhs
    rhs1..rhsm (`HistoryStack.sums`). The record sum costs the same for
    any number of records, and a changed stack needs its new constants
    bound.
    """
    w = symbols("w", m)
    lines = [f"r = -gamma * ({dot_source(symbols('p', n), symbols('e', n))})"]
    for j in range(1, m + 1):
        lines.append(f"wd{j} = r * f{j} - gamma * ({dot_source(symbols(f'gram{j}_', m), w)} - rhs{j})")
    return lines, symbols("wd", m)


def stack_source(m: int) -> list[str]:
    """Lines that unpack `HistoryStack.sums`' `gram` and `phi_rhs` into
    the names update_source reads."""
    rows = [f"({tuple_source(symbols(f'gram{j}_', m))})" for j in range(1, m + 1)]
    return [f"{tuple_source(rows)} = gram", f"{tuple_source(symbols('rhs', m))} = phi_rhs"]


def _update_function(n: int, m: int) -> str:
    """Source of rate(gamma, p_last, gram, phi_rhs, w, phi, e), which
    returns the weight rates as a list."""
    lines, rates = update_source(n, m)
    unpack = [
        f"{tuple_source(symbols('p', n))} = p_last",
        f"{tuple_source(symbols('w', m))} = w",
        f"{tuple_source(symbols('f', m))} = phi",
        f"{tuple_source(symbols('e', n))} = e",
        *stack_source(m),
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
    n, m = len(e), len(w)
    rate = compiled(f"<weight update n={n} m={m}>", lambda: _update_function(n, m))["rate"]
    return rate(gamma, p[-1], *stack.sums(m), w, phi_now, e)
