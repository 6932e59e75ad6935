"""Sliding-window Gaussian-process regression of the control-input mismatch.

Exact inference with a squared-exponential kernel. The model regresses
from system states to the target

    y = xdot_n_measured - w . phi(x) - u_applied

which algebraically equals d - (w - w*) . phi(x): the disturbance plus
whatever the weight estimate still gets wrong. Subtracting the posterior
mean of this quantity in the control law cancels both at once.

Hyperparameters (signal scale, length scale, noise scale) are refit by
multi-start gradient ascent on the log marginal likelihood. The noise
scale is a learned parameter with a small floor; a noise-free kernel
matrix is not invertible reliably enough for online use.

Predictions read a snapshot frozen at the last fit, so observations can
stream in between refits without perturbing the controller mid-step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    AllStartsFailedError,
    NonFiniteValueError,
    NotPositiveDefiniteError,
    UnfittedModelError,
)
from .numerics import dot

JITTER_REL = 1e-8
LOG_BOUND = 6.0  # |log hyperparam| cap during optimization
# an ascent ends when its trial step in log-hyperparameter space falls below
# this; on the plant's windows the shorter steps gained under 1e-3 nats
STEP_TOL = 1e-3
MAX_ITER = 100  # accepted steps per ascent start


@functools.cache
def _lapack():
    """(dpotrf, dpotri, dpotrs, dtrsv) from scipy, imported at the first call.

    Only the GP needs scipy, so a run without one never loads it (about
    0.4 s and 27 MB), and a process can still limit the BLAS threads scipy
    starts with until its first fit.
    """
    from scipy.linalg.blas import dtrsv
    from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

    return dpotrf, dpotri, dpotrs, dtrsv


@dataclass(frozen=True)
class Hyperparams:
    """Squared-exponential kernel parameters.

    length_scale is a scalar (shared across input dimensions) or a vector
    with one entry per input dimension.
    """

    sigma_f: float = 1.0
    length_scale: float | np.ndarray = 1.0
    sigma_n: float = 0.1

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.length_scale, dtype=float))
        object.__setattr__(self, "length_scale", ls)
        if self.sigma_f <= 0 or np.any(ls <= 0):
            raise ValueError("sigma_f and length scales must be positive")
        if self.sigma_n < 0:
            raise ValueError("sigma_n must be non-negative")

    def log_vector(self) -> np.ndarray:
        return np.concatenate(
            [[math.log(self.sigma_f)], np.log(self.length_scale), [math.log(max(self.sigma_n, 1e-300))]]
        )

    @staticmethod
    def from_log_vector(theta: np.ndarray) -> "Hyperparams":
        theta = np.asarray(theta, dtype=float)
        return Hyperparams(
            sigma_f=math.exp(theta[0]),
            length_scale=np.exp(theta[1:-1]),
            sigma_n=math.exp(theta[-1]),
        )


@dataclass
class GpConfig:
    """Scheduling and optimizer settings for the online model."""

    window: int = 100
    sample_period: float = 0.1
    refit_period: float = 0.5
    starts: int = 5
    lengthscale_mode: str = "shared"
    sigma_n_floor: float = 1e-4
    paper_literal_sign: bool = False

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.sample_period <= 0 or self.refit_period <= 0:
            raise ValueError("sample and refit periods must be positive")
        if self.starts < 0:
            raise ValueError("starts must be >= 0")
        if self.lengthscale_mode not in ("shared", "per_dim"):
            raise ValueError("lengthscale_mode must be 'shared' or 'per_dim'")
        if self.sigma_n_floor <= 0:
            raise ValueError("sigma_n_floor must be positive")


class _Evaluation(NamedTuple):
    """The likelihood at one set of hyperparameters, with the pieces its
    gradient and the prediction snapshot reuse."""

    value: float
    k: np.ndarray  # noise-free kernel matrix
    chol: np.ndarray  # lower Cholesky factor of K + (sigma_n^2 + jitter) I
    alpha: np.ndarray  # (K + (sigma_n^2 + jitter) I)^-1 y


class _Likelihood:
    """Log marginal likelihood of one training window (x, y).

    A fit evaluates the likelihood hundreds of times on the same window,
    so the pairwise squared differences of the inputs are taken once, per
    dimension. An evaluation builds K from them in place (scale by
    -1/(2 l^2), exponentiate, multiply by sigma_f^2) and factors with
    LAPACK directly. The targets are checked for inf and nan here, once;
    the factorization does not look at them.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        if not np.all(np.isfinite(y)):
            raise NonFiniteValueError("training targets contain inf or nan")
        self.y = y
        cols = x.T
        diff = cols[:, :, None] - cols[:, None, :]
        self.sqdiff = diff * diff  # (dim, n, n)
        self.sqdist = self.sqdiff.sum(axis=0)

    def evaluate(self, hyper: Hyperparams) -> _Evaluation:
        """Raises NotPositiveDefiniteError if K + (sigma_n^2 + jitter) I
        fails its factorization or holds inf or nan."""
        ls = hyper.length_scale
        if ls.size == 1:
            k = np.multiply(self.sqdist, -0.5 / ls[0] ** 2)
        else:
            k = np.tensordot(-0.5 * ls**-2.0, self.sqdiff, axes=1)
        np.exp(k, out=k)
        sf2, sn2 = hyper.sigma_f**2, hyper.sigma_n**2
        k *= sf2
        ky = k.copy()
        ky.flat[:: ky.shape[0] + 1] += sn2 + JITTER_REL * (sf2 + sn2)
        dpotrf, _, dpotrs, _ = _lapack()
        # ky is symmetric, so its transpose is the Fortran-ordered matrix
        # LAPACK factors in place
        chol, info = dpotrf(ky.T, lower=1, overwrite_a=1)
        # dpotrf passes inf and nan through to the diagonal instead of failing
        half_logdet = float(np.sum(np.log(np.diagonal(chol)))) if info == 0 else math.nan
        if not math.isfinite(half_logdet):
            raise NotPositiveDefiniteError("kernel matrix is not positive definite")
        alpha, _ = dpotrs(chol, self.y, lower=1)
        value = -0.5 * float(self.y @ alpha) - half_logdet - 0.5 * len(self.y) * math.log(2.0 * math.pi)
        return _Evaluation(value, k, chol, alpha)

    def gradient(self, hyper: Hyperparams, ev: _Evaluation) -> np.ndarray:
        """GPML eq. 5.9 with respect to (log sigma_f, log length_scale...,
        log sigma_n): 1/2 tr((alpha alpha^T - Ky^-1) dKy/dtheta).

        The jitter JITTER_REL (sigma_f^2 + sigma_n^2) is held constant: its
        own derivative is left out. The omitted term is negligible while
        sigma_n^2 is large against the jitter, but at the noise floor the
        two are of one size, and the sigma_f component can then be wrong in
        sign (see the FOUND line on the jitter convention in CHANGES.md).

        Only one triangle of Ky^-1 is formed. dpotrf zeroes the unused
        triangle of the factor and dpotri writes only the lower one, so U,
        the C-ordered view of its result, is Ky^-1's upper triangle with
        zeros below. For symmetric M, tr(Ky^-1 M) = 2 sum(U * M) -
        diag(Ky^-1) . diag(M), where diag K = sigma_f^2 and diag of K * D_d
        (D_d: squared differences along dimension d) is zero.
        """
        _, dpotri, _, _ = _lapack()
        b, _ = dpotri(ev.chol, lower=1)
        u = b.T
        alpha, k = ev.alpha, ev.k
        tr_inv = float(np.trace(u))
        grads = [float(alpha @ (k @ alpha)) - 2.0 * float(np.vdot(u, k)) + hyper.sigma_f**2 * tr_inv]
        ls = hyper.length_scale
        for d2, ell in zip([self.sqdist] if ls.size == 1 else self.sqdiff, ls):
            kd = k * d2
            grads.append(0.5 / ell**2 * (float(alpha @ (kd @ alpha)) - 2.0 * float(np.vdot(u, kd))))
        grads.append(hyper.sigma_n**2 * (float(alpha @ alpha) - tr_inv))
        return np.array(grads)


def log_marginal_likelihood(
    x: np.ndarray, y: np.ndarray, hyper: Hyperparams
) -> tuple[float, np.ndarray]:
    """Exact-GP log marginal likelihood and its gradient.

    The gradient is taken with respect to the log hyperparameters, ordered
    (log sigma_f, log length_scale..., log sigma_n).
    """
    lml = _Likelihood(np.atleast_2d(np.asarray(x, dtype=float)), np.asarray(y, dtype=float))
    ev = lml.evaluate(hyper)
    return ev.value, lml.gradient(hyper, ev)


def training_target(
    xdot_n_measured: float, w: Sequence[float], phi: Sequence[float], u_applied: float
) -> float:
    """Regression target: measured state derivative minus the model's account.

    Equals the disturbance exactly when the weight estimate is ideal;
    otherwise the residual model error folds in as well.
    """
    return float(xdot_n_measured) - float(dot(w, phi)) - float(u_applied)


class GpModel:
    """Exact GP over a sliding window with snapshot-based prediction."""

    def __init__(
        self,
        window: int = 100,
        hyper: Hyperparams | None = None,
        starts: int = 5,
        sigma_n_floor: float = 1e-4,
        per_dim_lengthscale: bool = False,
        seed: int = 0,
    ):
        self.window = window
        self.hyper = hyper if hyper is not None else Hyperparams()
        self.starts = starts
        self.sigma_n_floor = sigma_n_floor
        self.per_dim_lengthscale = per_dim_lengthscale
        self.seed = seed
        self._inputs: list[np.ndarray] = []
        self._targets: list[float] = []
        # snapshot frozen at the last fit
        self._snap_x: np.ndarray | None = None
        self._snap_chol: np.ndarray | None = None
        self._snap_alpha: np.ndarray | None = None
        self._snap_hyper: Hyperparams | None = None

    @classmethod
    def from_config(cls, cfg: GpConfig, seed: int = 0) -> "GpModel":
        return cls(
            window=cfg.window,
            starts=cfg.starts,
            sigma_n_floor=cfg.sigma_n_floor,
            per_dim_lengthscale=(cfg.lengthscale_mode == "per_dim"),
            seed=seed,
        )

    def __len__(self) -> int:
        return len(self._targets)

    @property
    def fitted(self) -> bool:
        return self._snap_chol is not None

    @property
    def inputs(self) -> np.ndarray:
        return np.array(self._inputs) if self._inputs else np.zeros((0, 0))

    @property
    def targets(self) -> np.ndarray:
        return np.array(self._targets)

    def observe(self, x: np.ndarray, y: float):
        """Append a training pair, evicting the oldest beyond the window."""
        self._inputs.append(np.array(x, dtype=float))
        self._targets.append(float(y))
        if len(self._targets) > self.window:
            self._inputs.pop(0)
            self._targets.pop(0)

    def _clamp(self, theta: np.ndarray) -> np.ndarray:
        lo = np.full(theta.shape, -LOG_BOUND)
        lo[-1] = math.log(self.sigma_n_floor)  # the noise floor, not the generic bound
        return np.clip(theta, lo, LOG_BOUND)

    def _ascend(self, lml: _Likelihood, theta: np.ndarray) -> tuple[float, np.ndarray] | None:
        """Backtracking gradient ascent from one start; None if it never
        produced a positive-definite kernel matrix.

        Steps follow the normalized gradient and are clamped to the
        bounds; the trial step is halved on rejection and doubled (up to 1)
        after acceptance. The ascent stops when the trial step falls below
        STEP_TOL, when every gradient component is below 1e-8, or after
        MAX_ITER accepted steps. Line-search candidates only evaluate the
        likelihood value; the gradient is computed once per accepted point.

        The stop is not a stationarity test, and the direction is not
        always uphill. On smooth windows the noise scale ends at its floor,
        where the jitter is as large as sigma_n^2. The gradient holds the
        jitter constant, so there its sigma_f component can be wrong in
        sign: on case e's first fit at h = 0.01 with a 200-point window it
        reads +8.50 where the likelihood's slope is -12.82. Trial steps
        along such a direction are rejected until the step falls below
        STEP_TOL, so a start can stop with its gradient far from zero.
        """
        theta = self._clamp(theta.copy())
        hyper = Hyperparams.from_log_vector(theta)
        try:
            ev = lml.evaluate(hyper)
        except NotPositiveDefiniteError:
            return None
        value = ev.value
        grad = lml.gradient(hyper, ev)
        step = 0.5
        for _ in range(MAX_ITER):
            gnorm = float(np.linalg.norm(grad))
            if np.max(np.abs(grad)) < 1e-8:
                break
            direction = grad / gnorm
            moved = False
            while step > STEP_TOL:
                cand = self._clamp(theta + step * direction)
                hyper_cand = Hyperparams.from_log_vector(cand)
                try:
                    ev = lml.evaluate(hyper_cand)
                except NotPositiveDefiniteError:
                    step *= 0.5
                    continue
                if ev.value > value:
                    theta, value = cand, ev.value
                    grad = lml.gradient(hyper_cand, ev)
                    moved = True
                    step = min(2.0 * step, 1.0)
                    break
                step *= 0.5
            if not moved:
                break
        return value, theta

    def _start_points(self, lml: _Likelihood, n_ls: int) -> list[np.ndarray]:
        incumbent = self.hyper.log_vector()
        if incumbent.size != n_ls + 2:
            # promote/demote the length-scale block to the requested layout
            ls = float(np.exp(np.mean(incumbent[1:-1])))
            incumbent = np.concatenate([[incumbent[0]], np.full(n_ls, math.log(ls)), [incumbent[-1]]])
        points = [incumbent]
        rng = np.random.default_rng(self.seed)
        y_scale = max(float(np.std(lml.y)), 1e-3)
        if len(lml.y) > 1:
            dists = np.sqrt(lml.sqdist)
            d_scale = max(float(np.median(dists[dists > 0])) if np.any(dists > 0) else 1.0, 1e-3)
        else:
            d_scale = 1.0
        for _ in range(self.starts):
            theta = np.concatenate(
                [
                    [math.log(y_scale) + rng.uniform(-1.5, 1.5)],
                    math.log(d_scale) + rng.uniform(-1.5, 1.5, size=n_ls),
                    [math.log(y_scale) + rng.uniform(-4.5, -0.5)],
                ]
            )
            points.append(theta)
        return points

    def refresh(self, hyper: Hyperparams | None = None) -> "GpModel":
        """Rebuild the prediction snapshot on the current window at hyper
        (default: the incumbent), which becomes the incumbent.

        Raises NotPositiveDefiniteError, keeping the previous
        hyperparameters and snapshot, if the training matrix fails its
        factorization; inf or nan in the inputs make it fail.
        """
        if not self._targets:
            raise ValueError("refresh requires at least 1 training point")
        hyper = self.hyper if hyper is None else hyper
        x = np.array(self._inputs)
        ev = _Likelihood(x, np.array(self._targets)).evaluate(hyper)
        self.hyper = hyper
        self._snap_x = x
        self._snap_chol = ev.chol
        self._snap_alpha = ev.alpha
        self._snap_hyper = hyper
        return self

    def fit(self) -> "GpModel":
        """Refit hyperparameters on the current window and rebuild the snapshot.

        The incumbent hyperparameters are one of the optimizer starts, so a
        fit never ends below the incumbent's likelihood. Raises
        AllStartsFailedError (keeping the previous state) if no start
        yields a positive-definite kernel matrix.
        """
        if len(self._targets) < 2:
            raise ValueError("fit requires at least 2 training points")
        x = np.array(self._inputs)
        lml = _Likelihood(x, np.array(self._targets))
        n_ls = x.shape[1] if self.per_dim_lengthscale else 1

        best: tuple[float, np.ndarray] | None = None
        for theta0 in self._start_points(lml, n_ls):
            result = self._ascend(lml, theta0)
            if result is not None and (best is None or result[0] > best[0]):
                best = result
        if best is None:
            raise AllStartsFailedError("no optimizer start produced a usable kernel matrix")
        return self.refresh(Hyperparams.from_log_vector(best[1]))

    def _k_star(self, x_star: np.ndarray) -> np.ndarray:
        """Covariances between the snapshot inputs and one query state.

        Built from direct differences, so predict and predict_mean share
        one k* to the last bit.
        """
        if not self.fitted:
            raise UnfittedModelError("model has no fitted snapshot")
        hyper = self._snap_hyper
        z = (self._snap_x - np.asarray(x_star, dtype=float)) / hyper.length_scale
        return hyper.sigma_f**2 * np.exp(-0.5 * np.einsum("ij,ij->i", z, z))

    def predict(self, x_star: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at a query state.

        Uses the snapshot from the last fit; raises UnfittedModelError if
        the model was never fitted (callers substitute the zero prior mean)
        and NonFiniteValueError if the query makes the mean inf or nan.
        """
        k_star = self._k_star(x_star)
        mean = float(k_star @ self._snap_alpha)
        if not math.isfinite(mean):
            raise NonFiniteValueError("query state gives a non-finite posterior mean")
        _, _, _, dtrsv = _lapack()
        v = dtrsv(self._snap_chol, k_star, lower=1)
        var = self._snap_hyper.sigma_f**2 - float(v @ v)
        return mean, max(var, 0.0)

    def predict_mean(self, x_star: np.ndarray) -> float:
        """Posterior mean only; the hot path inside integration stages."""
        return float(self._k_star(x_star) @ self._snap_alpha)
