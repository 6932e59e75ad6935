"""Sliding-window Gaussian-process regression of the control-input mismatch.

Exact inference with a squared-exponential kernel whose one length scale
is shared by every state dimension. The model regresses from system
states to the target

    y = xdot_n_measured - w . phi(x) - u_applied

which algebraically equals d - (w - w*) . phi(x): the disturbance plus
whatever the weight estimate still gets wrong. Subtracting the posterior
mean of this quantity in the control law cancels both at once.

The three hyperparameters (signal scale, length scale, noise scale) are
refit by multi-start gradient ascent on the log marginal likelihood. The
noise scale is a learned parameter with a small floor (SIGMA_N_FLOOR); a
noise-free kernel matrix is not invertible reliably enough for online use.
A run samples the window every SAMPLE_PERIOD seconds of its disturbed
stages and refits every REFIT_PERIOD seconds of its compensated one.

The gradient sums its n x n products with numpy's own sum, not a BLAS dot
product, so a fit does not depend on how many threads numpy's BLAS runs,
and scipy's LAPACK, which factorizes, always runs one (_lapack).

Predictions read a snapshot frozen at the last fit, so observations can
stream in between refits without perturbing the controller mid-step.

The optimizer starts are independent, since the likelihood is multimodal,
so a fit deals them round-robin over one process per usable CPU (not
threads: scipy's LAPACK wrappers hold the interpreter lock). It forks a
child per chunk but the first, ascends the first itself and reads the
children's results back through pipes. The winner is picked in start
order, so every fit is bit-identical whichever way its starts were dealt.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AllStartsFailedError, FitWorkerError, NonFiniteValueError, NotPositiveDefiniteError
from .errors import UnfittedModelError
from .numerics import dot, fork_child, reap_child, require_count, require_finite

JITTER_REL = 1e-8
LOG_BOUND = 6.0  # |log hyperparam| cap during optimization
SIGMA_N_FLOOR = 1e-4  # the noise scale's lower bound during optimization
SAMPLE_PERIOD = 0.1  # seconds between a run's training samples
REFIT_PERIOD = 0.5  # seconds between a run's refits
# a line search ends when its trial step in log-hyperparameter space falls to
# STEP_TOL, or to STEP_REL times the smallest step its ascent has accepted,
# whichever is larger: on the plant's windows steps below STEP_TOL gained
# under 1e-3 nats, and on wide_window's only 19 of 659 trial steps at or
# below an eighth of the ascent's smallest were accepted
STEP_TOL = 1e-3
STEP_REL = 0.125
MAX_ITER = 100  # accepted steps per ascent start
# the variables through which OpenBLAS, OpenMP and MKL builds read a thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _lapack():
    """(dpotrf, dpotri, dpotrs, dtrsv), scipy's compiled LAPACK and BLAS
    wrappers, loaded at the first call.

    Only the GP needs them, so a run without one never loads them. The
    call loads just the two extension modules that scipy.linalg.lapack and
    scipy.linalg.blas export the routines from, scipy.linalg._flapack and
    _fblas (about 5 ms and 4 MB), not the scipy.linalg package (85 modules,
    about 0.3 s and 27 MB). A module already in sys.modules is used as it
    is, so the routines are the very objects scipy.linalg exports.

    scipy's OpenBLAS reads its thread count from the environment once, when
    it loads, so the load runs with the thread variables at "1" and then
    restores the caller's values. The GP's 100-200 point factorizations
    gain nothing from threads, and threaded ones round differently, so a
    fit does not depend on the caller's setting, unless the process had
    imported scipy.linalg itself, with that setting, before its first fit.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        flapack, fblas = (_scipy_linalg_extension(name) for name in ("_flapack", "_fblas"))
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return flapack.dpotrf, flapack.dpotri, flapack.dpotrs, fblas.dtrsv


def _scipy_linalg_extension(name: str):
    """The extension module scipy.linalg.<name>, loaded without importing
    scipy or scipy.linalg; ImportError if it cannot be found."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy = importlib.util.find_spec("scipy")  # locates the package, imports nothing
    roots = scipy.submodule_search_locations if scipy else None
    spec = importlib.machinery.PathFinder.find_spec(fullname, [os.path.join(root, "linalg") for root in roots or ()])
    if spec is None:
        raise ImportError(f"the GP needs scipy's {fullname}, which is not installed", name=fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[fullname] = module
    return module


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class Hyperparams:
    """Squared-exponential kernel parameters, with one length scale shared
    by every input dimension.

    length_scale is held as a numpy float64, so its square and logarithm
    round as numpy's arithmetic does wherever they are taken.
    """

    sigma_f: float = 1.0
    length_scale: float = 1.0
    sigma_n: float = 0.1

    def __post_init__(self):
        ls = np.asarray(self.length_scale, dtype=float)
        if ls.shape != ():
            raise ValueError(f"length_scale must be one number, got shape {ls.shape}")
        object.__setattr__(self, "length_scale", ls[()])
        for name in ("sigma_f", "length_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.sigma_n) and self.sigma_n >= 0):
            raise ValueError(f"sigma_n must be non-negative and finite, got {self.sigma_n!r}")

    def log_vector(self) -> np.ndarray:
        """(log sigma_f, log length_scale, log sigma_n)."""
        return np.array([math.log(self.sigma_f), np.log(self.length_scale), math.log(max(self.sigma_n, 1e-300))])

    @staticmethod
    def from_log_vector(theta: np.ndarray) -> "Hyperparams":
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (3,):
            raise ValueError(f"a log vector holds 3 entries, got shape {theta.shape}")
        return Hyperparams(sigma_f=math.exp(theta[0]), length_scale=np.exp(theta[1]), sigma_n=math.exp(theta[2]))


@dataclass
class GpConfig:
    """The online model's settings: the sliding window's size and the
    number of random optimizer starts a fit adds to the incumbent. The
    sampling and refit periods and the noise floor are the module's
    constants."""

    window: int = 100
    starts: int = 5

    def __post_init__(self):
        require_finite(self, "window", "starts")
        require_count("window", self.window, 1)
        require_count("starts", self.starts, 0)


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
    so the pairwise squared distances of the inputs are taken once. An
    evaluation builds K from them in place (scale by -1/(2 l^2),
    exponentiate, multiply by sigma_f^2) and factors with LAPACK directly. The targets are checked for inf and nan here, once;
    the factorization does not look at them. A gradient writes each of its
    n x n products into one buffer kept with the window, so it allocates
    no n x n temporary (320 KB at n = 200).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        if not np.all(np.isfinite(y)):
            raise NonFiniteValueError("training targets contain inf or nan")
        self.x, self.y = x, y
        cols = x.T
        diff = cols[:, :, None] - cols[:, None, :]
        self.sqdist = (diff * diff).sum(axis=0)
        self.buf = np.empty_like(self.sqdist)

    def evaluate(self, hyper: Hyperparams) -> _Evaluation:
        """Raises NotPositiveDefiniteError if K + (sigma_n^2 + jitter) I
        fails its factorization or holds inf or nan."""
        k = np.multiply(self.sqdist, -0.5 / hyper.length_scale**2)
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
        """GPML eq. 5.9 with respect to (log sigma_f, log length_scale,
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
        diag(Ky^-1) . diag(M), where diag K = sigma_f^2 and diag of K * D
        (D: the squared distances) is zero. sum(U * M) is numpy's own sum,
        not a BLAS dot product: on an n x n matrix (40 000 entries at n =
        200) the BLAS one rounds differently with each thread count, so the
        fit, and the trace, would depend on the caller's BLAS threads.
        """
        _, dpotri, _, _ = _lapack()
        b, _ = dpotri(ev.chol, lower=1)
        u = b.T
        alpha, k = ev.alpha, ev.k
        tr_inv = float(np.trace(u))
        buf = self.buf
        u_k = float(np.multiply(u, k, out=buf).sum())
        grads = [float(alpha @ (k @ alpha)) - 2.0 * u_k + hyper.sigma_f**2 * tr_inv]
        kd = np.multiply(k, self.sqdist, out=buf)
        kd_alpha = float(alpha @ (kd @ alpha))
        u_kd = float(np.multiply(u, kd, out=buf).sum())
        grads.append(0.5 / hyper.length_scale**2 * (kd_alpha - 2.0 * u_kd))
        grads.append(hyper.sigma_n**2 * (float(alpha @ alpha) - tr_inv))
        return np.array(grads)


def _clamp(theta: np.ndarray) -> np.ndarray:
    lo = np.full(theta.shape, -LOG_BOUND)
    lo[-1] = math.log(SIGMA_N_FLOOR)  # the noise floor, not the generic bound
    return np.clip(theta, lo, LOG_BOUND)


def _ascend(lml: _Likelihood, theta: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Backtracking gradient ascent from one start; None if it never
    produced a positive-definite kernel matrix.

    A point that is not finite (a gradient of inf or nan makes one) is
    rejected as a failed factorization is: Hyperparams raises ValueError
    for it.

    Steps follow the normalized gradient and are clamped to the
    bounds; the trial step is halved on rejection and doubled (up to 1)
    after acceptance. A line search fails, and the ascent stops, when
    its trial step falls to max(STEP_TOL, STEP_REL * smallest), where
    smallest is the smallest step this ascent has accepted (0.5 before
    the first). The ascent also stops when every gradient component is
    below 1e-8, or after MAX_ITER accepted steps. Line-search candidates
    only evaluate the likelihood value; the gradient is computed once per
    accepted point.

    The floor follows the ascent's accepted steps, not the step its
    search starts from, so an ascent on an ill-conditioned window, whose
    accepted steps shrink to 1/512 as case d's do, can still take them.
    The final search, the one that fails, is what it saves: on
    wide_window (case e, h = 0.01, gp_window = 200, seed 0) the fits
    evaluate the likelihood 1606 times instead of 2340, with the same
    winners.

    The stop is not a stationarity test, and the direction is not
    always uphill. On smooth windows the noise scale ends at its floor,
    where the jitter is as large as sigma_n^2. The gradient holds the
    jitter constant, so there its sigma_f component can be wrong in
    sign: on case e's first fit at h = 0.01 with a 200-point window it
    reads +8.50 where the likelihood's slope is -12.82. Trial steps
    along such a direction are rejected until the step reaches the
    floor, so a start can stop with its gradient far from zero.
    """
    theta = _clamp(theta.copy())
    try:
        hyper = Hyperparams.from_log_vector(theta)
        ev = lml.evaluate(hyper)
    except (NotPositiveDefiniteError, ValueError):
        return None
    value = ev.value
    grad = lml.gradient(hyper, ev)
    step = smallest = 0.5
    for _ in range(MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if np.max(np.abs(grad)) < 1e-8:
            break
        direction = grad / gnorm
        moved = False
        floor = max(STEP_TOL, STEP_REL * smallest)
        while step > floor:
            cand = _clamp(theta + step * direction)
            try:
                hyper_cand = Hyperparams.from_log_vector(cand)
                ev = lml.evaluate(hyper_cand)
            except (NotPositiveDefiniteError, ValueError):
                step *= 0.5
                continue
            if ev.value > value:
                theta, value = cand, ev.value
                grad = lml.gradient(hyper_cand, ev)
                moved = True
                smallest = min(smallest, step)
                step = min(2.0 * step, 1.0)
                break
            step *= 0.5
        if not moved:
            break
    return value, theta


def _fork_ascent(lml: _Likelihood, starts: list[np.ndarray]):
    """Fork a child that ascends starts on lml, which it inherits, and
    pickles their results down a pipe: (its pid, the pipe's read end)."""
    read, write = os.pipe()

    def ascend_chunk():
        with open(write, "wb") as out:
            pickle.dump([_ascend(lml, theta) for theta in starts], out)

    try:
        pid = fork_child(ascend_chunk, "GP fit worker")
    except BaseException:
        os.close(read)
        raise
    finally:
        os.close(write)
    return pid, open(read, "rb")


def log_marginal_likelihood(
    x: np.ndarray, y: np.ndarray, hyper: Hyperparams
) -> tuple[float, np.ndarray]:
    """Exact-GP log marginal likelihood and its gradient.

    The gradient is taken with respect to the log hyperparameters, ordered
    (log sigma_f, log length_scale, log sigma_n).
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
    """Exact GP over a sliding window with snapshot-based prediction. window
    and starts are GpConfig's settings, with its defaults."""

    def __init__(
        self,
        window: int = GpConfig.window,
        hyper: Hyperparams | None = None,
        starts: int = GpConfig.starts,
        seed: int = 0,
    ):
        self.window = window
        self.hyper = hyper if hyper is not None else Hyperparams()
        self.starts = starts
        self.seed = seed
        self._inputs: list[np.ndarray] = []
        self._targets: list[float] = []
        # snapshot frozen at the last fit
        self._snap_x: np.ndarray | None = None
        self._snap_chol: np.ndarray | None = None
        self._snap_alpha: np.ndarray | None = None

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

    def _start_points(self, lml: _Likelihood) -> list[np.ndarray]:
        """The incumbent's log vector, then `starts` random ones around the
        targets' spread and the inputs' median distance."""
        points = [self.hyper.log_vector()]
        rng = np.random.default_rng(self.seed)
        y_scale = max(float(np.std(lml.y)), 1e-3)
        dists = np.sqrt(lml.sqdist)
        d_scale = max(float(np.median(dists[dists > 0])) if np.any(dists > 0) else 1.0, 1e-3)
        log_y, log_d = math.log(y_scale), math.log(d_scale)
        for _ in range(self.starts):
            theta = [log_y + rng.uniform(-1.5, 1.5), log_d + rng.uniform(-1.5, 1.5), log_y + rng.uniform(-4.5, -0.5)]
            points.append(np.array(theta))
        return points

    def refresh(self, hyper: Hyperparams | None = None, lml: _Likelihood | None = None) -> "GpModel":
        """Rebuild the prediction snapshot on the current window at hyper
        (default: the incumbent), which becomes the incumbent. lml is the
        window's likelihood, when the caller (fit) has built it already.

        Raises NotPositiveDefiniteError, keeping the previous
        hyperparameters and snapshot, if the training matrix fails its
        factorization; inf or nan in the inputs make it fail.
        """
        if not self._targets:
            raise ValueError("refresh requires at least 1 training point")
        hyper = self.hyper if hyper is None else hyper
        if lml is None:
            lml = _Likelihood(np.array(self._inputs), np.array(self._targets))
        ev = lml.evaluate(hyper)
        self.hyper = hyper
        self._snap_x = lml.x
        self._snap_chol = ev.chol
        self._snap_alpha = ev.alpha
        return self

    def fit(self) -> "GpModel":
        """Refit hyperparameters on the current window and rebuild the snapshot.

        The incumbent hyperparameters are one of the optimizer starts, so a
        fit never ends below the incumbent's likelihood. Raises
        AllStartsFailedError (keeping the previous state) if no start
        yields a positive-definite kernel matrix.

        The starts are dealt round-robin over p = min(starts,
        usable_cpus()) chunks, one without os.fork: chunk 0 is ascended
        here, each other one in a forked child. A failed child writes its
        traceback to stderr, and the fit raises FitWorkerError. On any
        failure each child is killed and reaped, so none outlives the fit.
        """
        if len(self._targets) < 2:
            raise ValueError("fit requires at least 2 training points")
        lml = _Likelihood(np.array(self._inputs), np.array(self._targets))

        starts = self._start_points(lml)
        p = min(len(starts), usable_cpus()) if hasattr(os, "fork") else 1
        results = [None] * len(starts)
        _lapack()  # loaded before any fork, so every child inherits it
        children = []  # (pid, result pipe) for each chunk after the first
        payloads = None
        try:
            for k in range(1, p):
                children.append(_fork_ascent(lml, starts[k::p]))
            results[::p] = [_ascend(lml, theta) for theta in starts[::p]]
            payloads = [pipe.read() for _, pipe in children]
        finally:
            codes = [reap_child(pid, kill=payloads is None) for pid, _ in children]
            for _, pipe in children:
                pipe.close()
        for k, (code, payload) in enumerate(zip(codes, payloads), 1):
            if code != 0:
                raise FitWorkerError(f"GP fit worker {k} of {p - 1} exited with status {code}")
            results[k::p] = pickle.loads(payload)

        best: tuple[float, np.ndarray] | None = None
        for result in results:
            if result is not None and (best is None or result[0] > best[0]):
                best = result
        if best is None:
            raise AllStartsFailedError("no optimizer start produced a usable kernel matrix")
        return self.refresh(Hyperparams.from_log_vector(best[1]), lml)

    def _k_star(self, x_star: np.ndarray) -> np.ndarray:
        """Covariances between the snapshot inputs and one query state.

        Built from direct differences, so predict and predict_mean share
        one k* to the last bit.
        """
        if not self.fitted:
            raise UnfittedModelError("model has no fitted snapshot")
        hyper = self.hyper
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
        var = self.hyper.sigma_f**2 - float(v @ v)
        return mean, max(var, 0.0)

    def predict_mean(self, x_star: np.ndarray) -> float:
        """Posterior mean only; the hot path inside integration stages."""
        return float(self._k_star(x_star) @ self._snap_alpha)
