"""Composite tracking control law.

The control input is assembled from five parts:

    u = u_fbl + u_sfb + u_ref - u_gp - u_rob

    u_fbl = -w . phi(x)        cancels the estimated model dynamics
    u_sfb = k . e              linear state feedback on the tracking error
    u_ref = xdot_n_ref         feedforward of the reference derivative
    u_gp  = gp posterior mean  learned disturbance compensation
    u_rob = -m * sat(s / rho)  robustness term on s = b.T P e

The raw sign-type robustness term is undefined at s = 0 and chatters
under fixed-step integration, so inside |s| <= rho it is replaced by the
linear ramp -m*s/rho (standard boundary-layer smoothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import numerics
from .numerics import dot
from .plant import integrator_chain


@dataclass
class ControllerConfig:
    """Gains and switches for the control law.

    gains is the error-feedback row vector, stored as a tuple of floats;
    its length fixes the system order. q and r weight the matrix equation
    that produces P.
    """

    gains: tuple[float, ...] = (20.0, 20.0)
    m: float = 1.0
    rho: float = 0.01
    q: np.ndarray | None = None
    r: float = 0.01
    rob_enabled: bool = True
    m_auto: bool = False

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 1 or gains.size < 1:
            raise ValueError("gains must be a non-empty vector")
        self.gains = tuple(gains.tolist())
        if self.q is None:
            self.q = np.eye(gains.size)
        else:
            self.q = np.asarray(self.q, dtype=float)
            n = gains.size
            if self.q.shape != (n, n):
                raise ValueError(f"Q must be {n}x{n} to match the gains, got shape {self.q.shape}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.m < 0 or self.r < 0:
            raise ValueError("m and r must be non-negative")

    @property
    def order(self) -> int:
        return len(self.gains)


class ControlBreakdown(NamedTuple):
    """Per-component view of one control evaluation."""

    u_fbl: float
    u_sfb: float
    u_ref: float
    u_gp: float
    u_rob: float
    u_total: float


def closed_loop_matrix(cfg: ControllerConfig) -> np.ndarray:
    a, b = integrator_chain(cfg.order)
    return a - np.outer(b, cfg.gains)


def compute_P(cfg: ControllerConfig) -> np.ndarray:
    """Weighting matrix P from (A-bk).T P + P (A-bk) + Q + k.T R k = 0.

    Raises NotHurwitzError when the gains do not place all closed-loop
    poles in the open left half-plane.
    """
    s_tilde = weighting_matrix(cfg)
    return numerics.solve_lyapunov(closed_loop_matrix(cfg), s_tilde)


def weighting_matrix(cfg: ControllerConfig) -> np.ndarray:
    """S = Q + k.T R k, the decay-rate matrix paired with P."""
    return cfg.q + cfg.r * np.outer(cfg.gains, cfg.gains)


def compute_control(
    cfg: ControllerConfig,
    p: Sequence[Sequence[float]],
    w: Sequence[float],
    phi: Sequence[float],
    e: Sequence[float],
    xdot_n_ref: float,
    gp_mean: float = 0.0,
    m_value: float | None = None,
) -> ControlBreakdown:
    """Assemble the control input from the current estimates and errors.

    gp_mean must be 0 when GP compensation is inactive. m_value overrides
    the configured robustness gain (used by the auto-gain mode). p is
    P as rows; a numpy matrix works too. The robustness term is the
    boundary-layer saturation of s = b.T P e; its magnitude never
    exceeds the gain.
    """
    u_fbl = -dot(w, phi)
    u_sfb = dot(cfg.gains, e)
    if cfg.rob_enabled:
        m = cfg.m if m_value is None else m_value
        s = dot(p[-1], e)  # b.T P e: the integrator chain's b picks P's last row
        rho = cfg.rho
        if abs(s) > rho:
            u_rob = -m if s > 0 else m
        else:
            u_rob = -m * s / rho
    else:
        u_rob = 0.0
    u_total = u_fbl + u_sfb + xdot_n_ref - gp_mean - u_rob
    return ControlBreakdown(u_fbl, u_sfb, xdot_n_ref, gp_mean, u_rob, u_total)
