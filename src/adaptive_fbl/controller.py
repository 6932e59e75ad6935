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
from .numerics import compiled, dot_source, function_source, require_finite, symbols, tuple_source
from .plant import integrator_chain


@dataclass
class ControllerConfig:
    """Gains for the control law; m = 0 turns the robustness term off.

    gains is the error-feedback row vector, stored as a tuple of floats;
    its length fixes the system order. q and r weight the matrix equation
    that produces P.
    """

    gains: tuple[float, ...] = (20.0, 20.0)
    m: float = 1.0
    rho: float = 0.01
    q: np.ndarray | None = None
    r: float = 0.01

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
        require_finite(self, "gains", "m", "rho", "q", "r")
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


def law_source(n: int, m: int) -> list[str]:
    """The control law as lines of Python source, the one definition of it.

    The lines read the weights w1..wm, the regressor f1..fm, the errors
    e1..en, the reference feedforward u_ref and the GP mean u_gp (0 when
    GP compensation is inactive), and the constants gain1..gainn, P's last
    row p1..pn, m_rob and rho. They assign the ControlBreakdown fields
    u_fbl, u_sfb, u_rob and u_total. The robustness term is the
    boundary-layer saturation of s = b.T P e, whose magnitude never
    exceeds the gain m_rob, so m_rob = 0 turns it off; the integrator
    chain's b picks P's last row.
    """
    w, f, e = symbols("w", m), symbols("f", m), symbols("e", n)
    return [
        f"u_fbl = -({dot_source(w, f)})",
        f"u_sfb = {dot_source(symbols('gain', n), e)}",
        f"s = {dot_source(symbols('p', n), e)}",
        "if abs(s) > rho:",
        "    u_rob = -m_rob if s > 0 else m_rob",
        "else:",
        "    u_rob = -m_rob * s / rho",
        "u_total = u_fbl + u_sfb + u_ref - u_gp - u_rob",
    ]


def _law_function(n: int, m: int) -> str:
    """Source of law(gains, p_last, m_rob, rho, w, phi, e, u_ref, u_gp),
    which returns the ControlBreakdown fields."""
    return function_source(
        "law(gains, p_last, m_rob, rho, w, phi, e, u_ref, u_gp)",
        [
            f"{tuple_source(symbols('gain', n))} = gains",
            f"{tuple_source(symbols('p', n))} = p_last",
            f"{tuple_source(symbols('w', m))} = w",
            f"{tuple_source(symbols('f', m))} = phi",
            f"{tuple_source(symbols('e', n))} = e",
            *law_source(n, m),
            "return u_fbl, u_sfb, u_ref, u_gp, u_rob, u_total",
        ],
    )


def compute_control(
    cfg: ControllerConfig,
    p: Sequence[Sequence[float]],
    w: Sequence[float],
    phi: Sequence[float],
    e: Sequence[float],
    xdot_n_ref: float,
    gp_mean: float = 0.0,
) -> ControlBreakdown:
    """One evaluation of `law_source`'s control law as a ControlBreakdown.
    p is P as rows; a numpy matrix works too."""
    n, m = cfg.order, len(w)
    law = compiled(f"<control law n={n} m={m}>", lambda: _law_function(n, m))["law"]
    return ControlBreakdown(*law(cfg.gains, p[-1], cfg.m, cfg.rho, w, phi, e, xdot_n_ref, gp_mean))
