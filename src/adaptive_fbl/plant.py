"""True system dynamics, the benchmark system, and the reference model.

The plant family is the single-input integrator chain

    xdot_i = x_{i+1}                 (i < n)
    xdot_n = w* . phi(x) + u + d(t, x)

with known regressor phi, unknown ideal weights w*, and an external
disturbance d; `chain_source` writes these dynamics for the simulator's
generated stepping kernel. The built-in benchmark is a second-order
system with

    phi(theta, thetadot) = [sin(theta), |thetadot|*theta, exp(theta*thetadot)]
    w* = [1, -1, 0.5]
    d  = cos(theta) + thetadot   (applied on a scenario's disturbed stages only)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import compiled, dot_source, function_source, symbols

BENCHMARK_NAME = "benchmark_5717148"
BENCHMARK_IDEAL_WEIGHTS = np.array([1.0, -1.0, 0.5])


def integrator_chain(n: int) -> tuple[np.ndarray, np.ndarray]:
    """State matrix (superdiagonal ones) and input vector [0,...,0,1]."""
    if n < 1:
        raise ValueError("system order must be >= 1")
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return a, b


@dataclass(frozen=True)
class Plant:
    """True dynamics: ideal weights, regressor, and disturbance function.

    Immutable after construction; safe to share across threads.
    """

    order: int
    ideal_weights: np.ndarray
    regressor: Callable[[Sequence[float]], Sequence[float]]
    disturbance: Callable[[float, Sequence[float]], float]
    name: str = "custom"


@dataclass(frozen=True)
class ReferenceModel:
    """Reference trajectory t -> (x_ref, xdot_n_ref).

    x_ref has one entry per plant state (check_reference_shape), and
    component i+1 of x_ref must be the time derivative of component i.
    """

    trajectory: Callable[[float], tuple[Sequence[float], float]]


def eval_regressor(plant: Plant, x: Sequence[float]) -> Sequence[float]:
    """phi(x), unchecked: an inf or nan entry reaches the step's new state,
    which the simulator checks. check_regressor_shape checks phi's shape."""
    return plant.regressor(x)


def check_regressor_shape(plant: Plant, x: Sequence[float]) -> None:
    """Raise ValueError unless phi(x) has one entry per ideal weight."""
    shape = np.shape(eval_regressor(plant, x))
    if shape != plant.ideal_weights.shape:
        raise ValueError(f"regressor returned {shape}, expected {plant.ideal_weights.shape}")


def check_reference_shape(reference: ReferenceModel, order: int) -> None:
    """Raise ValueError unless x_ref has one entry per state of the plant."""
    x_ref, _ = reference.trajectory(0.0)
    if len(x_ref) != order:
        raise ValueError(f"reference returned {len(x_ref)} states, the plant has order {order}")


def chain_source(n: int, m: int) -> tuple[list[str], list[str]]:
    """The chain dynamics as Python source, the one definition of them:
    (lines, names of xdot_1..xdot_n). The lines read the state x1..xn, the
    regressor f1..fm, the ideal weights ws1..wsm, the control input
    u_total and the disturbance d, and assign xdot_n to xd.
    """
    xd = f"xd = {dot_source(symbols('ws', m), symbols('f', m))} + u_total + d"
    return [xd], [*symbols("x", n)[1:], "xd"]


def _benchmark_regressor(x: Sequence[float]) -> tuple[float, float, float]:
    theta, theta_dot = float(x[0]), float(x[1])
    try:
        growth = math.exp(theta * theta_dot)
    except OverflowError:
        growth = math.inf  # the simulator's state check reports the step's nan
    return (math.sin(theta), abs(theta_dot) * theta, growth)


def _benchmark_disturbance(t: float, x: Sequence[float]) -> float:
    return math.cos(float(x[0])) + float(x[1])


def benchmark_plant() -> Plant:
    """The built-in second-order benchmark system."""
    return Plant(
        order=2,
        ideal_weights=BENCHMARK_IDEAL_WEIGHTS.copy(),
        regressor=_benchmark_regressor,
        disturbance=_benchmark_disturbance,
        name=BENCHMARK_NAME,
    )


def sine_reference(amplitude: float = 0.5, omega: float = 1.0, order: int = 2) -> ReferenceModel:
    """Sinusoidal reference amplitude*sin(omega*t) and its derivative chain."""
    if amplitude <= 0 or omega <= 0:
        raise ValueError("amplitude and omega must be positive")

    # d^k/dt^k of amplitude*sin(omega t) is scale_k * (sin, cos)[k % 2];
    # the quarter-phase case analysis keeps zeros exact
    scales = [amplitude * omega**k * (-1.0 if k % 4 in (2, 3) else 1.0) for k in range(order + 1)]
    bind = compiled(f"<sine reference order={order}>", lambda: _sine_source(order))["bind"]
    return ReferenceModel(trajectory=bind(omega, *scales))


def _sine_source(order: int) -> str:
    """Source of bind(omega, scale0..scale<order>), which returns the sine
    reference's trajectory: one product scale_k * sin or scale_k * cos per
    chain entry, written out."""
    scales = [f"scale{k}" for k in range(order + 1)]
    chain = [f"{scale} * {'c' if k % 2 else 's'}" for k, scale in enumerate(scales)]
    trajectory = function_source(
        "trajectory(t)",
        [
            "phase = omega * t",
            "s, c = sin(phase), cos(phase)",
            f"return [{', '.join(chain[:order])}], {chain[order]}",
        ],
    )
    body = [*trajectory.splitlines(), "return trajectory"]
    return "from math import cos, sin\n\n" + function_source(f"bind(omega, {', '.join(scales)})", body)
