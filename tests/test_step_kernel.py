"""The generated stepping kernel against a closed loop written out here.

The reference loop is built from `compute_control`, the chain dynamics
[*x[1:], w* . phi + u + d] and `weight_update_derivative`, and integrated
by `numerics.rk4_step`. The kernel must give the same bits: its stage
derivative, its row's xdot, and its RK4 step from the row's values, whose
k1 holds the weight rates on a step that learns.
"""

import inspect
import math
import traceback
from operator import mul
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_fbl.concurrent_learning import HistoryStack, weight_update_derivative
from adaptive_fbl.controller import ControllerConfig, compute_control
from adaptive_fbl.numerics import rk4_step
from adaptive_fbl.plant import Plant, sine_reference
from adaptive_fbl.simulator import step_kernel

CONTAINERS = {"tuple": tuple, "list": list, "array": np.array}


def bits(values):
    return [float(v).hex() for v in values]


def smooth_regressor(n, m, coeffs, container):
    """phi_j(x) = sin(a_j x_1) + b_j x_n x_(j mod n + 1), returned as the container."""

    def regressor(x):
        return container(
            [math.sin(a * x[0]) + b * x[-1] * x[j % n] for j, (a, b) in enumerate(coeffs[:m])]
        )

    return regressor


def gp_mean(x):
    return 0.2 * x[0] - 0.1 * x[-1]


def gp_predict(x):
    return gp_mean(x), 0.05


GP = SimpleNamespace(predict=gp_predict, predict_mean=gp_mean)


def reference_loop(cfg, p_last, plant, reference, w_bound, flags, gamma, stack):
    """The closed loop f(t, z), z = x + w on a step that learns, else x."""
    learning, disturbed, gp = flags
    n, w_star = plant.order, plant.ideal_weights.tolist()

    def f(t, z):
        x, w = (z[:n], z[n:]) if learning else (z, w_bound)
        x_ref, u_ref = reference.trajectory(t)
        e = [ri - xi for ri, xi in zip(x_ref, x)]
        phi = plant.regressor(x)
        d = plant.disturbance(t, x) if disturbed else 0.0
        u = compute_control(cfg, [p_last], w, phi, e, u_ref, gp_mean(x) if gp else 0.0).u_total
        xdot = [*x[1:], sum(map(mul, w_star, phi)) + u + d]
        if learning:
            return xdot + weight_update_derivative(gamma, stack, w, phi, e, [p_last])
        return xdot

    return f


finite = st.floats(-1.5, 1.5)


@settings(max_examples=120)
@given(
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    data=st.data(),
    learning=st.booleans(),
    disturbed=st.booleans(),
    gp=st.booleans(),
    records=st.integers(0, 4),
    container=st.sampled_from(sorted(CONTAINERS)),
    t=st.floats(0.0, 30.0),
    h=st.floats(1e-3, 0.05),
)
def test_kernel_matches_rk4_over_the_reference_loop(
    n, m, data, learning, disturbed, gp, records, container, t, h
):
    def vector(size, elements=finite):
        return data.draw(st.lists(elements, min_size=size, max_size=size))

    cfg = ControllerConfig(
        gains=vector(n, st.floats(0.5, 30.0)),
        m=data.draw(st.floats(0.0, 2.0)),
        rho=data.draw(st.floats(1e-3, 0.5)),
    )
    p_last = vector(n, st.floats(0.01, 2.0))
    coeffs = [tuple(vector(2)) for _ in range(m)]
    plant = Plant(
        order=n,
        ideal_weights=np.array(vector(m)),
        regressor=smooth_regressor(n, m, coeffs, CONTAINERS[container]),
        disturbance=lambda t, x: math.cos(x[0]) + 0.3 * x[-1] + 0.01 * t,
    )
    reference = sine_reference(amplitude=data.draw(st.floats(0.1, 1.0)), order=n)
    x, w = vector(n), vector(m)
    stack = HistoryStack(capacity=5)
    for _ in range(records):
        stack.try_record(vector(m), data.draw(finite), data.draw(finite))
    gamma = data.draw(st.floats(0.1, 5.0))

    kernel = step_kernel(
        cfg, p_last, plant, reference, h, w,
        learning=learning, disturbed=disturbed, gamma=gamma, stack=stack, gp=GP if gp else None,
    )
    f = reference_loop(cfg, p_last, plant, reference, w, (learning, disturbed, gp), gamma, stack)
    z = x + w if learning else x

    expected_k1 = f(t, z)
    assert bits(kernel.derivative(t, *z)) == bits(expected_k1)

    _, phi, e, xdot, _ = kernel.row(t, x, w)
    assert bits(xdot) == bits(expected_k1[:n])

    z_next = kernel.step(t, x, w, xdot, phi, e)
    assert isinstance(z_next, list) and bits(z_next) == bits(rk4_step(f, t, z, h))


def test_a_kernel_shows_its_source():
    """The kernel's functions come from a named source that inspect and
    tracebacks can read."""

    def regressor(x):
        if x[0] > 1.0:
            raise ArithmeticError("outside the fitted range")
        return (x[0],)

    cfg = ControllerConfig(gains=(20.0, 20.0))
    plant = Plant(2, np.array([1.0]), regressor, lambda t, x: 0.0)
    kernel = step_kernel(
        cfg, [0.5, 0.1], plant, sine_reference(), 0.01, [0.0], learning=True, disturbed=False,
        gamma=1.0, stack=HistoryStack(1),
    )
    assert kernel.step.__code__.co_filename == "<step kernel n=2 m=1 learning>"
    source = inspect.getsource(kernel.derivative)
    assert source.startswith("    def derivative(t, x1, x2, w1):")
    assert "xd = 0.0 + ws1 * f1 + u_total + d" in source
    try:
        kernel.derivative(0.0, 2.0, 0.0, 0.0)
    except ArithmeticError:
        shown = traceback.format_exc()
    assert 'File "<step kernel n=2 m=1 learning>", line' in shown
    assert "phi = regressor(x)" in shown
