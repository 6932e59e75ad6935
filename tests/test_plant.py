import math

import numpy as np
import pytest

from adaptive_fbl.numerics import function_source, rk4_step, symbols, tuple_source
from adaptive_fbl.plant import (
    benchmark_plant,
    chain_source,
    eval_regressor,
    integrator_chain,
    sine_reference,
)


@pytest.fixture
def plant():
    return benchmark_plant()


def plant_dynamics(plant):
    """The plant's state derivative (x, phi, u, d) -> xdot, compiled from
    the lines chain_source gives the simulator's stepping kernel."""
    n, m = plant.order, plant.ideal_weights.size
    lines, xdot = chain_source(n, m)
    source = function_source(
        "dynamics(x, phi, u_total, d)",
        [
            f"{tuple_source(symbols('x', n))} = x",
            f"{tuple_source(symbols('f', m))} = phi",
            *lines,
            f"return [{', '.join(xdot)}]",
        ],
    )
    namespace = {f"ws{j}": v for j, v in enumerate(plant.ideal_weights.tolist(), 1)}
    exec(source, namespace)
    return namespace["dynamics"]


class TestRegressor:
    def test_origin(self, plant):
        np.testing.assert_allclose(eval_regressor(plant, [0.0, 0.0]), [0.0, 0.0, 1.0])

    def test_quarter_turn(self, plant):
        np.testing.assert_allclose(
            eval_regressor(plant, [math.pi / 2, 0.0]), [1.0, 0.0, 1.0], atol=1e-15
        )

    def test_generic_point(self, plant):
        # |theta_dot| * theta = |-2| * 1 = +2; the sign of this term in the
        # dynamics comes from the ideal weight, not the regressor
        phi = eval_regressor(plant, [1.0, -2.0])
        np.testing.assert_allclose(phi, [math.sin(1.0), 2.0, math.exp(-2.0)], rtol=1e-14)


class TestPlantDerivative:
    def test_before_disturbance(self, plant):
        origin = [0.0, 0.0]
        np.testing.assert_allclose(
            plant_dynamics(plant)(origin, eval_regressor(plant, origin), 0.0, 0.0), [0.0, 0.5]
        )

    def test_with_disturbance(self, plant):
        # at the origin the disturbance adds cos(0) + 0 = 1
        origin = [0.0, 0.0]
        d = plant.disturbance(15.0, origin)
        assert d == 1.0
        np.testing.assert_allclose(
            plant_dynamics(plant)(origin, eval_regressor(plant, origin), 0.0, d), [0.0, 1.5]
        )

    def test_exact_cancellation(self, plant):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform(0.0, 30.0)
            x = rng.uniform(-0.8, 0.8, size=2)
            phi = eval_regressor(plant, x)
            d = plant.disturbance(t, x)
            u = -float(plant.ideal_weights @ phi) - d
            xdot = plant_dynamics(plant)(x, phi, u, d)
            assert abs(xdot[-1]) <= 1e-12


class TestReference:
    def test_start(self):
        x_ref, xdot_n = sine_reference().trajectory(0.0)
        np.testing.assert_allclose(x_ref, [0.0, 0.5])
        assert xdot_n == 0.0

    def test_quarter_period(self):
        x_ref, xdot_n = sine_reference().trajectory(math.pi / 2)
        np.testing.assert_allclose(x_ref, [0.5, 0.0], atol=1e-15)
        assert abs(xdot_n - (-0.5)) <= 1e-15

    def test_half_period(self):
        x_ref, xdot_n = sine_reference().trajectory(math.pi)
        np.testing.assert_allclose(x_ref, [0.0, -0.5], atol=1e-15)
        assert abs(xdot_n) <= 1e-15

    @pytest.mark.parametrize("name", ["amplitude", "omega"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_amplitude_or_frequency(self, name, value):
        """The reference fails at construction, naming the argument, not as
        a nan state in the middle of a run."""
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            sine_reference(**{name: value})

    def test_derivative_chain_consistency(self):
        ref = sine_reference(amplitude=0.5, omega=1.0)
        eps = 1e-5
        for t in np.linspace(0.3, 29.7, 40):
            x_plus, _ = ref.trajectory(t + eps)
            x_minus, _ = ref.trajectory(t - eps)
            fd = (np.asarray(x_plus) - np.asarray(x_minus)) / (2 * eps)
            x_ref, xdot_n = ref.trajectory(t)
            # component i+1 is the derivative of component i
            scale = max(abs(x_ref[1]), 0.1)
            assert abs(fd[0] - x_ref[1]) / scale <= 1e-4
            assert abs(fd[1] - xdot_n) / max(abs(xdot_n), 0.1) <= 1e-4


class TestIntegratorChain:
    def test_structure(self):
        a, b = integrator_chain(3)
        np.testing.assert_array_equal(a, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        np.testing.assert_array_equal(b, [0, 0, 1])

    def test_chain_consistency_on_linear_field(self):
        # constant input through the chain has a polynomial solution that
        # the fixed-step integrator reproduces to rounding error
        a, b = integrator_chain(2)
        u = 0.7
        x = np.array([0.2, -0.1])
        h = 1e-2
        for i in range(100):
            x = rk4_step(lambda t, x: a @ x + b * u, i * h, x, h)
        t = 1.0
        exact = np.array([0.2 - 0.1 * t + 0.5 * u * t**2, -0.1 + u * t])
        np.testing.assert_allclose(x, exact, atol=1e-8)
