import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_fbl import gp
from adaptive_fbl.errors import (
    AllStartsFailedError,
    NonFiniteValueError,
    NotPositiveDefiniteError,
    UnfittedModelError,
)
from adaptive_fbl.gp import (
    JITTER_REL,
    GpConfig,
    GpModel,
    Hyperparams,
    log_marginal_likelihood,
    training_target,
)

W_STAR = np.array([1.0, -1.0, 0.5])


def kernel_matrix(a, b, hyper):
    """Oracle squared-exponential covariances from direct differences."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    z = (a[:, None, :] - b[None, :, :]) / hyper.length_scale
    return hyper.sigma_f**2 * np.exp(-0.5 * np.sum(z * z, axis=-1))


def noisy_gram(x, hyper, jitter=None):
    """Direct-inversion oracle's view of the training matrix (same jitter
    policy as the model unless a jitter is given, inverted with plain
    numpy.linalg.inv)."""
    k = kernel_matrix(x, x, hyper)
    if jitter is None:
        jitter = JITTER_REL * (hyper.sigma_f**2 + hyper.sigma_n**2)
    return k + (hyper.sigma_n**2 + jitter) * np.eye(x.shape[0])


def reference_lml(x, y, hyper):
    """Log marginal likelihood and its gradient (GPML eq. 5.9) from direct
    differences, numpy.linalg.inv and slogdet. The jitter is held constant
    in the gradient, as in the model."""
    n, dim = x.shape
    d2 = ((x[:, None, :] - x[None, :, :]) / hyper.length_scale) ** 2  # (n, n, dim)
    k = kernel_matrix(x, x, hyper)
    ky = noisy_gram(x, hyper)
    ky_inv = np.linalg.inv(ky)
    alpha = ky_inv @ y
    _, logdet = np.linalg.slogdet(ky)
    value = -0.5 * float(y @ alpha) - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi)
    a = np.outer(alpha, alpha) - ky_inv
    grad = [np.sum(a * k)]
    if hyper.length_scale.size == 1:
        grad.append(0.5 * np.sum(a * k * d2.sum(axis=-1)))
    else:
        grad.extend(0.5 * np.sum(a * k * d2[:, :, i]) for i in range(dim))
    grad.append(hyper.sigma_n**2 * np.trace(a))
    return value, np.array(grad)


def frozen_jitter_value(x, y, hyper, jitter):
    """Log marginal likelihood with the jitter given, not taken from hyper."""
    ky = noisy_gram(x, hyper, jitter)
    _, logdet = np.linalg.slogdet(ky)
    return -0.5 * float(y @ np.linalg.solve(ky, y)) - 0.5 * logdet - 0.5 * x.shape[0] * math.log(2 * math.pi)


def fitted_model(x, y, hyper, window=200):
    """Model conditioned at fixed hyperparameters (no optimizer moves)."""
    model = GpModel(window=window, hyper=hyper)
    for xi, yi in zip(x, y):
        model.observe(xi, yi)
    return model.refresh()


def sample_gp_data(rng, hyper, n, low=-4.0, high=4.0):
    x = np.sort(rng.uniform(low, high, size=n))[:, None]
    k = kernel_matrix(x, x, hyper) + hyper.sigma_n**2 * np.eye(n)
    y = np.linalg.cholesky(k + 1e-12 * np.eye(n)) @ rng.standard_normal(n)
    return x, y


def kernel(a, b, hyper):
    """Covariance of two input vectors, as the model's k* computes it."""
    model = GpModel(window=1, hyper=hyper)
    model.observe(a, 0.0)
    k_star = model.refresh()._k_star(b)
    assert k_star.shape == (1,)
    return float(k_star[0])


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        h = Hyperparams(sigma_f=2.0, length_scale=1.0, sigma_n=0.0)
        a = np.array([0.3, -0.7])
        assert kernel(a, a, h) == 4.0

    def test_characteristic_distance(self):
        h = Hyperparams(sigma_f=1.5, length_scale=0.8, sigma_n=0.0)
        # squared distance of exactly 2 l^2 puts the exponent at -1
        a = np.array([0.0, 0.0])
        b = np.array([0.8 * math.sqrt(2.0), 0.0])
        assert abs(kernel(a, b, h) - 1.5**2 / math.e) <= 1e-12

    def test_symmetry(self):
        h = Hyperparams(sigma_f=1.3, length_scale=0.6, sigma_n=0.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.standard_normal(2), rng.standard_normal(2)
            assert kernel(a, b, h) == kernel(b, a, h)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel(np.zeros(2), np.zeros(3), Hyperparams())


class TestPredict:
    def test_unfitted_raises(self):
        with pytest.raises(UnfittedModelError):
            GpModel().predict(np.zeros(2))

    def test_single_noiseless_pair_interpolates(self):
        h = Hyperparams(sigma_f=1.0, length_scale=1.0, sigma_n=0.0)
        model = GpModel(window=10, hyper=h)
        model.observe(np.array([0.2, -0.4]), 1.7)
        model.refresh()
        mean, var = model.predict(np.array([0.2, -0.4]))
        assert abs(mean - 1.7) <= 1e-6
        assert 0.0 <= var <= 1e-6

    def test_matches_direct_inversion_oracle(self):
        rng = np.random.default_rng(12)
        h = Hyperparams(sigma_f=1.2, length_scale=0.9, sigma_n=0.15)
        x = rng.uniform(-2, 2, size=(20, 2))
        y = rng.standard_normal(20)
        model = fitted_model(x, y, h)
        ky_inv = np.linalg.inv(noisy_gram(x, h))
        for _ in range(20):
            q = rng.uniform(-2, 2, size=2)
            k_star = kernel_matrix(x, q[None, :], h)[:, 0]
            mean_oracle = float(k_star @ ky_inv @ y)
            var_oracle = h.sigma_f**2 - float(k_star @ ky_inv @ k_star)
            mean, var = model.predict(q)
            assert abs(mean - mean_oracle) <= 1e-8
            assert abs(var - max(var_oracle, 0.0)) <= 1e-8
            assert abs(model.predict_mean(q) - mean_oracle) <= 1e-8

    def test_mean_identical_to_predict_mean(self):
        """Rows (predict) and integrator stages (predict_mean) see the same
        posterior mean to the last bit, even on an ill-conditioned window
        whose noise scale sits at its floor."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(100, 2))
        y = np.sin(2 * x[:, 0]) * np.cos(x[:, 1])
        model = GpModel(window=100, starts=2, seed=0, sigma_n_floor=1e-4)
        for xi, yi in zip(x, y):
            model.observe(xi, yi)
        model.fit()
        assert model.hyper.sigma_n == pytest.approx(1e-4)
        for q in rng.uniform(-1.2, 1.2, size=(2000, 2)).tolist():
            assert model.predict(q)[0] == model.predict_mean(q)

    def test_nan_query_rejected(self):
        h = Hyperparams(sigma_f=1.0, length_scale=0.8, sigma_n=0.1)
        model = fitted_model(np.array([[0.0, 0.0], [0.5, -0.5]]), np.array([1.0, -1.0]), h)
        with pytest.raises(NonFiniteValueError):
            model.predict(np.array([np.nan, 0.0]))

    def test_variance_nonnegative_and_zero_at_training_points(self):
        rng = np.random.default_rng(13)
        h = Hyperparams(sigma_f=1.0, length_scale=0.7, sigma_n=0.0)
        x = rng.uniform(-1, 1, size=(12, 2))
        y = rng.standard_normal(12)
        model = fitted_model(x, y, h)
        for xi in x:
            _, var = model.predict(xi)
            assert 0.0 <= var <= 1e-6
        for _ in range(50):
            _, var = model.predict(rng.uniform(-3, 3, size=2))
            assert var >= 0.0

    def test_adding_data_never_raises_variance(self):
        rng = np.random.default_rng(14)
        h = Hyperparams(sigma_f=1.0, length_scale=0.8, sigma_n=0.2)
        x = rng.uniform(-2, 2, size=(15, 2))
        y = rng.standard_normal(15)
        queries = rng.uniform(-2.5, 2.5, size=(20, 2))
        small = fitted_model(x[:10], y[:10], h)
        grown = fitted_model(x, y, h)
        for q in queries:
            assert grown.predict(q)[1] <= small.predict(q)[1] + 1e-10


class TestLogMarginalLikelihood:
    def test_scalar_zero_target(self):
        for h in (Hyperparams(1.0, 1.0, 0.5), Hyperparams(2.0, 0.3, 0.0)):
            value, _ = log_marginal_likelihood(np.zeros((1, 1)), np.zeros(1), h)
            expected = -0.5 * math.log(h.sigma_f**2 + h.sigma_n**2) - 0.5 * math.log(2 * math.pi)
            assert abs(value - expected) <= 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        eps = 1e-5
        for trial in range(20):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(5, 15))
            x = rng.uniform(-2, 2, size=(n, dim))
            y = rng.standard_normal(n)
            hyper = Hyperparams(
                sigma_f=float(rng.uniform(0.5, 2.0)),
                length_scale=float(rng.uniform(0.4, 1.5)),
                sigma_n=float(rng.uniform(0.1, 0.6)),
            )
            _, grad = log_marginal_likelihood(x, y, hyper)
            theta = hyper.log_vector()
            fd = np.zeros_like(theta)
            for j in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[j] += eps
                down[j] -= eps
                v_up, _ = log_marginal_likelihood(x, y, Hyperparams.from_log_vector(up))
                v_dn, _ = log_marginal_likelihood(x, y, Hyperparams.from_log_vector(down))
                fd[j] = (v_up - v_dn) / (2 * eps)
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-5

    def test_gradient_per_dimension_lengthscales(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-2, 2, size=(10, 2))
        y = rng.standard_normal(10)
        hyper = Hyperparams(1.0, np.array([0.5, 1.3]), 0.3)
        _, grad = log_marginal_likelihood(x, y, hyper)
        theta = hyper.log_vector()
        eps = 1e-5
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += eps
            down[j] -= eps
            v_up, _ = log_marginal_likelihood(x, y, Hyperparams.from_log_vector(up))
            v_dn, _ = log_marginal_likelihood(x, y, Hyperparams.from_log_vector(down))
            assert abs(grad[j] - (v_up - v_dn) / (2 * eps)) <= 1e-5 * max(abs(grad[j]), 1.0)

    @pytest.mark.parametrize("n", [2, 50, 200])
    @pytest.mark.parametrize("length_scale", [0.7, (0.5, 1.3)])
    @pytest.mark.parametrize("sigma_n", [0.1, 1e-4])
    def test_matches_direct_inversion_reference(self, n, length_scale, sigma_n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, size=(n, 2))
        # smooth noise-free targets, on which a fit puts sigma_n at its floor
        y = np.sin(2 * x[:, 0]) * np.cos(x[:, 1])
        hyper = Hyperparams(1.2, np.array(length_scale), sigma_n)
        value, grad = log_marginal_likelihood(x, y, hyper)
        ref_value, ref_grad = reference_lml(x, y, hyper)
        assert grad.shape == ref_grad.shape
        assert abs(value - ref_value) <= 1e-9 * abs(ref_value)
        assert np.linalg.norm(grad - ref_grad) <= 1e-6 * np.linalg.norm(ref_grad)

    @pytest.mark.parametrize("length_scale", [0.7, (0.5, 1.3)])
    def test_gradient_at_noise_floor_holds_jitter_constant(self, length_scale):
        """At sigma_n = 1e-4 the jitter JITTER_REL (sigma_f^2 + sigma_n^2) is
        as large as sigma_n^2. The gradient is that of the likelihood with
        the jitter frozen at the evaluation point, not of the likelihood
        itself, whose sigma_f component differs here by 10-14% (see the
        FOUND line on the gradient's jitter convention in CHANGES.md)."""
        rng = np.random.default_rng(60)
        x = rng.uniform(-1, 1, size=(60, 2))
        y = np.sin(2 * x[:, 0]) * np.cos(x[:, 1])
        hyper = Hyperparams(1.2, np.array(length_scale), 1e-4)
        _, grad = log_marginal_likelihood(x, y, hyper)
        jitter = JITTER_REL * (hyper.sigma_f**2 + hyper.sigma_n**2)
        theta = hyper.log_vector()
        # cond(Ky) is about 1.5e9: a shorter step cuts truncation error but
        # lets rounding in the value grow more
        eps = 1e-3
        fd = np.zeros_like(theta)
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += eps
            down[j] -= eps
            v_up = frozen_jitter_value(x, y, Hyperparams.from_log_vector(up), jitter)
            v_dn = frozen_jitter_value(x, y, Hyperparams.from_log_vector(down), jitter)
            fd[j] = (v_up - v_dn) / (2 * eps)
        assert np.all(np.abs(grad - fd) <= 1e-5 * np.linalg.norm(fd))

    @settings(max_examples=100)
    @given(
        n=st.integers(2, 60),
        dim=st.integers(1, 3),
        per_dim=st.booleans(),
        log_sigma_n=st.floats(math.log(1e-4), 0.0),
        noisy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_on_random_windows(self, n, dim, per_dim, log_sigma_n, noisy, seed):
        """Value and gradient against the direct-inversion reference, with
        the tolerances of test_matches_direct_inversion_reference. Where
        2 cond(Ky) eps exceeds 1e-9, the value may differ by that much:
        each side solves with Ky and may lose cond(Ky) eps, and at the
        noise floor a noisy target makes y^T Ky^-1 y, which dominates the
        value, as ill-conditioned as Ky."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(n, dim))
        y = np.sin(2 * x[:, 0]) * np.cos(x[:, -1])
        if noisy:
            y += 0.1 * rng.standard_normal(n)
        hyper = Hyperparams(
            sigma_f=math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
            length_scale=np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=dim if per_dim else 1)),
            sigma_n=math.exp(log_sigma_n),
        )
        value, grad = log_marginal_likelihood(x, y, hyper)
        ref_value, ref_grad = reference_lml(x, y, hyper)
        value_tol = max(1e-9, 2 * np.linalg.cond(noisy_gram(x, hyper)) * np.finfo(float).eps)
        assert grad.shape == ref_grad.shape
        assert abs(value - ref_value) <= value_tol * abs(ref_value)
        assert np.linalg.norm(grad - ref_grad) <= 1e-6 * np.linalg.norm(ref_grad)

    def test_duplicated_point_changes_value(self):
        h = Hyperparams(1.0, 1.0, 0.3)
        x = np.array([[0.0], [1.0]])
        y = np.array([0.5, -0.2])
        v1, _ = log_marginal_likelihood(x, y, h)
        x2 = np.vstack([x, x[:1]])
        y2 = np.append(y, y[0])
        v2, _ = log_marginal_likelihood(x2, y2, h)
        assert np.isfinite(v2) and v2 != v1


class TestFit:
    def test_recovers_known_hyperparameters(self):
        rng = np.random.default_rng(17)
        truth = Hyperparams(sigma_f=1.0, length_scale=0.7, sigma_n=0.1)
        x, y = sample_gp_data(rng, truth, n=80)
        model = GpModel(window=80, starts=5, seed=3)
        for xi, yi in zip(x, y):
            model.observe(xi, yi)
        model.fit()
        recovered = model.hyper.log_vector()
        np.testing.assert_allclose(recovered, truth.log_vector(), atol=0.5)

    def test_refit_is_idempotent(self):
        rng = np.random.default_rng(18)
        truth = Hyperparams(1.0, 0.7, 0.1)
        x, y = sample_gp_data(rng, truth, n=30)
        model = GpModel(window=30, starts=3, seed=1)
        for xi, yi in zip(x, y):
            model.observe(xi, yi)
        model.fit()
        v1, _ = log_marginal_likelihood(x, y, model.hyper)
        model.fit()
        v2, _ = log_marginal_likelihood(x, y, model.hyper)
        assert abs(v2 - v1) <= 1e-9

    def test_step_tolerance_saves_evaluations_not_likelihood(self, monkeypatch):
        """On a smooth noise-free window, the kind the plant's disturbance
        gives, stopping at STEP_TOL makes at most half the likelihood
        evaluations of halving to 1e-10 and ends at the same optimum."""
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.6, 0.6, size=(100, 2))
        y = np.cos(x[:, 0]) + x[:, 1]

        def fit_counting():
            count = 0
            evaluate = gp._Likelihood.evaluate

            def counted(self, hyper):
                nonlocal count
                count += 1
                return evaluate(self, hyper)

            with monkeypatch.context() as patch:
                patch.setattr(gp._Likelihood, "evaluate", counted)
                model = GpModel(window=100, starts=3, seed=0, sigma_n_floor=1e-4)
                for xi, yi in zip(x, y):
                    model.observe(xi, yi)
                model.fit()
            return count, log_marginal_likelihood(x, y, model.hyper)[0]

        count, value = fit_counting()
        monkeypatch.setattr(gp, "STEP_TOL", 1e-10)
        count_ref, value_ref = fit_counting()
        assert 2 * count <= count_ref
        assert abs(value - value_ref) <= 1e-8 * abs(value_ref)

    def test_never_below_incumbent(self):
        rng = np.random.default_rng(19)
        truth = Hyperparams(1.0, 0.7, 0.1)
        x, y = sample_gp_data(rng, truth, n=40)
        incumbent = Hyperparams(0.5, 2.0, 0.3)
        v_inc, _ = log_marginal_likelihood(x, y, incumbent)
        model = GpModel(window=40, hyper=incumbent, starts=4, seed=2)
        for xi, yi in zip(x, y):
            model.observe(xi, yi)
        model.fit()
        v_fit, _ = log_marginal_likelihood(x, y, model.hyper)
        assert v_fit >= v_inc - 1e-12

    def test_sigma_n_floor_respected(self):
        rng = np.random.default_rng(20)
        # noise-free smooth data pushes sigma_n to the floor, not below
        x = np.linspace(-2, 2, 40)[:, None]
        y = np.sin(x[:, 0])
        model = GpModel(window=40, starts=3, seed=0, sigma_n_floor=1e-4)
        for xi, yi in zip(x, y):
            model.observe(xi, yi)
        model.fit()
        assert model.hyper.sigma_n >= 1e-4 * (1 - 1e-12)

    def test_per_dimension_lengthscales(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-1, 1, size=(40, 2))
        y = np.sin(3 * x[:, 0]) + 0.1 * x[:, 1]  # fast along x0, slow along x1
        incumbent = Hyperparams(0.5, np.array([2.0, 2.0]), 0.3)
        v_inc, _ = log_marginal_likelihood(x, y, incumbent)
        model = GpModel(
            window=40, hyper=incumbent, starts=3, seed=0, sigma_n_floor=1e-4, per_dim_lengthscale=True
        )
        for xi, yi in zip(x, y):
            model.observe(xi, yi)
        model.fit()
        v_fit, _ = log_marginal_likelihood(x, y, model.hyper)
        assert model.hyper.length_scale.shape == (2,)
        assert v_fit >= v_inc - 1e-12
        assert model.hyper.sigma_n >= 1e-4 * (1 - 1e-12)
        assert model.hyper.length_scale[0] < model.hyper.length_scale[1]

    def test_failed_refit_keeps_snapshot(self):
        rng = np.random.default_rng(23)
        x, y = sample_gp_data(rng, Hyperparams(1.0, 0.7, 0.1), n=20)
        model = GpModel(window=40, starts=2, seed=0)
        for xi, yi in zip(x, y):
            model.observe(xi, yi)
        model.fit()
        hyper, q = model.hyper, np.array([0.3])
        before = model.predict(q)
        model.observe(np.array([np.nan]), 0.5)
        with pytest.raises(NotPositiveDefiniteError):
            model.refresh()
        with pytest.raises(AllStartsFailedError):
            model.fit()
        assert model.hyper is hyper
        assert model.predict(q) == before

    def test_non_finite_target_rejected(self):
        model = GpModel(window=10)
        model.observe(np.zeros(2), 1.0)
        model.observe(np.ones(2), np.inf)
        with pytest.raises(NonFiniteValueError):
            model.refresh()
        with pytest.raises(NonFiniteValueError):
            model.fit()
        assert not model.fitted

    def test_requires_two_points(self):
        model = GpModel()
        model.observe(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            model.fit()


class TestObserve:
    def test_window_eviction(self):
        model = GpModel(window=100)
        for i in range(101):
            model.observe(np.array([float(i), 0.0]), float(i))
        assert len(model) == 100
        assert model.inputs[0, 0] == 1.0  # the oldest point was evicted

    def test_duplicate_points_both_stored(self):
        model = GpModel(window=10)
        model.observe(np.zeros(2), 1.0)
        model.observe(np.zeros(2), 1.0)
        assert len(model) == 2

    def test_observation_marks_refit_needed_but_keeps_snapshot(self):
        h = Hyperparams(1.0, 1.0, 0.1)
        model = GpModel(window=10, hyper=h)
        model.observe(np.array([0.0, 0.0]), 1.0)
        model.observe(np.array([1.0, 0.0]), -1.0)
        model.refresh()
        q = np.array([0.4, 0.1])
        before = model.predict(q)
        model.observe(np.array([0.5, 0.0]), 0.3)
        assert model.predict(q) == before  # stale-but-consistent snapshot
        model.refresh()
        assert model.predict(q) != before


class TestTrainingTarget:
    def test_perfect_model_no_disturbance(self):
        phi = np.array([0.2, -0.1, 1.0])
        u = 0.8
        xdot = float(W_STAR @ phi) + u
        assert abs(training_target(xdot, W_STAR, phi, u)) <= 1e-15

    def test_pure_disturbance_at_origin(self):
        # disturbance cos(0) + 0 = 1 shows up unchanged for the ideal weights
        phi = np.array([0.0, 0.0, 1.0])
        u = -3.2
        xdot = float(W_STAR @ phi) + u + 1.0
        assert abs(training_target(xdot, W_STAR, phi, u) - 1.0) <= 1e-15

    def test_weight_error_identity(self):
        w = W_STAR + np.array([0.1, 0.0, 0.0])
        phi = np.array([1.0, 0.0, 1.0])
        u = 0.4
        xdot = float(W_STAR @ phi) + u
        assert abs(training_target(xdot, w, phi, u) - (-0.1)) <= 1e-15

    def test_cancellation_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            w_star = rng.standard_normal(3)
            w = w_star + rng.standard_normal(3) * 0.3
            phi = rng.standard_normal(3)
            u = rng.standard_normal()
            d = rng.standard_normal()
            xdot = float(w_star @ phi) + u + d
            mu = training_target(xdot, w, phi, u)
            bracket = float((w - w_star) @ phi) - d + mu
            assert abs(bracket) <= 1e-12


class TestGpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GpConfig(window=0)
        with pytest.raises(ValueError):
            GpConfig(sample_period=0.0)
        with pytest.raises(ValueError):
            GpConfig(lengthscale_mode="diagonal")
        with pytest.raises(ValueError):
            GpConfig(sigma_n_floor=0.0)
