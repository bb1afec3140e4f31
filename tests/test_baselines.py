import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrs

from pukf import (
    AnalyticMeasurementModel,
    GaussianState,
    LinearStateModel,
    MeasurementModel,
    ParticleCloud,
    bootstrap_pf_step,
    ekf2_update_analytic,
    ekf2_update_numerical,
    ekf_update,
    iekf_update,
    log_likelihood,
    propagate_particles,
    resample,
    ruf_update,
    sample_gaussian,
    systematic_resample,
    ukf_update,
    unscented_transform,
    weight_particles,
)

from helpers import kalman_update, pointwise, random_quadratic, random_spd, same_bits


def linear_model(h_mat, noise, value):
    return AnalyticMeasurementModel(
        func=lambda x: x @ h_mat.T,
        value=value,
        noise_cov=noise,
        jacobian=lambda x: h_mat,
        hessians=lambda x: np.zeros((h_mat.shape[0],) + (h_mat.shape[1],) * 2),
    )


def example_analytic_model(value=(1.0, -1.0)):
    # h(x) = (x^2 - 2x - 4, -x^2 + 3/2) with unit noise
    return AnalyticMeasurementModel(
        func=lambda xs: np.hstack([xs**2 - 2 * xs - 4, -(xs**2) + 1.5]),
        value=value,
        noise_cov=np.eye(2),
        jacobian=lambda x: np.array([[2 * x[0] - 2], [-2 * x[0]]]),
        hessians=lambda x: np.array([[[2.0]], [[-2.0]]]),
    )


class TestEkfUpdate:
    def test_hand_worked_example(self):
        # linearized at mu=1 the first row has zero slope, so only the
        # second element moves the state: K = (0, -0.4), S = diag(1, 5)
        prior = GaussianState([1.0], [[1.0]])
        post = ekf_update(prior, example_analytic_model(value=(-4.0, 0.0)))
        np.testing.assert_allclose(post.mean, [1.2], atol=1e-12)
        np.testing.assert_allclose(post.cov, [[0.2]], atol=1e-12)

    def test_linear_matches_kalman(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, d = 3, 2
            h_mat = rng.normal(size=(d, n))
            noise = random_spd(rng, d)
            value = rng.normal(size=d)
            prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
            post = ekf_update(prior, linear_model(h_mat, noise, value))
            want_mean, want_cov = kalman_update(
                prior.mean, prior.cov, h_mat, noise, value
            )
            np.testing.assert_allclose(post.mean, want_mean, atol=1e-10)
            np.testing.assert_allclose(post.cov, want_cov, atol=1e-10)


class TestEkf2Analytic:
    def test_matches_numerical_on_quadratics(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            func, jac, hes = random_quadratic(rng, n, d)
            prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
            model = AnalyticMeasurementModel(
                func=pointwise(func),
                value=rng.normal(size=d),
                noise_cov=random_spd(rng, d),
                jacobian=jac,
                hessians=hes,
            )
            analytic = ekf2_update_analytic(prior, model)
            numerical = ekf2_update_numerical(prior, model)
            np.testing.assert_allclose(analytic.mean, numerical.mean, atol=1e-8)
            np.testing.assert_allclose(analytic.cov, numerical.cov, atol=1e-8)

    def test_zero_hessian_reduces_to_ekf(self):
        rng = np.random.default_rng(2)
        h_mat = rng.normal(size=(2, 3))
        model = linear_model(h_mat, random_spd(rng, 2), rng.normal(size=2))
        prior = GaussianState(rng.normal(size=3), random_spd(rng, 3))
        second = ekf2_update_analytic(prior, model)
        first = ekf_update(prior, model)
        np.testing.assert_allclose(second.mean, first.mean, atol=1e-12)
        np.testing.assert_allclose(second.cov, first.cov, atol=1e-12)

    def test_requires_hessians(self):
        model = AnalyticMeasurementModel(
            func=lambda x: x,
            value=[0.0],
            noise_cov=np.eye(1),
            jacobian=lambda x: np.eye(1),
        )
        with pytest.raises(ValueError):
            ekf2_update_analytic(GaussianState([0.0], [[1.0]]), model)


class TestUnscentedTransform:
    def test_linear_is_exact(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3))
        mean = rng.normal(size=3)
        cov = random_spd(rng, 3)
        y_mean, y_cov, xy_cov = unscented_transform(lambda xs: xs @ a.T, mean, cov)
        np.testing.assert_allclose(y_mean, a @ mean, atol=1e-9)
        np.testing.assert_allclose(y_cov, a @ cov @ a.T, atol=1e-6)
        np.testing.assert_allclose(xy_cov, cov @ a.T, atol=1e-6)

    def test_quadratic_mean_is_exact(self):
        # E[x^2] = mu^2 + P; sigma points capture this for any spread
        y_mean, _, _ = unscented_transform(lambda xs: xs**2, np.array([0.0]), np.eye(1))
        np.testing.assert_allclose(y_mean, [1.0], atol=1e-6)
        y_mean, _, _ = unscented_transform(
            lambda xs: xs**2, np.array([2.0]), np.array([[3.0]])
        )
        np.testing.assert_allclose(y_mean, [7.0], atol=1e-5)


class TestUkfUpdate:
    def test_linear_matches_kalman(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, d = 3, 2
            h_mat = rng.normal(size=(d, n))
            noise = random_spd(rng, d)
            value = rng.normal(size=d)
            prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
            post = ukf_update(
                prior,
                MeasurementModel(
                    func=lambda x, h=h_mat: x @ h.T, value=value, noise_cov=noise
                ),
            )
            want_mean, want_cov = kalman_update(
                prior.mean, prior.cov, h_mat, noise, value
            )
            np.testing.assert_allclose(post.mean, want_mean, atol=1e-6)
            np.testing.assert_allclose(post.cov, want_cov, atol=1e-6)

    def test_loop_path_calls_func_once_per_sigma_point(self):
        calls = []

        def func(x):
            calls.append(1)
            return np.array([x[0] ** 2 + x[1], np.sin(x[1])])

        fields = dict(value=[0.5, 0.1], noise_cov=np.eye(2))
        vectorized = MeasurementModel(
            func=lambda xs: np.stack([xs[:, 0] ** 2 + xs[:, 1], np.sin(xs[:, 1])], 1),
            **fields,
        )
        prior = GaussianState([0.3, -0.2], [[1.0, 0.2], [0.2, 0.5]])
        looped = ukf_update(prior, MeasurementModel(func=pointwise(func), **fields))
        assert len(calls) == 2 * 2 + 1
        want = ukf_update(prior, vectorized)
        np.testing.assert_allclose(looped.mean, want.mean, atol=1e-12)
        np.testing.assert_allclose(looped.cov, want.cov, atol=1e-12)


class TestIekfUpdate:
    def test_single_iteration_is_ekf(self):
        prior = GaussianState([1.0], [[1.0]])
        model = example_analytic_model(value=(-4.0, 0.0))
        once = iekf_update(prior, model, iterations=1)
        ekf = ekf_update(prior, model)
        np.testing.assert_allclose(once.mean, ekf.mean, atol=1e-12)
        np.testing.assert_allclose(once.cov, ekf.cov, atol=1e-12)

    def test_linear_matches_kalman_any_iterations(self):
        rng = np.random.default_rng(5)
        h_mat = rng.normal(size=(2, 3))
        noise = random_spd(rng, 2)
        value = rng.normal(size=2)
        prior = GaussianState(rng.normal(size=3), random_spd(rng, 3))
        model = linear_model(h_mat, noise, value)
        want_mean, want_cov = kalman_update(prior.mean, prior.cov, h_mat, noise, value)
        for iterations in (1, 3, 10):
            post = iekf_update(prior, model, iterations=iterations)
            np.testing.assert_allclose(post.mean, want_mean, atol=1e-10)
            np.testing.assert_allclose(post.cov, want_cov, atol=1e-10)

    def test_converges_to_map_estimate(self):
        # strong scalar measurement y = x^2 with prior N(1, 1):
        # the iterated mean should land on the posterior mode
        prior = GaussianState([1.0], [[1.0]])
        noise = 0.01
        model = AnalyticMeasurementModel(
            func=lambda xs: xs**2,
            value=[4.0],
            noise_cov=[[noise]],
            jacobian=lambda x: np.array([[2 * x[0]]]),
        )

        def neg_log_posterior(x):
            return 0.5 * (x - 1.0) ** 2 + 0.5 * (4.0 - x * x) ** 2 / noise

        bracket = scipy.optimize.minimize_scalar(
            neg_log_posterior, bounds=(1.5, 2.5), method="bounded",
            options={"xatol": 1e-12},
        )
        post = iekf_update(prior, model, iterations=50)
        assert post.mean[0] == pytest.approx(bracket.x, abs=1e-6)
        assert post.mean[0] == pytest.approx(1.99937, abs=1e-4)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            iekf_update(GaussianState([0.0], [[1.0]]), example_analytic_model(), 0)


class TestRufUpdate:
    def test_linear_matches_kalman_any_steps(self):
        rng = np.random.default_rng(6)
        h_mat = rng.normal(size=(2, 3))
        noise = random_spd(rng, 2)
        value = rng.normal(size=2)
        prior = GaussianState(rng.normal(size=3), random_spd(rng, 3))
        model = linear_model(h_mat, noise, value)
        want_mean, want_cov = kalman_update(prior.mean, prior.cov, h_mat, noise, value)
        for steps in (1, 2, 3, 10, 25):
            post = ruf_update(prior, model, steps=steps)
            np.testing.assert_allclose(post.mean, want_mean, atol=1e-9)
            np.testing.assert_allclose(post.cov, want_cov, atol=1e-9)

    def test_single_step_is_ekf(self):
        prior = GaussianState([1.0], [[1.0]])
        model = example_analytic_model(value=(-4.0, 0.0))
        once = ruf_update(prior, model, steps=1)
        ekf = ekf_update(prior, model)
        np.testing.assert_allclose(once.mean, ekf.mean, atol=1e-12)
        np.testing.assert_allclose(once.cov, ekf.cov, atol=1e-12)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            ruf_update(GaussianState([0.0], [[1.0]]), example_analytic_model(), 0)


class TestParticleCloud:
    def test_uniform_constructor(self):
        cloud = ParticleCloud.uniform(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(cloud.weights, 1.0 / 3.0)
        assert not cloud.degenerate

    def test_weighted_moments(self):
        particles = np.array([[0.0, 0.0], [2.0, 0.0]])
        cloud = ParticleCloud(particles, [0.25, 0.75])
        np.testing.assert_allclose(cloud.mean(), [1.5, 0.0])
        np.testing.assert_allclose(cloud.cov(), [[0.75, 0.0], [0.0, 0.0]])

    def test_rejects_bad_weights(self):
        particles = np.zeros((2, 1))
        with pytest.raises(ValueError):
            ParticleCloud(particles, [-0.5, 1.5])
        with pytest.raises(ValueError):
            ParticleCloud(particles, [0.3, 0.3])
        with pytest.raises(ValueError):
            ParticleCloud(particles, [1.0])
        for bad in (np.nan, np.inf, -np.inf):  # a NaN total compares False
            with pytest.raises(ValueError):
                ParticleCloud(particles, [bad, 0.5])
            with pytest.raises(ValueError):
                ParticleCloud(particles, [bad, bad])


class TestSampleGaussian:
    def test_moments(self):
        rng = np.random.default_rng(7)
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        draws = sample_gaussian(rng, cov, 200_000)
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)

    def test_zero_covariance(self):
        draws = sample_gaussian(np.random.default_rng(8), np.zeros((2, 2)), 10)
        np.testing.assert_allclose(draws, 0.0, atol=1e-12)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 5),
        kind=st.sampled_from(["zero", "singular", "diagonal", "random"]),
        size=st.sampled_from([1, 2, 7, 30_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_draws_as_numpy_eigh(self, n, kind, size, seed):
        rng = np.random.default_rng(seed)
        if kind == "zero":
            cov = np.zeros((n, n))
        elif kind == "diagonal":
            cov = np.diag(rng.uniform(0.0, 10.0, size=n))
        else:
            rank = n if kind == "random" else n - 1
            factor = rng.normal(size=(n, rank))
            cov = factor @ factor.T
        got_rng, want_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        got = sample_gaussian(got_rng, cov, size)
        want = want_rng.multivariate_normal(
            np.zeros(n), cov, size=size, method="eigh", check_valid="ignore"
        )
        assert got.shape == (size, n)
        assert np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()  # the same draws consumed


def searchsorted_resample(weights, rng):
    """The O(N log N) systematic resampler that systematic_resample replaced."""
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


class FixedUniform:
    """A generator stand-in whose one uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSystematicResample:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 50), st.sampled_from([1000, 4096, 100_000])),
        kind=st.sampled_from(["uniform", "spiky", "zeros", "point"]),
        power=st.integers(1, 80),
        u=st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from([0.0, 0.5, float(np.nextafter(1.0, 0.0))]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_indices_as_searchsorted(self, n, kind, power, u, seed):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            weights = np.full(n, 1.0 / n)
        elif kind == "spiky":
            weights = rng.random(n) ** power
        elif kind == "zeros":
            weights = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
            weights[rng.integers(n)] = 1.0
        else:
            weights = np.zeros(n)
            weights[rng.integers(n)] = 1.0
        weights = weights / weights.sum()
        got = systematic_resample(weights, FixedUniform(u))
        assert np.array_equal(got, searchsorted_resample(weights, FixedUniform(u)))
        assert got.dtype == np.intp

    def test_equal_weights_keep_every_particle(self):
        for seed in range(5):
            idx = systematic_resample(np.full(7, 1.0 / 7.0), np.random.default_rng(seed))
            np.testing.assert_array_equal(np.sort(idx), np.arange(7))

    def test_two_equal_weights(self):
        idx = systematic_resample([0.5, 0.5], np.random.default_rng(9))
        np.testing.assert_array_equal(idx, [0, 1])

    def test_point_mass(self):
        idx = systematic_resample([0.0, 1.0, 0.0], np.random.default_rng(10))
        np.testing.assert_array_equal(idx, [1, 1, 1])

    def test_counts_within_one_of_expected(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 64
            weights = rng.dirichlet(np.ones(n))
            idx = systematic_resample(weights, rng)
            counts = np.bincount(idx, minlength=n)
            assert np.all(np.abs(counts - n * weights) <= 1.0)

    def test_mean_preserved_statistically(self):
        rng = np.random.default_rng(12)
        n = 50_000
        particles = rng.normal(size=(n, 1))
        weights = rng.dirichlet(np.ones(n))
        idx = systematic_resample(weights, rng)
        before = weights @ particles
        after = particles[idx].mean(axis=0)
        np.testing.assert_allclose(after, before, atol=0.02)

    def test_resample_cloud(self):
        cloud = ParticleCloud([[0.0], [1.0], [2.0]], [0.0, 1.0, 0.0], degenerate=True)
        out = resample(cloud, np.random.default_rng(13))
        np.testing.assert_array_equal(out.particles, [[1.0], [1.0], [1.0]])
        np.testing.assert_allclose(out.weights, 1.0 / 3.0)
        assert not out.degenerate


def cho_log_likelihood(model, particles):
    """The cho_factor/cho_solve log-likelihood that log_likelihood replaced."""
    with np.errstate(invalid="ignore"):
        residual = model.value - model.evaluate(particles)
    out = np.full(particles.shape[0], -np.inf)
    finite = np.isfinite(residual).all(axis=1)
    if np.any(finite):
        c, low = scipy.linalg.cho_factor(model.noise_cov, lower=True)
        solved = scipy.linalg.cho_solve((c, low), residual[finite].T)
        out[finite] = -0.5 * np.einsum("dn,dn->n", residual[finite].T, solved)
    return out


class TestLogLikelihood:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 4),
        count=st.sampled_from([1, 2, 17, 5000]),
        bad=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_cho_solve(self, n, d, count, bad, seed):
        rng = np.random.default_rng(seed)
        h_mat = rng.normal(size=(d, n))
        model = MeasurementModel(
            func=lambda x: x @ h_mat.T,
            value=rng.normal(size=d),
            noise_cov=random_spd(rng, d),
        )
        particles = rng.normal(size=(count, n))
        rows = rng.random(count) < bad
        particles[rows, rng.integers(n)] = rng.choice(
            [np.nan, np.inf, -np.inf], size=rows.sum()
        )
        got = log_likelihood(model, particles)
        assert np.array_equal(got, cho_log_likelihood(model, particles))
        assert np.all(got[rows] == -np.inf)

    def test_an_overflowing_dense_form_is_minus_inf(self):
        # dpotrs computes inf - inf for this finite residual, which would be NaN
        noise = [[1e-300, 5e-301], [5e-301, 1e-300]]
        model = MeasurementModel(func=lambda x: x, value=np.zeros(2), noise_cov=noise)
        assert np.tril(model.sqrt_noise, -1).any()
        got = log_likelihood(model, np.array([[1e10, 1e10], [0.0, 0.0]]))
        assert got.tolist() == [-np.inf, 0.0]

    def test_matches_scipy_up_to_constant(self):
        rng = np.random.default_rng(13)
        h_mat = rng.normal(size=(2, 3))
        noise = random_spd(rng, 2)
        value = rng.normal(size=2)
        model = MeasurementModel(
            func=lambda x: x @ h_mat.T, value=value, noise_cov=noise
        )
        particles = rng.normal(size=(40, 3))
        got = log_likelihood(model, particles)
        want = scipy.stats.multivariate_normal(value, noise).logpdf(
            particles @ h_mat.T
        )
        np.testing.assert_allclose(got - got[0], want - want[0], atol=1e-10)

    def test_batch_path_matches_loop_path(self):
        rng = np.random.default_rng(14)
        func = lambda x: np.array([x[0] ** 2 + x[1], x[1] ** 3])
        fields = dict(value=[1.0, 2.0], noise_cov=np.eye(2))
        looped = MeasurementModel(func=pointwise(func), **fields)
        batched = MeasurementModel(
            func=lambda xs: np.stack([xs[:, 0] ** 2 + xs[:, 1], xs[:, 1] ** 3], axis=1),
            **fields,
        )
        particles = rng.normal(size=(25, 2))
        np.testing.assert_allclose(
            log_likelihood(batched, particles),
            log_likelihood(looped, particles),
            atol=1e-12,
        )

    def test_loop_path_calls_func_once_per_particle(self):
        calls = []

        def func(x):
            calls.append(1)
            return np.array([x[0] - x[1]])

        model = MeasurementModel(func=pointwise(func), value=[0.2], noise_cov=[[0.5]])
        particles = np.random.default_rng(16).normal(size=(30, 2))
        got = log_likelihood(model, particles)
        assert len(calls) == 30
        residual = 0.2 - (particles[:, 0] - particles[:, 1])
        np.testing.assert_allclose(got, -residual**2, atol=1e-12)


def dpotrs_log_likelihood(model, particles):
    """The log-likelihood before its diagonal case: every factor through dpotrs."""
    with np.errstate(invalid="ignore"):
        residual = model.value - model.evaluate(particles)
    out = np.full(particles.shape[0], -np.inf)
    finite = np.isfinite(residual).all(axis=1)
    if np.any(finite):
        solved = dpotrs(model.sqrt_noise, residual[finite].T, lower=1)[0]
        out[finite] = -0.5 * np.einsum("dn,dn->n", residual[finite].T, solved)
    return out


class TestDiagonalNoiseSolve:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 6),
        count=st.one_of(st.integers(1, 40), st.integers(1, 5000)),
        noise_exp=st.floats(-150.0, 150.0),
        spread=st.floats(0.0, 150.0),
        residual_exp=st.floats(-300.0, 300.0),
        bad=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_dpotrs(self, d, count, noise_exp, spread, residual_exp, bad, seed):
        # Factor entries over 1e+-150, residuals up to 1e+-300, so r / l^2
        # over- and underflows; NaN and +-inf rows.  Where an overflow makes
        # dpotrs compute 0 * inf, its NaN is the product's -inf.
        rng = np.random.default_rng(seed)
        factor = 10.0 ** np.clip(noise_exp + spread * rng.uniform(-1, 1, size=d), -150, 150)
        model = MeasurementModel(func=lambda x: x, value=np.zeros(d), noise_cov=np.diag(factor**2))
        assert not np.tril(model.sqrt_noise, -1).any()
        exps = np.clip(residual_exp + 2 * spread * rng.uniform(-1, 1, size=(count, d)), -300, 300)
        particles = rng.normal(size=(count, d)) * 10.0**exps
        rows = rng.random(count) < bad
        particles[rows, rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf], size=rows.sum())
        got = log_likelihood(model, particles)
        want = dpotrs_log_likelihood(model, particles)
        overflow = np.isnan(want)
        assert same_bits(got[~overflow], want[~overflow])
        assert np.all(got[overflow] == -np.inf)
        assert np.all(got[rows] == -np.inf)
        if d == 1:  # no 0 * inf in a 1 x 1 solve
            assert not overflow.any()


class TestBootstrapPfStep:
    def test_linear_gaussian_agrees_with_kalman(self):
        rng = np.random.default_rng(15)
        n_particles = 40_000
        f_mat = np.array([[1.0, 0.2], [0.0, 1.0]])
        w = 0.1 * np.eye(2)
        h_mat = np.array([[1.0, 0.0]])
        r = np.array([[0.5]])
        value = np.array([0.8])

        prior = GaussianState([0.0, 0.0], np.eye(2))
        state_model = LinearStateModel(transition=f_mat, noise_cov=w)
        model = MeasurementModel(func=lambda x: x @ h_mat.T, value=value, noise_cov=r)

        pred_mean = f_mat @ prior.mean
        pred_cov = f_mat @ prior.cov @ f_mat.T + w
        want_mean, want_cov = kalman_update(pred_mean, pred_cov, h_mat, r, value)

        particles = prior.mean + sample_gaussian(rng, prior.cov, n_particles)
        cloud = bootstrap_pf_step(
            ParticleCloud.uniform(particles), state_model, model, rng
        )
        assert not cloud.degenerate
        stderr = np.sqrt(np.diag(want_cov) / n_particles)
        assert np.all(np.abs(cloud.mean() - want_mean) < 3.0 * stderr)
        np.testing.assert_allclose(cloud.cov(), want_cov, atol=0.05)

    def test_underflow_flags_degenerate(self):
        rng = np.random.default_rng(16)
        cloud = ParticleCloud.uniform(rng.normal(size=(50, 1)))
        state_model = LinearStateModel(transition=np.eye(1), noise_cov=np.eye(1))
        broken = MeasurementModel(
            func=lambda xs: np.full((len(xs), 1), np.inf),
            value=[0.0],
            noise_cov=np.eye(1),
        )
        out = bootstrap_pf_step(cloud, state_model, broken, rng)
        assert out.degenerate
        np.testing.assert_allclose(out.weights, 1.0 / 50.0)

    def test_resampled_weights_are_uniform(self):
        rng = np.random.default_rng(17)
        cloud = ParticleCloud.uniform(rng.normal(size=(100, 1)))
        state_model = LinearStateModel(transition=np.eye(1), noise_cov=0.1 * np.eye(1))
        model = MeasurementModel(func=lambda x: x, value=[0.5], noise_cov=np.eye(1))
        out = bootstrap_pf_step(cloud, state_model, model, rng)
        np.testing.assert_allclose(out.weights, 0.01)


def masked_weight_particles(cloud, state_model, model, rng):
    """The weighting that weight_particles replaced: every step through the
    finiteness mask.  Returns (particles, weights), weights None if degenerate."""
    particles = cloud.particles @ state_model.transition.T + sample_gaussian(
        rng, state_model.noise_cov, cloud.particles.shape[0]
    )
    logw = cho_log_likelihood(model, particles)
    with np.errstate(divide="ignore"):
        logw = logw + np.log(cloud.weights)
    finite = np.isfinite(logw)
    if not np.any(finite):
        return particles, None
    shifted = logw - logw[finite].max()
    weights = np.where(finite, np.exp(shifted), 0.0)
    return particles, weights / weights.sum()


def random_dynamics(rng, n):
    return LinearStateModel(
        transition=np.eye(n) + 0.3 * rng.normal(size=(n, n)),
        noise_cov=random_spd(rng, n, scale=0.1),
    )


class TestPropagateParticles:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        count=st.sampled_from([1, 15, 30, 5000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_product_plus_noise(self, n, count, seed):
        rng = np.random.default_rng(seed)
        dynamics = random_dynamics(rng, n)
        particles = rng.normal(scale=3.0, size=(count, n))
        copy = particles.copy()
        got_rng, want_rng = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
        got = propagate_particles(particles, dynamics, got_rng)
        want = particles @ dynamics.transition.T + sample_gaussian(
            want_rng, dynamics.noise_cov, count
        )
        assert same_bits(got, want)
        assert same_bits(particles, copy)
        assert got_rng.random() == want_rng.random()


class TestWeightParticles:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        count=st.sampled_from([1, 15, 30, 5000]),
        weights_kind=st.sampled_from(["uniform", "random", "zeros"]),
        bad=st.sampled_from([0.0, 0.0, 0.05, 1.0]),
        scale=st.sampled_from([1.0, 1.0, 1e153]),  # 1e153: the log-weight sum overflows
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_the_masked_path(
        self, n, d, count, weights_kind, bad, scale, seed
    ):
        rng = np.random.default_rng(seed)
        h_mat = rng.normal(size=(d, n))
        model = MeasurementModel(
            func=lambda x: x @ h_mat.T,
            value=scale * rng.normal(size=d),
            noise_cov=random_spd(rng, d),
        )
        particles = rng.normal(size=(count, n))
        rows = rng.random(count) < bad
        particles[rows, rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf], size=rows.sum())
        weights = np.full(count, 1.0) if weights_kind == "uniform" else rng.random(count)
        if weights_kind == "zeros":
            weights[rng.random(count) < 0.3] = 0.0
            weights[rng.integers(count)] = 1.0
        cloud = ParticleCloud(particles, weights / weights.sum())
        dynamics = random_dynamics(rng, n)
        got_rng, want_rng = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
        got = weight_particles(cloud, dynamics, model, got_rng)
        want_particles, want_weights = masked_weight_particles(cloud, dynamics, model, want_rng)
        assert same_bits(got.particles, want_particles)
        assert got.degenerate == (want_weights is None)
        if want_weights is not None:
            assert same_bits(got.weights, want_weights)

    def test_identity_map_leaves_every_input_alone(self):
        # func returns its own input, so an in-place residual or weighting
        # would write into the particles the caller and the cloud hold.
        rng = np.random.default_rng(19)
        model = MeasurementModel(func=lambda x: x, value=[0.3, -0.2], noise_cov=np.eye(2))
        particles = rng.normal(size=(500, 2))
        weights = rng.random(500)
        cloud = ParticleCloud(particles, weights / weights.sum())
        kept = [a.copy() for a in (particles, cloud.weights, model.value)]

        log_likelihood(model, particles)
        dynamics = LinearStateModel(transition=np.eye(2), noise_cov=0.1 * np.eye(2))
        out = weight_particles(cloud, dynamics, model, np.random.default_rng(20))
        moved = propagate_particles(particles, dynamics, np.random.default_rng(20))

        for array, before in zip((particles, cloud.weights, model.value), kept):
            assert same_bits(array, before)
        assert same_bits(out.particles, moved)

    def test_zero_weight_particle_stays_at_zero_without_a_warning(self):
        rng = np.random.default_rng(18)
        cloud = ParticleCloud(rng.normal(size=(3, 1)), np.array([0.5, 0.5, 0.0]))
        state_model = LinearStateModel(transition=np.eye(1), noise_cov=0.1 * np.eye(1))
        model = MeasurementModel(func=lambda x: x, value=[0.2], noise_cov=np.eye(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = weight_particles(cloud, state_model, model, rng)
        assert not out.degenerate
        assert out.weights[2] == 0.0
        assert np.all(out.weights[:2] > 0.0)
        assert out.weights.sum() == pytest.approx(1.0)
