import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pukf import (
    GaussianState,
    MeasurementModel,
    NonFiniteEvaluation,
    ekf2_update_numerical,
    linearize,
    matrix_sqrt,
)
from pukf.core import AnalyticMeasurementModel
from pukf.linearization import GAMMA
from pukf.baselines import ekf_update
from pukf.scenarios import _bearings_model

from helpers import pointwise, random_quadratic, random_spd, same_bits

# The running worked example: two quadratic components of a scalar state.
# h1 = x^2 - 2x - 4 and h2 = -x^2 + 3/2, prior N(1, 1), unit noise.
# Analytic derivatives at the prior mean: J = (0, -2), Hessians (2, -2).
EXAMPLE_FUNC = lambda x: np.array([x[0] ** 2 - 2 * x[0] - 4, -x[0] ** 2 + 1.5])
EXAMPLE_PRIOR = GaussianState([1.0], [[1.0]])


class TestLinearize:
    def test_linear_map_has_no_second_order_terms(self):
        rng = np.random.default_rng(0)
        a_mat = rng.normal(size=(3, 2))
        sqrt_p = matrix_sqrt(random_spd(rng, 2))
        lin = linearize(lambda xs: xs @ a_mat.T, np.array([0.3, -0.7]), sqrt_p)
        np.testing.assert_allclose(lin.M, a_mat @ sqrt_p, atol=1e-12)
        np.testing.assert_allclose(lin.Q, 0.0, atol=1e-12)
        np.testing.assert_allclose(lin.xi, 0.0, atol=1e-12)
        np.testing.assert_allclose(lin.Xi, 0.0, atol=1e-12)

    def test_worked_example_statistics(self):
        sqrt_p = matrix_sqrt(EXAMPLE_PRIOR.cov)
        lin = linearize(pointwise(EXAMPLE_FUNC), EXAMPLE_PRIOR.mean, sqrt_p)
        np.testing.assert_allclose(lin.M, [[0.0], [-2.0]], atol=1e-12)
        np.testing.assert_allclose(lin.Q[:, 0, 0], [2.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(lin.xi, [2.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(lin.Xi, [[4.0, -4.0], [-4.0, 4.0]], atol=1e-12)
        np.testing.assert_allclose(lin.h_at_mean, [-5.0, 0.5])

    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            func, jacobian, hessians = random_quadratic(rng, n, d)
            mean = rng.normal(size=n)
            sqrt_p = matrix_sqrt(random_spd(rng, n))
            lin = linearize(pointwise(func), mean, sqrt_p)
            scale = 1.0 + np.abs(lin.M).max()
            np.testing.assert_allclose(
                lin.M, jacobian(mean) @ sqrt_p, atol=1e-8 * scale
            )
            expected_q = np.einsum("ia,kij,jb->kab", sqrt_p, hessians(mean), sqrt_p)
            np.testing.assert_allclose(
                lin.Q, expected_q, atol=1e-8 * (1.0 + np.abs(expected_q).max())
            )

    def test_trace_statistics_match_definition(self):
        rng = np.random.default_rng(23)
        func, _, _ = random_quadratic(rng, 3, 4)
        sqrt_p = matrix_sqrt(random_spd(rng, 3))
        lin = linearize(pointwise(func), rng.normal(size=3), sqrt_p)
        np.testing.assert_array_equal(
            lin.xi, np.trace(lin.Q, axis1=1, axis2=2)
        )
        for k in range(4):
            for l in range(4):
                np.testing.assert_allclose(
                    lin.Xi[k, l], np.trace(lin.Q[k] @ lin.Q[l]), rtol=1e-12
                )
        np.testing.assert_array_equal(lin.Xi, lin.Xi.T)

    def test_xi_matrix_is_psd(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            func, _, _ = random_quadratic(rng, 3, 5)
            sqrt_p = matrix_sqrt(random_spd(rng, 3))
            lin = linearize(pointwise(func), rng.normal(size=3), sqrt_p)
            w = np.linalg.eigvalsh(lin.Xi)
            assert w[0] >= -1e-9 * max(w[-1], 1.0)

    def test_probe_count(self):
        for n in (1, 2, 3, 5):
            calls = []

            def counted(xs):
                calls.append(np.array(xs))
                return np.stack([np.sum(xs**2, axis=1), np.sum(xs, axis=1)], axis=1)

            model = MeasurementModel(func=counted, value=[0, 0], noise_cov=np.eye(2))
            linearize(model.evaluate, np.zeros(n), np.eye(n))
            assert [c.shape for c in calls] == [(1 + 2 * n + n * (n - 1) // 2, n)]

    def test_nonfinite_batch_raises(self):
        model = MeasurementModel(
            func=lambda xs: np.where(xs[:, :1] > 0.5, np.nan, 1.0) * np.ones((1, 2)),
            value=[0.0, 0.0],
            noise_cov=np.eye(2),
        )
        with pytest.raises(NonFiniteEvaluation):
            linearize(model.evaluate, np.zeros(2), np.eye(2))

    def test_nonfinite_probe_raises(self):
        def bad(x):
            with np.errstate(invalid="ignore"):
                return np.array([np.sqrt(x[0])])  # NaN for negative probes

        with pytest.raises(NonFiniteEvaluation):
            linearize(pointwise(bad), np.array([0.1]), np.eye(1))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        d=st.integers(1, 6),
        log_scale=st.floats(-6.0, 6.0),
        bearings=st.booleans(),
    )
    def test_xi_is_exactly_symmetric(self, seed, n, d, log_scale, bearings):
        # The einsum forms Xi[k, l] and Xi[l, k] from the same products summed
        # in the same order, so Xi has the bits of its upper triangle mirrored
        # and linearize need not symmetrize it.
        rng = np.random.default_rng(seed)
        if bearings:
            n = max(n, 2)
            sensors = rng.normal(scale=5.0, size=(d, 2))
            evaluate = _bearings_model(sensors, np.eye(d), rng.uniform(-3, 3, d)).func
        else:
            b = rng.normal(size=(d, n))
            c = rng.normal(size=(d, n, n))
            c = c + c.transpose(0, 2, 1)
            c[rng.random(d) < 0.3] = 0.0  # exactly linear components
            evaluate = lambda xs: xs @ b.T + 0.5 * np.einsum("kij,ni,nj->nk", c, xs, xs)
        sqrt_p = matrix_sqrt(random_spd(rng, n, 10.0**log_scale))
        lin = linearize(evaluate, rng.normal(size=n), sqrt_p)
        assert same_bits(lin.Xi, np.triu(lin.Xi) + np.triu(lin.Xi, 1).T)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        d=st.integers(1, 6),
        log_scale=st.floats(-6.0, 6.0),
        bearings=st.booleans(),
    )
    def test_assembly_keeps_the_stacked_bits(self, seed, n, d, log_scale, bearings):
        # The stencil written in place and Q taken from the stacked second
        # differences give the bits of the vstack and fancy-assignment code;
        # n = 1 has no cross probes.  The maps work element by element: at
        # n = 2 the vstack laid the stencil out in Fortran order, so a map
        # that hands the rows to BLAS (xs @ B') may round differently there.
        rng = np.random.default_rng(seed)
        if bearings:
            n = max(n, 2)
            sensors = rng.normal(scale=5.0, size=(d, 2))
            func = _bearings_model(sensors, np.eye(d), rng.uniform(-3, 3, d)).func
        else:
            a, b = rng.normal(size=(2, n, d))
            mix = lambda xs, w: sum(xs[:, [c]] * w[c] for c in range(n))  # (N, d)
            func = lambda xs: np.sin(mix(xs, a)) * np.exp(0.1 * mix(xs, b)) + mix(xs, b) ** 2
        points = []
        evaluate = lambda xs: points.append(xs.copy()) or func(xs)
        mean = rng.normal(size=n)
        sqrt_p = matrix_sqrt(random_spd(rng, n, 10.0**log_scale))
        lin = linearize(evaluate, mean, sqrt_p)
        want = stacked_linearize(evaluate, mean, sqrt_p)
        assert same_bits(points[0], points[1])
        for name, value in zip(("M", "Q", "xi", "Xi", "h_at_mean"), want):
            assert same_bits(getattr(lin, name), value), name


def stacked_linearize(evaluate, mean, sqrt_cov):
    """``linearize``'s (M, Q, xi, Xi, h_at_mean) as it assembled them before:
    one vstack of four temporaries for the stencil and three fancy-index
    assignments for Q.  The bits its in-place assembly must keep."""
    n = mean.shape[0]
    delta = GAMMA * sqrt_cov.T
    diag, (i, j) = np.arange(n), np.triu_indices(n, 1)
    plus_points = mean + delta
    stencil = np.vstack([mean, plus_points, mean - delta, plus_points[i] + delta[j]])
    ys = evaluate(stencil)
    h0, plus, minus, cross = ys[0], ys[1 : n + 1], ys[n + 1 : 2 * n + 1], ys[2 * n + 1 :]
    M = (plus - minus).T / (2.0 * GAMMA)
    Q = np.empty((h0.shape[0], n, n))
    Q[:, diag, diag] = ((plus + minus - 2.0 * h0) / (GAMMA * GAMMA)).T
    Q[:, i, j] = Q[:, j, i] = ((cross - plus[i] - plus[j] + h0) / (GAMMA * GAMMA)).T
    return M, Q, Q.trace(axis1=1, axis2=2), np.einsum("kij,lij->kl", Q, Q), h0


class TestEkf2Update:
    def test_linear_scalar_posterior(self):
        # h(x) = x, prior N(0,1), R = 1, y = 0: posterior N(0, 1/2)
        prior = GaussianState([0.0], [[1.0]])
        model = MeasurementModel(func=lambda x: x, value=[0.0], noise_cov=[[1.0]])
        post = ekf2_update_numerical(prior, model)
        np.testing.assert_allclose(post.mean, [0.0], atol=1e-12)
        np.testing.assert_allclose(post.cov, [[0.5]], atol=1e-12)

    def test_transformed_first_element_of_example(self):
        # hhat(x) = sqrt2 (-x - 5/4), prior N(1,1), unit noise, value 0.
        # Hand Kalman algebra: S = 3, K = -sqrt2/3 -> posterior N(-1/2, 1/3).
        func = lambda xs: np.sqrt(2.0) * (-xs - 1.25)
        model = MeasurementModel(func=func, value=[0.0], noise_cov=[[1.0]])
        post = ekf2_update_numerical(EXAMPLE_PRIOR, model)
        np.testing.assert_allclose(post.mean, [-0.5], atol=1e-10)
        np.testing.assert_allclose(post.cov, [[1.0 / 3.0]], atol=1e-10)

    def test_pure_quadratic_is_stationary(self):
        # h(x) = x^2 at N(0,1): predicted measurement is E[x^2] = 1 and the
        # innovation variance is Var(x^2) + R = 2 + 1 = 3, but the gain is
        # zero because the map has no odd component, so the update is a no-op.
        prior = GaussianState([0.0], [[1.0]])
        func = lambda xs: xs**2
        lin = linearize(func, prior.mean, matrix_sqrt(prior.cov))
        yhat = lin.h_at_mean + 0.5 * lin.xi
        s = lin.M @ lin.M.T + 0.5 * lin.Xi + np.eye(1)
        np.testing.assert_allclose(yhat, [1.0], atol=1e-12)
        np.testing.assert_allclose(s, [[3.0]], atol=1e-12)
        model = MeasurementModel(func=func, value=[1.0], noise_cov=[[1.0]])
        post = ekf2_update_numerical(prior, model)
        np.testing.assert_allclose(post.mean, prior.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, prior.cov, atol=1e-12)

    def test_zeroed_corrections_reduce_to_ekf(self):
        # On affine maps the second-order corrections are zero, so the update
        # is the EKF's; M = J sqrtP on curved maps is test_exact_on_quadratics.
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, d = 3, 2
            func, jacobian, hessians = random_quadratic(rng, n, d, curvature=0.0)
            prior = GaussianState(rng.normal(size=n), random_spd(rng, n, 0.5))
            noise = random_spd(rng, d)
            value = rng.normal(size=d)
            model = AnalyticMeasurementModel(
                func=pointwise(func), value=value, noise_cov=noise,
                jacobian=jacobian, hessians=hessians,
            )
            first_order = ekf2_update_numerical(prior, model)
            reference = ekf_update(prior, model)
            np.testing.assert_allclose(first_order.mean, reference.mean, atol=1e-8)
            np.testing.assert_allclose(first_order.cov, reference.cov, atol=1e-8)

    def test_mixing_invariance_on_random_models(self):
        # Mixing the measurement by any invertible D must not change the
        # posterior (checked exhaustively in the acceptance suite; this is
        # the fast smoke version).
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            func, _, _ = random_quadratic(rng, n, d)
            prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
            noise = random_spd(rng, d)
            value = rng.normal(size=d)
            mix = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            base = MeasurementModel(func=pointwise(func), value=value, noise_cov=noise)
            mixed = MeasurementModel(
                func=pointwise(lambda x, f=func, m=mix: m @ f(x)),
                value=mix @ value,
                noise_cov=mix @ noise @ mix.T,
            )
            post_a = ekf2_update_numerical(prior, base)
            post_b = ekf2_update_numerical(prior, mixed)
            np.testing.assert_allclose(post_a.mean, post_b.mean, rtol=1e-7, atol=1e-9)
            np.testing.assert_allclose(post_a.cov, post_b.cov, rtol=1e-7, atol=1e-9)

