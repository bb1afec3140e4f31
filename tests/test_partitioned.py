import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pukf import (
    GaussianState,
    LinearStateModel,
    MeasurementModel,
    ekf2_update_numerical,
    linearize,
    matrix_sqrt,
    pukf_update,
    transform_model,
)

from helpers import kalman_update, pointwise, random_quadratic, random_spd


def example_model(value=(1.0, -1.0)):
    func = lambda x: np.array([x[0] ** 2 - 2 * x[0] - 4, -x[0] ** 2 + 1.5])
    return MeasurementModel(func=pointwise(func), value=value, noise_cov=np.eye(2))


def reference_partitioned(prior, model, threshold):
    """Straight-line reimplementation of the round loop with plain numpy.

    Deliberately avoids the package's decorrelation and update helpers so a
    bookkeeping bug in either cannot hide in both, and mixes the model
    itself (nested closures) rather than its linearization.  Returns the
    posterior and each round's (lambdas, split size).
    """
    mean = prior.mean.copy()
    cov = prior.cov.copy()
    func = model.func
    value = np.asarray(model.value, dtype=float)
    noise = np.asarray(model.noise_cov, dtype=float)
    rounds = []
    while value.size:
        d = value.size
        sqrt_cov = np.linalg.cholesky(cov)
        lin = linearize(func, mean, sqrt_cov)
        sqrt_noise = np.linalg.cholesky(noise)
        white = scipy.linalg.solve_triangular(sqrt_noise, lin.Xi, lower=True)
        white = scipy.linalg.solve_triangular(sqrt_noise, white.T, lower=True).T
        lam, u = np.linalg.eigh(0.5 * (white + white.T))
        lam = np.clip(lam, 0.0, None)
        d_mat = u.T @ np.linalg.inv(sqrt_noise)
        k_split = max(1, int(np.count_nonzero(lam <= threshold)))
        rounds.append((lam, k_split))

        head = d_mat[:k_split]
        y_hat = head @ (lin.h_at_mean + 0.5 * lin.xi)
        b = head @ lin.M
        s = b @ b.T + 0.5 * np.diag(lam[:k_split]) + np.eye(k_split)
        gain = sqrt_cov @ b.T @ np.linalg.inv(s)
        mean = mean + gain @ (head @ value - y_hat)
        cov = cov - gain @ s @ gain.T
        cov = 0.5 * (cov + cov.T)

        tail = d_mat[k_split:]
        value = tail @ value
        prev = func
        func = (lambda rows, g: (lambda xs: g(xs) @ rows.T))(tail, prev)
        noise = np.eye(d - k_split)
    return GaussianState(mean, cov), rounds


def assert_rounds_match(trace, ref):
    """Same block sizes and per-round spectra as the reference, round by round."""
    assert trace.split_sizes == tuple(k for _, k in ref)
    for rnd, (lam, _) in zip(trace.rounds, ref):
        np.testing.assert_allclose(rnd.lambdas, lam, atol=1e-8)


class TestPukfUpdate:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from([-np.inf, 0.1, 1.0, np.inf]),
    )
    def test_linear_model_matches_kalman_for_any_threshold(self, n, d, seed, threshold):
        rng = np.random.default_rng(seed)
        h_mat = rng.normal(size=(d, n))
        noise = random_spd(rng, d)
        value = rng.normal(size=d)
        prior = GaussianState(rng.normal(size=n), random_spd(rng, n, scale=2.0))
        model = MeasurementModel(
            func=lambda x: x @ h_mat.T, value=value, noise_cov=noise
        )
        post, trace = pukf_update(prior, model, threshold=threshold)
        want_mean, want_cov = kalman_update(prior.mean, prior.cov, h_mat, noise, value)
        np.testing.assert_allclose(post.mean, want_mean, atol=1e-9)
        np.testing.assert_allclose(post.cov, want_cov, atol=1e-9)
        # roundoff leaves eigenvalues ~1e-32, so a clearly positive
        # threshold takes all rows in one round
        if threshold > 0.0:
            assert trace.n_rounds == 1
            assert trace.split_sizes == (d,)

    def test_infinite_threshold_is_single_full_update(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            func = pointwise(random_quadratic(rng, n, d)[0])
            prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
            model = MeasurementModel(
                func=func, value=rng.normal(size=d), noise_cov=random_spd(rng, d)
            )
            post, trace = pukf_update(prior, model, threshold=np.inf)
            full = ekf2_update_numerical(prior, model)
            assert trace.n_rounds == 1
            np.testing.assert_allclose(post.mean, full.mean, atol=1e-10)
            np.testing.assert_allclose(post.cov, full.cov, atol=1e-10)

    def test_worked_example_trace(self):
        prior = GaussianState([1.0], [[1.0]])
        post, trace = pukf_update(prior, example_model(), threshold=1.0)
        assert trace.n_rounds == 2
        assert trace.split_sizes == (1, 1)

        first = trace.rounds[0]
        np.testing.assert_allclose(first.lambdas, [0.0, 8.0], atol=1e-10)
        np.testing.assert_allclose(first.mean, [-0.5], atol=1e-10)
        np.testing.assert_allclose(first.cov, [[1.0 / 3.0]], atol=1e-10)

        second = trace.rounds[1]
        np.testing.assert_allclose(second.lambdas, [8.0 / 9.0], atol=1e-10)
        np.testing.assert_allclose(post.mean, second.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, second.cov, atol=1e-12)

    def test_worked_example_against_reference(self):
        prior = GaussianState([1.0], [[1.0]])
        model = example_model()
        for threshold in (-np.inf, 0.1, 1.0, 10.0, np.inf):
            post, trace = pukf_update(prior, model, threshold=threshold)
            want, ref = reference_partitioned(prior, model, threshold)
            np.testing.assert_allclose(post.mean, want.mean, atol=1e-9)
            np.testing.assert_allclose(post.cov, want.cov, atol=1e-9)
            assert_rounds_match(trace, ref)

    def test_random_quadratics_against_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 5))
            func = pointwise(random_quadratic(rng, n, d, curvature=0.4)[0])
            prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
            model = MeasurementModel(
                func=func, value=rng.normal(size=d), noise_cov=random_spd(rng, d)
            )
            threshold = float(rng.uniform(0.0, 3.0))
            post, trace = pukf_update(prior, model, threshold=threshold)
            want, ref = reference_partitioned(prior, model, threshold)
            np.testing.assert_allclose(post.mean, want.mean, atol=1e-8)
            np.testing.assert_allclose(post.cov, want.cov, atol=1e-8)
            assert_rounds_match(trace, ref)

    def test_covariance_never_grows(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 5))
            func = pointwise(random_quadratic(rng, n, d, curvature=0.5)[0])
            prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
            model = MeasurementModel(
                func=func, value=rng.normal(size=d), noise_cov=random_spd(rng, d)
            )
            post, trace = pukf_update(prior, model, threshold=0.5)
            gap = prior.cov - post.cov
            assert np.linalg.eigvalsh(gap).min() > -1e-9
            # each intermediate posterior shrinks as well
            prev = prior.cov
            for rnd in trace.rounds:
                gap = prev - rnd.cov
                assert np.linalg.eigvalsh(gap).min() > -1e-9
                prev = rnd.cov

    def test_round_count_extremes(self):
        rng = np.random.default_rng(4)
        func = pointwise(random_quadratic(rng, 2, 5, curvature=0.5)[0])
        prior = GaussianState(rng.normal(size=2), random_spd(rng, 2))
        model = MeasurementModel(
            func=func, value=rng.normal(size=5), noise_cov=random_spd(rng, 5)
        )
        _, one_round = pukf_update(prior, model, threshold=np.inf)
        assert one_round.split_sizes == (5,)
        _, one_by_one = pukf_update(prior, model, threshold=-np.inf)
        assert one_by_one.split_sizes == (1, 1, 1, 1, 1)

    def test_scalar_valued_function(self):
        # a scalar measurement is one column: (N, 1), as the per-point map
        # wrapped by ``pointwise`` gives it; a flat (N,) map is rejected
        prior = GaussianState([0.5, -0.2], [[1.0, 0.3], [0.3, 0.8]])
        fields = dict(value=[0.7], noise_cov=[[0.5]])
        scalar = MeasurementModel(func=pointwise(lambda x: x[0] ** 2 + x[1]), **fields)
        column = MeasurementModel(
            func=lambda xs: (xs[:, 0] ** 2 + xs[:, 1])[:, None], **fields
        )
        flat = MeasurementModel(func=lambda xs: xs[:, 0] ** 2 + xs[:, 1], **fields)
        for threshold in (-np.inf, np.inf):
            got, _ = pukf_update(prior, scalar, threshold=threshold)
            want, _ = pukf_update(prior, column, threshold=threshold)
            np.testing.assert_array_equal(got.mean, want.mean)
            np.testing.assert_array_equal(got.cov, want.cov)
            with pytest.raises(ValueError, match="shape"):
                pukf_update(prior, flat, threshold=threshold)

    def test_config_validation(self):
        # the threshold is an extended real with default 1.0; NaN is no cutoff
        prior = GaussianState([1.0], [[1.0]])
        default, _ = pukf_update(prior, example_model())
        explicit, _ = pukf_update(prior, example_model(), threshold=1.0)
        np.testing.assert_array_equal(default.mean, explicit.mean)
        np.testing.assert_array_equal(default.cov, explicit.cov)
        with pytest.raises(ValueError, match="NaN"):
            pukf_update(prior, example_model(), threshold=np.nan)


class TestMixingInvariance:
    """Mixing the measurement by an invertible A leaves the posterior alone.

    At threshold +inf this is the one-shot second-order update; at -inf
    every round splits off one element and re-linearizes the rest, so the
    property also covers the bookkeeping of what is left of the
    measurement between rounds.
    """

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from([-np.inf, np.inf]),
    )
    def test_posterior_invariant_under_mixing(self, n, d, seed, threshold):
        rng = np.random.default_rng(seed)
        func = pointwise(random_quadratic(rng, n, d, curvature=0.5)[0])
        prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
        model = MeasurementModel(
            func=func, value=rng.normal(size=d), noise_cov=random_spd(rng, d)
        )
        mix = rng.normal(size=(d, d))
        while np.linalg.cond(mix) > 1e2:
            mix = rng.normal(size=(d, d))

        want, _ = pukf_update(prior, model, threshold=threshold)
        got, _ = pukf_update(prior, transform_model(model, mix), threshold=threshold)
        for a, b in ((got.mean, want.mean), (got.cov, want.cov)):
            scale = 1.0 + np.abs(b).max()
            assert np.abs(a - b).max() / scale < 1e-7


class TestRoundInvariants:
    """Whatever the threshold, the rounds use up the whole measurement, one
    block each, and every round leaves a PSD belief."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from([-np.inf, 0.1, 1.0, np.inf]),
    )
    def test_blocks_sum_to_d_and_rounds_stay_psd(self, n, d, seed, threshold):
        rng = np.random.default_rng(seed)
        func = pointwise(random_quadratic(rng, n, d, curvature=0.5)[0])
        prior = GaussianState(rng.normal(size=n), random_spd(rng, n))
        model = MeasurementModel(
            func=func, value=rng.normal(size=d), noise_cov=random_spd(rng, d)
        )
        _, trace = pukf_update(prior, model, threshold=threshold)
        assert sum(trace.split_sizes) == d
        assert all(k >= 1 for k in trace.split_sizes)
        for rnd in trace.rounds:
            w = np.linalg.eigvalsh(rnd.cov)
            assert w[0] >= -1e-9 * max(w[-1], 0.0)


class TestPukfStep:
    """Predict/update cycles: ``LinearStateModel.predict``, then ``pukf_update``."""

    def test_linear_step_matches_kalman(self):
        rng = np.random.default_rng(5)
        n, d = 3, 2
        f_mat = rng.normal(size=(n, n)) * 0.5 + np.eye(n)
        w = random_spd(rng, n, scale=0.5)
        h_mat = rng.normal(size=(d, n))
        r = random_spd(rng, d)
        value = rng.normal(size=d)
        prior = GaussianState(rng.normal(size=n), random_spd(rng, n))

        state_model = LinearStateModel(transition=f_mat, noise_cov=w)
        measurement = MeasurementModel(
            func=lambda x: x @ h_mat.T, value=value, noise_cov=r
        )
        post, _ = pukf_update(state_model.predict(prior), measurement, threshold=1.0)

        pred_mean = f_mat @ prior.mean
        pred_cov = f_mat @ prior.cov @ f_mat.T + w
        want_mean, want_cov = kalman_update(pred_mean, pred_cov, h_mat, r, value)
        np.testing.assert_allclose(post.mean, want_mean, atol=1e-9)
        np.testing.assert_allclose(post.cov, want_cov, atol=1e-9)

    def test_identity_dynamics_reduce_to_update(self):
        prior = GaussianState([1.0], [[1.0]])
        state_model = LinearStateModel(transition=np.eye(1), noise_cov=np.zeros((1, 1)))
        predicted = state_model.predict(prior)
        stepped, _ = pukf_update(predicted, example_model(), threshold=1.0)
        updated, _ = pukf_update(prior, example_model(), threshold=1.0)
        np.testing.assert_allclose(stepped.mean, updated.mean, atol=1e-12)
        np.testing.assert_allclose(stepped.cov, updated.cov, atol=1e-12)

    def test_multistep_track_against_reference(self):
        # ten predict/update cycles on a drifting quadratic sensor
        rng = np.random.default_rng(6)
        n, d = 2, 3
        f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        w = 0.05 * np.eye(n)
        state_model = LinearStateModel(transition=f_mat, noise_cov=w)
        func = pointwise(random_quadratic(rng, n, d, curvature=0.3)[0])
        threshold = 0.5

        state = GaussianState(rng.normal(size=n), random_spd(rng, n))
        shadow = state
        for _ in range(10):
            value = rng.normal(size=d)
            model = MeasurementModel(func=func, value=value, noise_cov=np.eye(d))
            state, _ = pukf_update(state_model.predict(state), model, threshold)

            pred = GaussianState(
                f_mat @ shadow.mean, f_mat @ shadow.cov @ f_mat.T + w
            )
            shadow, _ = reference_partitioned(pred, model, threshold)
            np.testing.assert_allclose(state.mean, shadow.mean, atol=1e-8)
            np.testing.assert_allclose(state.cov, shadow.cov, atol=1e-8)
