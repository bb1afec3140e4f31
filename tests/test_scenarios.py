import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pukf import (
    FILTERS,
    GaussianState,
    LinearStateModel,
    NonFiniteEvaluation,
    ScenarioSpec,
    decorrelate,
    linearize,
    matrix_sqrt,
    parse_filter,
    pukf_update,
    scenario_bearings_far_near,
    scenario_bearings_near_near,
    scenario_polynomial,
    simulate_truth,
    wrap_angle,
)
from pukf.baselines import ukf_update, unscented_transform
from pukf.errors import SingularInnovation
from pukf.scenarios import _bearings_model, _bearings_raw

from helpers import same_bits


def at_point(func):
    """A vectorized (N, n) -> (N, d) map as a map of one state (n,) -> (d,)."""
    return lambda x: func(np.asarray(x, dtype=float)[None])[0]


def fd_jacobian(func, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        cols.append((np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2 * eps))
    return np.stack(cols, axis=1)


def fd_hessians(func, x, eps=1e-4):
    x = np.asarray(x, dtype=float)
    d = np.asarray(func(x)).size
    n = x.size
    hes = np.zeros((d, n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = eps
            ej[j] = eps
            hes[:, i, j] = (
                np.asarray(func(x + ei + ej))
                - np.asarray(func(x + ei - ej))
                - np.asarray(func(x - ei + ej))
                + np.asarray(func(x - ei - ej))
            ) / (4 * eps * eps)
    return hes


def old_wrap_angle(theta):
    """The wrap expression that wrap_angle and the bearings map replaced."""
    return -((-theta + math.pi) % (2.0 * math.pi) - math.pi)


def old_bearings_func(xs, sensors, value):
    """The (N, s)-layout bearings map that the sensor-major one replaced."""
    dx = xs[:, 0][:, None] - sensors[:, 0][None, :]
    dy = xs[:, 1][:, None] - sensors[:, 1][None, :]
    return value[None, :] + old_wrap_angle(np.arctan2(dy, dx) - value[None, :])


# Angles on and around the wrap's cut points, and signed zeros.
SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi,
                  np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0), 1e-300, -1e-300]


class TestWrapAngle:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        size=st.sampled_from([1, 2, 15, 30, 5000]),
        scale=st.sampled_from([1.0, 4.0, 1e3, 1e17]),
        special=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        ndim=st.sampled_from([1, 2, 3]),
    )
    def test_same_bits_as_the_expression(self, size, scale, special, seed, ndim):
        rng = np.random.default_rng(seed)
        # a C-ordered vector, a transposed matrix, or a 3-d array with permuted axes
        shape, axes = {1: ((size,), (0,)), 2: ((2, size), (1, 0)), 3: ((size, 2, 3), (2, 0, 1))}[ndim]
        theta = (scale * rng.uniform(-1.0, 1.0, size=shape)).transpose(axes)
        hit = rng.random(theta.shape) < special
        theta[hit] = rng.choice(SPECIAL_ANGLES + [np.nan, np.inf, -np.inf], size=hit.sum())
        copy = theta.copy()
        with np.errstate(invalid="ignore"):  # inf % 2pi is NaN, and warns
            got, want = wrap_angle(theta), old_wrap_angle(theta)
            scalars = [wrap_angle(float(t)) for t in theta.flat[:3]]
        assert same_bits(got, want)
        assert same_bits(theta, copy)  # the caller's array is left alone
        assert all(type(v) is float for v in scalars)
        assert same_bits(np.array(scalars), want.ravel()[:3])

    def test_interval_is_half_open(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    def test_residual_across_cut(self):
        # nearly opposite angles differ by a small wrapped residual,
        # not by almost 2 pi
        measured, predicted = 3.13, -3.13
        assert wrap_angle(measured - predicted) == pytest.approx(
            6.26 - 2 * math.pi, abs=1e-12
        )

    def test_vectorized_and_idempotent(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-20.0, 20.0, size=100)
        wrapped = wrap_angle(theta)
        assert np.all(wrapped > -math.pi) and np.all(wrapped <= math.pi)
        np.testing.assert_allclose(wrap_angle(wrapped), wrapped, atol=1e-12)
        np.testing.assert_allclose(np.sin(wrapped), np.sin(theta), atol=1e-12)
        np.testing.assert_allclose(np.cos(wrapped), np.cos(theta), atol=1e-12)


class TestPolynomialScenario:
    def setup_method(self):
        self.spec = scenario_polynomial()
        self.model = self.spec.measurement_generator(
            np.zeros(3), np.random.default_rng(0)
        )

    def test_prior_and_dynamics(self):
        np.testing.assert_allclose(self.spec.prior.mean, 0.0)
        np.testing.assert_allclose(self.spec.prior.cov, 16.0 * np.eye(3))
        np.testing.assert_allclose(self.spec.state_model.transition, np.eye(3))
        np.testing.assert_allclose(self.spec.state_model.noise_cov, 16.0 * np.eye(3))

    def test_zero_maps_to_zero(self):
        np.testing.assert_allclose(self.model.func(np.zeros((1, 3))), 0.0, atol=1e-14)

    def test_coefficients_recovered_by_probing(self):
        # probe out the linear and pure-quadratic coefficient columns,
        # then confirm they explain the function everywhere
        func = at_point(self.model.func)
        h0 = func(np.zeros(3))
        lin_cols, quad_cols = [], []
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            lin_cols.append((func(e) - func(-e)) / 2.0)
            quad_cols.append(func(e) + func(-e) - 2.0 * h0)
        coeffs = np.stack(lin_cols + quad_cols, axis=1)  # (6, 6)

        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(scale=3.0, size=3)
            basis = np.concatenate([x, 0.5 * x * x])
            np.testing.assert_allclose(func(x), coeffs @ basis, atol=1e-9)

        np.testing.assert_allclose(
            coeffs @ coeffs.T, np.eye(6) + 8.0 * np.ones((6, 6)), atol=1e-9
        )

    def test_noise_is_gram_matrix_of_coefficients(self):
        # probing out the coefficient matrix as in
        # test_coefficients_recovered_by_probing: noise = coeffs @ coeffs.T,
        # so the separable basis carries exactly unit independent noise
        func = at_point(self.model.func)
        h0 = func(np.zeros(3))
        cols = []
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            cols.append((func(e) - func(-e)) / 2.0)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            cols.append(func(e) + func(-e) - 2.0 * h0)
        coeffs = np.stack(cols, axis=1)
        np.testing.assert_allclose(self.model.noise_cov, coeffs @ coeffs.T, atol=1e-9)
        np.testing.assert_allclose(
            self.model.noise_cov, np.eye(6) + 8.0 * np.ones((6, 6)), atol=1e-12
        )

    def test_analytic_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(2)
        func = at_point(self.model.func)
        for _ in range(5):
            x = rng.normal(scale=2.0, size=3)
            np.testing.assert_allclose(
                self.model.jacobian(x), fd_jacobian(func, x), atol=1e-5
            )
            np.testing.assert_allclose(
                self.model.hessians(x), fd_hessians(func, x), atol=1e-4
            )

    def test_three_linear_directions_at_prior(self):
        # at the prior, decorrelation exposes three exactly linear
        # combinations, and each quadratic basis element x^2/2 with prior
        # variance 16 and unit transformed noise contributes tr(P H)^2 = 256
        prior = self.spec.prior
        lin = linearize(self.model.evaluate, prior.mean, matrix_sqrt(prior.cov))
        np.testing.assert_allclose(lin.xi, [48.0, 48.0, 48.0, 64.0, 64.0, 64.0], atol=1e-8)
        dec = decorrelate(lin.Xi, matrix_sqrt(self.model.noise_cov), threshold=1.0)
        np.testing.assert_allclose(
            dec.lambdas, [0.0, 0.0, 0.0, 256.0, 256.0, 256.0], atol=1e-6
        )
        assert dec.split_k == 3


class TestBearingsScenarios:
    def test_shared_prior_and_dynamics_shape(self):
        far = scenario_bearings_far_near()
        near = scenario_bearings_near_near()
        np.testing.assert_allclose(far.prior.mean, near.prior.mean)
        np.testing.assert_allclose(far.prior.cov, near.prior.cov)
        np.testing.assert_allclose(far.prior.cov, 10.0 * np.eye(4))
        expected_f = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(far.state_model.transition, expected_f)
        np.testing.assert_allclose(near.state_model.transition, expected_f)

    def test_process_noise_blocks(self):
        far = scenario_bearings_far_near()
        want = np.kron(
            np.array([[1.0 / 300.0, 1.0 / 200.0], [1.0 / 200.0, 1.0 / 100.0]]),
            np.eye(2),
        )
        np.testing.assert_allclose(far.state_model.noise_cov, want, atol=1e-15)
        near = scenario_bearings_near_near()
        want = np.kron(np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]]), np.eye(2))
        np.testing.assert_allclose(near.state_model.noise_cov, want, atol=1e-15)

    def test_bearing_geometry(self):
        # sensor at the origin sees a target on the +x axis at bearing zero;
        # a sensor directly below the target sees it at +pi/2
        spec = scenario_bearings_far_near(sensors=((0.0, 0.0), (1.0, -5.0)))
        rng = np.random.default_rng(4)
        truth = np.array([1.0, 0.0, 0.0, 0.0])
        model = spec.measurement_generator(truth, rng)
        predicted = model.func(truth[None])[0]
        # func realigns to the drawn value's branch; geometry is exact
        assert wrap_angle(predicted[0]) == pytest.approx(0.0, abs=1e-12)
        assert wrap_angle(predicted[1]) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_measurement_noise_std(self):
        spec = scenario_bearings_far_near(noise_std_deg=2.0)
        sigma = math.radians(2.0)
        rng = np.random.default_rng(5)
        truth = np.array([1.0, 2.0, 0.0, 0.0])
        raw = []
        for _ in range(100_000):
            model = spec.measurement_generator(truth, rng)
            raw.append(model.value - model.func(truth[None])[0])
        raw = np.array(raw)
        np.testing.assert_allclose(raw.mean(axis=0), 0.0, atol=4 * sigma / math.sqrt(raw.shape[0]) * 10)
        np.testing.assert_allclose(raw.std(axis=0), sigma, rtol=0.02)
        np.testing.assert_allclose(spec.measurement_generator(truth, rng).noise_cov,
                                   sigma * sigma * np.eye(2), atol=1e-15)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        count=st.sampled_from([1, 15, 30, 5000]),
        sensors=st.integers(1, 3),
        spread=st.sampled_from([1e-3, 3.0, 40.0]),
        value_kind=st.sampled_from(["bearing", "wide", "special"]),
        bad=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_func_has_the_bits_of_the_old_map(
        self, count, sensors, spread, value_kind, bad, seed
    ):
        rng = np.random.default_rng(seed)
        where = rng.normal(scale=10.0, size=(sensors, 2))
        if value_kind == "bearing":
            value = rng.uniform(-math.pi, math.pi, size=sensors)
        elif value_kind == "wide":  # outside [-pi, pi]
            value = rng.choice([-1.0, 1.0], size=sensors) * rng.uniform(math.pi, 20.0, size=sensors)
        else:
            value = rng.choice(SPECIAL_ANGLES, size=sensors)
        model = _bearings_model(where, np.eye(sensors), value)
        xs = np.empty((count, 4))
        xs[:, :2] = where[rng.integers(sensors)] + spread * rng.normal(size=(count, 2))
        xs[:, 2:] = rng.normal(size=(count, 2))
        on = rng.random(count) < 0.05  # exactly at a sensor, with signed zeros
        xs[on, :2] = where[rng.integers(sensors)]
        rows = rng.random(count) < bad
        xs[rows, rng.integers(2)] = rng.choice([np.nan, np.inf, -np.inf], size=rows.sum())
        before = (xs.copy(), model.value.copy())
        got = model.func(xs)
        assert got.flags.c_contiguous
        assert same_bits(got, old_bearings_func(xs, where, model.value))
        assert same_bits(xs, before[0]) and same_bits(model.value, before[1])

    def test_branch_alignment_near_cut(self):
        # target just below the -x axis from the sensor: raw bearing is near
        # -pi while the value may be near +pi; the model output must stay on
        # the value's branch so the residual is tiny
        sensors = ((0.0, 0.0),)
        spec = scenario_bearings_far_near(sensors=sensors, noise_std_deg=2.0)
        truth = np.array([-5.0, -1e-4, 0.0, 0.0])
        rng = np.random.default_rng(11)
        for _ in range(200):
            model = spec.measurement_generator(truth, rng)
            residual = model.value - model.func(truth[None])[0]
            assert abs(residual[0]) < 0.5

    def test_analytic_derivatives_match_finite_differences(self):
        spec = scenario_bearings_near_near()
        rng = np.random.default_rng(6)
        for _ in range(5):
            truth = rng.normal(scale=3.0, size=4)
            if min(np.hypot(truth[0] - 2.0, truth[1] - 2.0),
                   np.hypot(truth[0] + 2.0, truth[1] - 2.0)) < 0.5:
                continue  # keep probes away from a sensor
            model = spec.measurement_generator(truth, rng)
            x = truth + rng.normal(scale=0.1, size=4)
            np.testing.assert_allclose(
                model.jacobian(x), fd_jacobian(at_point(model.func), x), atol=1e-5
            )
            np.testing.assert_allclose(
                model.hessians(x), fd_hessians(at_point(model.func), x), atol=1e-3
            )

    @staticmethod
    def step_at_near_sensor(label):
        # The prior mean sits on the near sensor (2, 2), where q = 0.
        spec = scenario_bearings_far_near()
        rng = np.random.default_rng(12)
        model = spec.measurement_generator(np.array([2.5, 1.5, 0.0, 0.0]), rng)
        prior = GaussianState([2.0, 2.0, 0.0, 0.0], np.eye(4))
        _, name, param = parse_filter(label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return FILTERS[name].build(param).step(prior, spec.state_model, model, rng)

    @pytest.mark.parametrize("label", ["ekf", "ekf2", "iekf@10", "ruf@10"])
    def test_analytic_derivatives_at_a_sensor_are_non_finite(self, label):
        # The Jacobian and Hessians divide 0 by 0 there: an error, not a warning.
        with pytest.raises(NonFiniteEvaluation, match="not finite"):
            self.step_at_near_sensor(label)

    @pytest.mark.parametrize("label", ["ekf2n", "pukf@1"])
    def test_probes_at_a_sensor_are_finite(self, label):
        # The probes' arctan2(0, 0) is 0, so the derivative-free updates return.
        post = self.step_at_near_sensor(label)
        assert np.isfinite(post.mean).all()

    @pytest.mark.parametrize(
        "scenario", [scenario_bearings_far_near, scenario_bearings_near_near]
    )
    @pytest.mark.parametrize("threshold", [0.1, 1.0])
    def test_first_update_splits_into_single_elements(self, scenario, threshold):
        # Later updates need not split: as the belief tightens, more of them
        # take both elements in one round, more often at threshold 1 than 0.1.
        spec = scenario()
        prior = spec.state_model.predict(spec.prior)
        for seed in range(50):
            (step,) = simulate_truth(spec, 1, seed)
            _, trace = pukf_update(prior, step.measurement, threshold)
            assert trace.split_sizes == (1, 1), seed

    def test_the_one_far_near_divergence_in_100_benchmark_campaigns(self):
        # Run 16 of the benchmark's far_near campaign 85 at workload seed 1
        # (campaign seed 1 * 1000 + 85), step 0; the truth stream is the run's
        # first SeedSequence child.  The predicted mean's bearing from the
        # near sensor lies pi from the measured one, the ukf's sigma points
        # (alpha = 1e-3) straddle the wrap, and their weights push y_mean to
        # -1.57e6: the innovation covariance's condition is 2.1e14.  No other
        # update diverged in campaigns 0-99 at seeds 1 and 7919.
        spec = scenario_bearings_far_near()
        truth_seq = np.random.SeedSequence([1085, 16]).spawn(1)[0]
        ((_, model),) = simulate_truth(spec, 1, np.random.default_rng(truth_seq))
        assert [v.hex() for v in model.value] == ["0x1.931ad51479662p-1", "0x1.564af8efcc2b4p+1"]
        prior = spec.state_model.predict(spec.prior)
        near = _bearings_raw(prior.mean[None], np.array([[2.0, 2.0]]))[0, 0]
        assert abs(wrap_angle(near - model.value[0])) == pytest.approx(np.pi, abs=0.01)
        y_mean = unscented_transform(model.evaluate, prior.mean, prior.cov)[0]
        assert y_mean[0] < -1e6
        with pytest.raises(SingularInnovation, match="2.1[0-9]*e\\+14"):
            ukf_update(prior, model)
        for threshold in (-np.inf, 0.1, 1.0, np.inf):
            post, _ = pukf_update(prior, model, threshold)
            assert np.isfinite(post.mean).all() and np.isfinite(post.cov).all()

    def test_velocity_rows_are_zero(self):
        spec = scenario_bearings_far_near()
        model = spec.measurement_generator(
            np.array([1.0, 2.0, 3.0, 4.0]), np.random.default_rng(7)
        )
        jac = model.jacobian(np.array([1.0, 2.0, 0.5, 0.5]))
        np.testing.assert_allclose(jac[:, 2:], 0.0, atol=1e-15)

    def test_nonlinearity_contrast_at_prior(self):
        rng = np.random.default_rng(8)
        cases = (
            # (scenario, smallest lambda is nearly linear?)
            (scenario_bearings_far_near(), True),
            (scenario_bearings_near_near(), False),
            # a far sensor at distance 1000 is an even more extreme split
            (scenario_bearings_far_near(sensors=((3.0, 3.0), (1000.0, 0.0))), True),
        )
        for spec, has_linear_element in cases:
            truth = np.array([1.0, 1.0, 0.0, 0.0])
            model = spec.measurement_generator(truth, rng)
            sqrt_p = matrix_sqrt(spec.prior.cov)
            lin = linearize(model.evaluate, spec.prior.mean, sqrt_p)
            dec = decorrelate(lin.Xi, matrix_sqrt(model.noise_cov), threshold=1.0)
            assert dec.split_k == 1
            assert dec.lambdas[-1] > 100.0
            if has_linear_element:
                assert dec.lambdas[0] < 0.1
            else:
                assert dec.lambdas[0] > 1.0


class TestSimulateTruth:
    def test_deterministic(self):
        spec = scenario_polynomial()
        a = simulate_truth(spec, 5, 42)
        b = simulate_truth(spec, 5, 42)
        assert len(a) == len(b) == 5
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.truth, sb.truth)
            np.testing.assert_array_equal(sa.measurement.value, sb.measurement.value)
        c = simulate_truth(spec, 5, 43)
        assert not np.array_equal(a[0].truth, c[0].truth)

    def test_noise_free_scenario_is_constant(self):
        spec = ScenarioSpec(
            name="frozen",
            prior=GaussianState([2.0, -1.0], np.zeros((2, 2))),
            state_model=LinearStateModel(np.eye(2), np.zeros((2, 2))),
            measurement_generator=lambda truth, rng: None,
        )
        steps = simulate_truth(spec, 4, 0)
        for step in steps:
            np.testing.assert_allclose(step.truth, [2.0, -1.0], atol=1e-12)

    def test_dynamics_consistency(self):
        # each truth equals F times the previous truth plus process noise
        # with the configured covariance
        spec = scenario_bearings_far_near()
        diffs = []
        for seed in range(300):
            steps = simulate_truth(spec, 8, seed)
            f = spec.state_model.transition
            for prev, cur in zip(steps, steps[1:]):
                diffs.append(cur.truth - f @ prev.truth)
        cov = np.cov(np.array(diffs).T)
        np.testing.assert_allclose(cov, spec.state_model.noise_cov, atol=0.01)

    def test_measured_values_wrapped(self):
        spec = scenario_bearings_near_near()
        for seed in range(20):
            for step in simulate_truth(spec, 10, seed):
                # values may carry noise past the cut but stay within one turn
                assert np.all(np.abs(step.measurement.value) <= math.pi + 0.5)
