import numpy as np
import pytest
import scipy.stats

from pukf import (
    DEFAULT_PROBS,
    EmptySample,
    GaussianState,
    Grid2D,
    GridTooSmall,
    ParticleCloud,
    SingularCovariance,
    ellipsoid_coverage,
    error_quantiles,
    kl_divergence_grid,
)


class TestErrorQuantiles:
    def test_small_sample_median(self):
        q = error_quantiles([1.0, 2.0, 3.0, 4.0, 5.0], probs=(0.0, 0.5, 1.0))
        np.testing.assert_allclose(q, [1.0, 3.0, 5.0])

    def test_default_probs_monotone(self):
        rng = np.random.default_rng(0)
        q = error_quantiles(rng.exponential(size=1000))
        assert q.shape == (len(DEFAULT_PROBS),)
        assert np.all(np.diff(q) >= 0.0)

    def test_half_normal_tail(self):
        rng = np.random.default_rng(1)
        sample = np.abs(rng.normal(size=100_000))
        q95 = error_quantiles(sample, probs=(0.95,))[0]
        assert q95 == pytest.approx(scipy.stats.norm.ppf(0.975), abs=0.02)

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            error_quantiles([])

    def test_finite_sample_is_numpy_quantile(self):
        sample = np.random.default_rng(2).exponential(size=37)
        np.testing.assert_array_equal(
            error_quantiles(sample), np.quantile(sample, DEFAULT_PROBS)
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_errors(self):
        # np.quantile gives nan for each of these: inf * 0 or inf - inf
        inf = np.inf
        assert error_quantiles([1.0, 2.0, inf], probs=(0.5,))[0] == 2.0
        np.testing.assert_array_equal(
            error_quantiles([1.0, inf], probs=(0.0, 0.25, 0.5, 0.75, 1.0)),
            [1.0, inf, inf, inf, inf],
        )
        np.testing.assert_array_equal(error_quantiles([inf, inf, inf]), [inf] * 5)
        # finite quantiles below the first inf are untouched
        np.testing.assert_allclose(
            error_quantiles([3.0, 1.0, inf, 2.0]), [1.15, 1.75, 2.5, inf, inf]
        )


class TestEllipsoidCoverage:
    def test_truth_at_mean_is_inside_everything(self):
        estimate = GaussianState([1.0, 2.0], np.eye(2))
        covered = ellipsoid_coverage([1.0, 2.0], estimate)
        assert covered.all()

    def test_boundary_is_excluded(self):
        # place the truth exactly on the 95% contour of a scalar Gaussian
        radius = np.sqrt(scipy.stats.chi2.ppf(0.95, df=1))
        estimate = GaussianState([0.0], [[1.0]])
        covered = ellipsoid_coverage([radius], estimate, probs=(0.95,))
        assert not covered[0]
        covered = ellipsoid_coverage([radius - 1e-9], estimate, probs=(0.95,))
        assert covered[0]

    def test_far_truth_outside(self):
        estimate = GaussianState([0.0, 0.0], np.eye(2))
        covered = ellipsoid_coverage([10.0, 10.0], estimate)
        assert not covered.any()

    def test_calibration(self):
        # truth drawn from the estimate's own distribution: empirical
        # coverage must track the nominal levels
        rng = np.random.default_rng(2)
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        estimate = GaussianState([0.5, -0.5], cov)
        hits = np.zeros(len(DEFAULT_PROBS))
        n = 20_000
        truths = rng.multivariate_normal(estimate.mean, cov, size=n)
        for truth in truths:
            hits += ellipsoid_coverage(truth, estimate)
        np.testing.assert_allclose(hits / n, DEFAULT_PROBS, atol=0.02)

    def test_singular_covariance_raises(self):
        estimate = GaussianState([0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(SingularCovariance):
            ellipsoid_coverage([0.0, 0.0], estimate)


class TestGrid2D:
    def test_bounds_cover_particles_with_padding(self):
        rng = np.random.default_rng(3)
        cloud = ParticleCloud.uniform(rng.normal(size=(500, 2)))
        grid = Grid2D.from_cloud(cloud)
        pos = cloud.particles
        assert grid.x_edges[0] < pos[:, 0].min()
        assert grid.x_edges[-1] > pos[:, 0].max()
        assert grid.y_edges[0] < pos[:, 1].min()
        assert grid.y_edges[-1] > pos[:, 1].max()
        assert grid.x_edges.shape == (51,)
        assert grid.cell_area > 0.0

    def test_point_cloud_still_builds(self):
        cloud = ParticleCloud.uniform(np.tile([1.0, 2.0], (10, 1)))
        grid = Grid2D.from_cloud(cloud)
        assert grid.x_edges[0] < 1.0 < grid.x_edges[-1]
        assert grid.cell_area > 0.0


class TestKlDivergenceGrid:
    def test_matched_gaussian_is_near_zero(self):
        rng = np.random.default_rng(4)
        cov = np.array([[1.5, 0.4], [0.4, 0.8]])
        mean = np.array([1.0, -2.0])
        cloud = ParticleCloud.uniform(rng.multivariate_normal(mean, cov, size=100_000))
        grid = Grid2D.from_cloud(cloud)
        kl = kl_divergence_grid(cloud, GaussianState(mean, cov), grid)
        assert 0.0 <= kl < 0.05

    def test_mismatched_gaussian_is_large(self):
        rng = np.random.default_rng(5)
        cloud = ParticleCloud.uniform(
            rng.multivariate_normal([0.0, 0.0], np.eye(2), size=20_000)
        )
        grid = Grid2D.from_cloud(cloud)
        far = GaussianState([8.0, 8.0], 0.1 * np.eye(2))
        assert kl_divergence_grid(cloud, far, grid) > 5.0

    def test_overconfident_worse_than_matched(self):
        rng = np.random.default_rng(6)
        cloud = ParticleCloud.uniform(
            rng.multivariate_normal([0.0, 0.0], np.eye(2), size=50_000)
        )
        grid = Grid2D.from_cloud(cloud)
        matched = kl_divergence_grid(cloud, GaussianState([0.0, 0.0], np.eye(2)), grid)
        tight = kl_divergence_grid(
            cloud, GaussianState([0.0, 0.0], 0.2 * np.eye(2)), grid
        )
        assert tight > matched + 0.5

    def test_weighted_reference(self):
        # importance-weighted cloud targeting N(1, 0.5 I) from a wide proposal
        rng = np.random.default_rng(7)
        proposal_cov = 4.0 * np.eye(2)
        target_mean = np.array([1.0, 1.0])
        target_cov = 0.5 * np.eye(2)
        particles = rng.multivariate_normal([0.0, 0.0], proposal_cov, size=200_000)
        logw = scipy.stats.multivariate_normal(target_mean, target_cov).logpdf(
            particles
        ) - scipy.stats.multivariate_normal([0.0, 0.0], proposal_cov).logpdf(particles)
        w = np.exp(logw - logw.max())
        cloud = ParticleCloud(particles, w / w.sum())
        grid = Grid2D.from_cloud(cloud)
        kl = kl_divergence_grid(cloud, GaussianState(target_mean, target_cov), grid)
        assert 0.0 <= kl < 0.1

    def test_grid_too_small(self):
        rng = np.random.default_rng(8)
        cloud = ParticleCloud.uniform(
            rng.multivariate_normal([0.0, 0.0], np.eye(2), size=5_000)
        )
        tiny = Grid2D(
            x_edges=np.linspace(-0.1, 0.1, 11), y_edges=np.linspace(-0.1, 0.1, 11)
        )
        with pytest.raises(GridTooSmall):
            kl_divergence_grid(cloud, GaussianState([0.0, 0.0], np.eye(2)), tiny)

    def test_nonfinite_approx_gives_inf(self):
        rng = np.random.default_rng(9)
        cloud = ParticleCloud.uniform(
            rng.multivariate_normal([0.0, 0.0], np.eye(2), size=2_000)
        )
        grid = Grid2D.from_cloud(cloud)
        # constructor validation rejects NaN, so smuggle one in afterwards
        nan_state = GaussianState([0.0, 0.0], np.eye(2))
        object.__setattr__(nan_state, "mean", np.array([np.nan, 0.0]))
        assert kl_divergence_grid(cloud, nan_state, grid) == np.inf
        sing = GaussianState([0.0, 0.0], np.zeros((2, 2)))
        assert kl_divergence_grid(cloud, sing, grid) == np.inf

    def test_dims_marginalize_higher_state(self):
        # 4-d cloud, compare only the first two coordinates
        rng = np.random.default_rng(10)
        cov4 = np.diag([1.0, 2.0, 50.0, 50.0])
        cloud = ParticleCloud.uniform(
            rng.multivariate_normal(np.zeros(4), cov4, size=100_000)
        )
        grid = Grid2D.from_cloud(cloud)
        kl = kl_divergence_grid(cloud, GaussianState(np.zeros(4), cov4), grid)
        assert 0.0 <= kl < 0.05
