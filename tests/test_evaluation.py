import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dsyevr

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
    kl_divergence_mass,
)
from pukf.core import _sym_eig

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_stats_out():
    # scipy.stats is most of the package's import time and memory, and the
    # metrics need only two closed forms from it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pukf; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def random_cov(dim, rng, eigenvalues):
    """A covariance with the given eigenvalues in a random orthonormal basis."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return (basis * eigenvalues) @ basis.T


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.0, 4.0),
    )
    def test_matches_the_chi2_distribution(self, dim, seed, scale):
        # scale 0 puts the truth at the mean, where m2 is 0.
        rng = np.random.default_rng(seed)
        cov = random_cov(dim, rng, 10.0 ** rng.uniform(-3.0, 3.0, size=dim))
        estimate = GaussianState(rng.normal(size=dim), cov)
        truth = estimate.mean + scale * np.linalg.cholesky(estimate.cov) @ rng.normal(size=dim)
        probs = (0.0, *DEFAULT_PROBS, 0.99, 1.0)
        diff = estimate.mean - truth
        factor = scipy.linalg.cho_factor(estimate.cov, lower=True)
        m2 = float(diff @ scipy.linalg.cho_solve(factor, diff))
        want = [scipy.stats.chi2.cdf(m2, df=dim) < p for p in probs]
        assert ellipsoid_coverage(truth, estimate, probs).tolist() == want


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

    def test_weighted_point_cloud_gets_the_degenerate_box(self):
        # The weighted variance of identical points is roundoff, not spread:
        # it must not shrink the +-1e-6 box to a few ulps with repeated edges.
        weights = np.random.default_rng(2).random(10)
        cloud = ParticleCloud(np.tile([1.3, -0.7], (10, 1)), weights / weights.sum())
        grid = Grid2D.from_cloud(cloud)
        for edges, at in ((grid.x_edges, 1.3), (grid.y_edges, -0.7)):
            np.testing.assert_allclose([edges[0], edges[-1]], [at - 1e-6, at + 1e-6])
            assert np.all(np.diff(edges) > 0.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 50, 3000, 30_000]),
        scale=st.floats(1e-3, 1e3),
        offset=st.floats(-1e4, 1e4),
        cloud=st.sampled_from(["spread", "point", "ulps"]),
        on_edges=st.floats(0.0, 0.5),
        outside=st.sampled_from([0.0, 5e-4, 2e-3, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bins_as_histogram2d(
        self, n, scale, offset, cloud, on_edges, outside, seed
    ):
        rng = np.random.default_rng(seed)
        base = offset + scale * rng.normal(size=2)
        if cloud == "point":  # the +-1e-6 box of a degenerate cloud
            particles = np.tile(base, (n, 1))
        elif cloud == "ulps":  # an extent of a few ulps in each coordinate
            particles = base + rng.integers(0, 4, size=(n, 2)) * np.spacing(base)
        else:
            particles = offset + scale * rng.normal(size=(n, 2))
        weights = rng.random(n) ** 3
        weights /= weights.sum()
        grid = Grid2D.from_cloud(ParticleCloud(particles, weights))
        for axis, edges in enumerate((grid.x_edges, grid.y_edges)):
            assert np.all(np.diff(edges) > 0.0)
            hit = rng.random(n) < on_edges  # interior edges and both ends
            particles[hit, axis] = rng.choice(edges, size=hit.sum())
            last = rng.random(n) < on_edges / 4
            particles[last, axis] = edges[-1]
            away = rng.random(n) < outside
            particles[away, axis] = rng.choice(
                [np.nan, np.inf, -np.inf, edges[0] - scale,
                 np.nextafter(edges[0], -np.inf), np.nextafter(edges[-1], np.inf)],
                size=away.sum(),
            )
        cloud = ParticleCloud(particles, weights)
        want, _, _ = np.histogram2d(
            particles[:, 0], particles[:, 1],
            bins=[grid.x_edges, grid.y_edges], weights=weights,
        )
        if want.sum() < 1.0 - 1e-3:
            with pytest.raises(GridTooSmall):
                grid.mass(cloud)
        else:
            got = grid.mass(cloud)
            assert np.array_equal(got, want)
            assert got.sum() == want.sum()


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


def kl_with_scipy_stats(mass, approx, grid):
    """The gridded KL with the density from scipy.stats.multivariate_normal."""
    marg_mean = approx.mean[[0, 1]]
    marg_cov = approx.cov[np.ix_([0, 1], [0, 1])]
    mx, my = grid.midpoints()
    points = np.stack(np.meshgrid(mx, my, indexing="ij"), axis=-1).reshape(-1, 2)
    try:
        density = scipy.stats.multivariate_normal.pdf(points, mean=marg_mean, cov=marg_cov)
    except (np.linalg.LinAlgError, ValueError):
        return float("inf")
    q = np.maximum(density * grid.cell_area, 1e-300)
    p = mass.reshape(-1)
    occupied = p > 0.0
    return float(np.sum(p[occupied] * np.log(p[occupied] / q[occupied])))


# scipy's cut for a numerically singular covariance: the smallest eigenvalue
# at most 1e6 * eps times the largest in magnitude.
SINGULAR_CUT = 1e6 * np.finfo(float).eps
REFERENCE = ParticleCloud.uniform(
    np.random.default_rng(11).multivariate_normal([0.0, 0.0], np.eye(2), size=2_000)
)
REFERENCE_GRID = Grid2D.from_cloud(REFERENCE)
REFERENCE_MASS = REFERENCE_GRID.mass(REFERENCE)
REFERENCE_CONTEXT = REFERENCE_GRID.kl_context(REFERENCE)


class TestKlDivergenceMass:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        dim=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        largest=st.floats(1e-2, 1e2),
        ratio=st.one_of(
            st.floats(-14.0, 0.0).map(lambda e: 10.0**e),
            st.floats(0.5, 2.0).map(lambda f: f * SINGULAR_CUT),
            st.sampled_from([0.0, -1e-12]),
        ),
    )
    def test_equals_scipy_stats_density(self, dim, seed, largest, ratio):
        # ratio 0 is a zero eigenvalue, and -1e-12 a negative one inside the
        # slack GaussianState accepts; both must give inf on both sides.
        rng = np.random.default_rng(seed)
        plane = random_cov(2, rng, [largest, ratio * largest])
        rest = random_cov(dim - 2, rng, rng.uniform(0.1, 10.0, size=dim - 2))
        cov = scipy.linalg.block_diag(plane, rest)
        approx = GaussianState(rng.normal(scale=0.5, size=dim), cov)
        got = kl_divergence_mass(REFERENCE_CONTEXT, approx)
        assert got == kl_with_scipy_stats(REFERENCE_MASS, approx, REFERENCE_GRID)


def kl_full_grid(mass, approx, grid):
    """The gridded KL that the occupied-cell context replaced: the density at
    all cells of the grid, then the sum over the occupied ones."""
    marg_mean = approx.mean[[0, 1]]
    marg_cov = approx.cov[np.ix_([0, 1], [0, 1])]
    if not (np.isfinite(marg_mean).all() and np.isfinite(marg_cov).all()):
        return float("inf")
    mx, my = grid.midpoints()
    points = np.stack(np.meshgrid(mx, my, indexing="ij"), axis=-1).reshape(-1, 2)
    w, u = _sym_eig(dsyevr, marg_cov, True)
    if w[0] <= SINGULAR_CUT * np.abs(w).max():
        return float("inf")
    white = (points - marg_mean) @ np.multiply(u, np.sqrt(1.0 / w))
    maha = np.sum(np.square(white), axis=-1)
    density = np.exp(-0.5 * (2 * np.log(2 * np.pi) + np.sum(np.log(w)) + maha))
    q = np.maximum(density * grid.cell_area, 1e-300)
    p = mass.reshape(-1)
    occupied = p > 0.0
    return float(np.sum(p[occupied] * np.log(p[occupied] / q[occupied])))


class TestKlContext:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 5, 60, 700, 20_000]),
        cloud=st.sampled_from(["gaussian", "clusters", "heavy", "point"]),
        skew=st.floats(0.0, 8.0),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        approx=st.sampled_from(["near", "far", "tight", "wide", "singular", "nan"]),
        dim=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_occupied_cells_give_the_full_grid_bits(
        self, n, cloud, skew, scale, approx, dim, seed
    ):
        # Sparse occupancy comes from few particles, tight clusters, heavy
        # tails and skewed weights; singular and non-finite Gaussians give inf.
        rng = np.random.default_rng(seed)
        if cloud == "gaussian":
            particles = rng.normal(size=(n, dim))
        elif cloud == "clusters":
            centres = rng.normal(scale=20.0, size=(3, dim))
            particles = centres[rng.integers(3, size=n)] + 0.01 * rng.normal(size=(n, dim))
        elif cloud == "heavy":
            particles = rng.standard_cauchy(size=(n, dim))
        else:
            particles = np.tile(rng.normal(size=dim), (n, 1))
        particles *= scale
        weights = np.exp(skew * rng.normal(size=n))
        reference = ParticleCloud(particles, weights / weights.sum())
        grid = Grid2D.from_cloud(reference)
        mass = grid.mass(reference)
        context = grid.kl_context(reference)
        assert np.array_equal(context.grid.x_edges, grid.x_edges)
        assert np.array_equal(context.grid.y_edges, grid.y_edges)
        assert np.array_equal(context.mass, mass[mass > 0.0])

        mean = reference.mean() + scale * rng.normal(size=dim) * (approx == "far") * 5.0
        spread = {"tight": 1e-3, "wide": 1e2}.get(approx, 1.0) * scale**2
        ratio = 0.0 if approx == "singular" else rng.uniform(0.05, 1.0)
        plane = random_cov(2, rng, [spread, ratio * spread])
        cov = scipy.linalg.block_diag(plane, spread * np.eye(dim - 2))
        state = GaussianState(mean, cov)
        if approx == "nan":
            object.__setattr__(state, "mean", np.where(np.arange(dim) == 1, np.nan, mean))
        got = kl_divergence_mass(context, state)
        want = kl_full_grid(mass, state, grid)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
        assert (got == np.inf) == (approx in ("singular", "nan"))
        assert kl_divergence_grid(reference, state, grid) == got

    def test_only_occupied_cells_in_row_major_order(self):
        cloud = ParticleCloud.uniform([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        grid = Grid2D(x_edges=np.linspace(0.0, 1.0, 3), y_edges=np.linspace(0.0, 2.0, 5))
        context = grid.kl_context(cloud)
        # Cells (0, 0), (0, 2), (1, 0) and (1, 2), flat 0, 2, 4 and 6.
        np.testing.assert_array_equal(
            context.points, [[0.25, 0.25], [0.25, 1.25], [0.75, 0.25], [0.75, 1.25]]
        )
        np.testing.assert_array_equal(context.mass, [0.25] * 4)

    def test_too_small_a_grid_fails_when_the_context_is_built(self):
        cloud = ParticleCloud.uniform(np.random.default_rng(12).normal(size=(500, 2)))
        tiny = Grid2D(x_edges=np.linspace(-0.1, 0.1, 11), y_edges=np.linspace(-0.1, 0.1, 11))
        with pytest.raises(GridTooSmall):
            tiny.kl_context(cloud)
