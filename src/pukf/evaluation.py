"""Accuracy and consistency metrics for filter estimates.

Three views of estimate quality: raw error quantiles across Monte Carlo
runs, empirical coverage of the filter's own confidence ellipsoids, and a
gridded KL divergence from a dense particle reference to the filter's
Gaussian, which penalizes both misplaced and overconfident posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.stats import chi2, multivariate_normal

from .baselines import ParticleCloud
from .core import GaussianState
from .errors import EmptySample, GridTooSmall, SingularCovariance

__all__ = [
    "DEFAULT_PROBS",
    "error_quantiles",
    "ellipsoid_coverage",
    "Grid2D",
    "kl_divergence_grid",
    "kl_divergence_mass",
]

DEFAULT_PROBS = (0.05, 0.25, 0.50, 0.75, 0.95)

# A gridded-KL estimate never drops meaningfully below zero; anything under
# this floor indicates a broken reference or grid.
KL_NOISE_FLOOR = -0.05

_DENSITY_FLOOR = 1e-300

# The KL grid covers the position plane (state dimensions 0 and 1) with
# GRID_CELLS x GRID_CELLS cells, padded by GRID_PAD_SIGMAS weighted standard
# deviations beyond the particle extent.
_PLANE = [0, 1]
GRID_CELLS = 50
GRID_PAD_SIGMAS = 3.0


def error_quantiles(errors, probs=DEFAULT_PROBS) -> np.ndarray:
    """Quantiles of an error sample with linear interpolation.

    Raises EmptySample for an empty input.  Output is non-decreasing in
    the requested probabilities.
    """
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise EmptySample("cannot take quantiles of an empty error sample")
    return np.quantile(arr, probs)


def ellipsoid_coverage(
    truth: np.ndarray, estimate: GaussianState, probs=DEFAULT_PROBS
) -> np.ndarray:
    """Whether the truth falls strictly inside each confidence ellipsoid.

    The p-ellipsoid of N(mu, P) contains x iff the chi-squared CDF (with
    dim degrees of freedom) of the squared Mahalanobis distance is
    strictly below p.  Returns one bool per entry of ``probs``.
    """
    truth = np.asarray(truth, dtype=float)
    diff = estimate.mean - truth
    try:
        c, low = scipy.linalg.cho_factor(estimate.cov, lower=True)
    except (scipy.linalg.LinAlgError, ValueError):
        raise SingularCovariance(
            "estimate covariance cannot be factorized for a Mahalanobis norm"
        ) from None
    m2 = float(diff @ scipy.linalg.cho_solve((c, low), diff))
    level = chi2.cdf(m2, df=estimate.dim)
    return np.array([level < p for p in probs])


@dataclass(frozen=True)
class Grid2D:
    """Rectangular histogram grid over the position plane."""

    x_edges: np.ndarray
    y_edges: np.ndarray

    @classmethod
    def from_cloud(cls, cloud: ParticleCloud) -> "Grid2D":
        """Bounds from particle min/max padded by GRID_PAD_SIGMAS weighted stds."""
        pos = cloud.particles[:, _PLANE]
        mean = cloud.weights @ pos
        var = cloud.weights @ (pos - mean) ** 2
        pad = GRID_PAD_SIGMAS * np.sqrt(np.maximum(var, 0.0))
        lo = pos.min(axis=0) - pad
        hi = pos.max(axis=0) + pad
        span = hi - lo
        # Degenerate clouds (all particles identical) still need a box.
        lo = np.where(span > 0.0, lo, lo - 1e-6)
        hi = np.where(span > 0.0, hi, hi + 1e-6)
        return cls(
            x_edges=np.linspace(lo[0], hi[0], GRID_CELLS + 1),
            y_edges=np.linspace(lo[1], hi[1], GRID_CELLS + 1),
        )

    @property
    def cell_area(self) -> float:
        return float(
            (self.x_edges[1] - self.x_edges[0]) * (self.y_edges[1] - self.y_edges[0])
        )

    def mass(self, cloud: ParticleCloud) -> np.ndarray:
        """Particle weight per cell, shape (nx, ny).  Raises GridTooSmall
        if more than 0.1% of the weight falls outside the grid."""
        pos = cloud.particles[:, _PLANE]
        mass, _, _ = np.histogram2d(
            pos[:, 0], pos[:, 1], bins=[self.x_edges, self.y_edges], weights=cloud.weights
        )
        inside = mass.sum()
        if inside < 1.0 - 1e-3:
            raise GridTooSmall(f"grid captures only {inside:.6f} of the reference mass")
        return mass

    def midpoints(self) -> tuple[np.ndarray, np.ndarray]:
        mx = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        my = 0.5 * (self.y_edges[:-1] + self.y_edges[1:])
        return mx, my


def kl_divergence_grid(
    reference: ParticleCloud, approx: GaussianState, grid: Grid2D
) -> float:
    """Gridded KL divergence from a particle reference to a Gaussian:
    :func:`kl_divergence_mass` of the reference's :meth:`Grid2D.mass`."""
    return kl_divergence_mass(grid.mass(reference), approx, grid)


def kl_divergence_mass(mass: np.ndarray, approx: GaussianState, grid: Grid2D) -> float:
    """Gridded KL divergence from binned reference mass to a Gaussian.

    ``mass`` is the reference mass per cell from :meth:`Grid2D.mass`; the
    Gaussian mass is the marginal density (over the position plane) at the
    cell midpoint times the cell area, floored at 1e-300.  Cells with no
    reference mass contribute zero.  Returns +inf when the approximation
    is non-finite or its marginal covariance is singular.
    """
    marg_mean = approx.mean[_PLANE]
    marg_cov = approx.cov[np.ix_(_PLANE, _PLANE)]
    if not (np.all(np.isfinite(marg_mean)) and np.all(np.isfinite(marg_cov))):
        return float("inf")
    mx, my = grid.midpoints()
    points = np.stack(np.meshgrid(mx, my, indexing="ij"), axis=-1).reshape(-1, 2)
    try:
        density = multivariate_normal.pdf(points, mean=marg_mean, cov=marg_cov)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
        return float("inf")
    q = np.maximum(np.atleast_1d(density) * grid.cell_area, _DENSITY_FLOOR)
    p = mass.reshape(-1)
    occupied = p > 0.0
    return float(np.sum(p[occupied] * np.log(p[occupied] / q[occupied])))
