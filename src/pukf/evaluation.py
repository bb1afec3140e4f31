"""Accuracy and consistency metrics for filter estimates.

Three views of estimate quality: raw error quantiles across Monte Carlo
runs, empirical coverage of the filter's own confidence ellipsoids, and a
gridded KL divergence from a dense particle reference to the filter's
Gaussian, which penalizes both misplaced and overconfident posteriors.
The last two are closed forms: the chi-squared CDF ``scipy.special.chdtr``
and the bivariate normal density, written out in scipy's order of operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs, dsyevr
from scipy.special import chdtr

from .baselines import ParticleCloud
from .core import GaussianState, _sym_eig
from .errors import EmptySample, GridTooSmall, SingularCovariance

__all__ = [
    "DEFAULT_PROBS",
    "error_quantiles",
    "ellipsoid_coverage",
    "Grid2D",
    "KlContext",
    "kl_divergence_grid",
    "kl_divergence_mass",
]

DEFAULT_PROBS = (0.05, 0.25, 0.50, 0.75, 0.95)

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
    the requested probabilities.  Infinite errors (diverged runs) are
    allowed: a quantile that interpolates towards ``inf`` is ``inf``, and
    one that lands exactly on a sample is that sample.
    """
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise EmptySample("cannot take quantiles of an empty error sample")
    with np.errstate(invalid="ignore"):
        q = np.quantile(arr, probs)
    # Interpolating next to an inf computes inf - inf or inf * 0, which is nan.
    gap = np.isnan(q)
    if np.any(gap):
        at = np.asarray(probs, dtype=float)[gap]
        lo = np.quantile(arr, at, method="lower")
        hi = np.quantile(arr, at, method="higher")
        q[gap] = np.where(lo < hi, np.inf, lo)
    return q


def ellipsoid_coverage(
    truth: np.ndarray, estimate: GaussianState, probs=DEFAULT_PROBS
) -> np.ndarray:
    """Whether the truth falls strictly inside each confidence ellipsoid.

    The p-ellipsoid of N(mu, P) contains x iff the chi-squared CDF (with
    dim degrees of freedom) of the squared Mahalanobis distance is
    strictly below p.  Returns one bool per entry of ``probs``.  The norm
    solves with the estimate's kept Cholesky factor (SingularCovariance if none).
    """
    diff = estimate.mean - np.asarray_chkfinite(truth, dtype=float)
    c = estimate._cholesky
    if c is None:
        raise SingularCovariance(
            "estimate covariance cannot be factorized for a Mahalanobis norm"
        )
    m2 = float(diff @ dpotrs(c, diff, lower=1)[0])
    level = chdtr(estimate.dim, max(m2, 0.0))
    return np.array([level < p for p in probs])


def _cells(v: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index of each value on evenly spaced edges, and the indices of the
    values outside [edges[0], edges[-1]] (NaN too); their cells are meaningless.

    The index comes from the uniform spacing and is then corrected by one
    comparison each way against the edges themselves, so it is the cell
    ``np.histogram2d`` picks: edges[k] <= v < edges[k + 1], or the last
    cell for v == edges[-1].
    """
    cells = edges.size - 1
    outside = np.empty(0, np.intp)
    if not (v.min() >= edges[0] and v.max() <= edges[-1]):
        outside = np.nonzero(~((v >= edges[0]) & (v <= edges[-1])))[0]
    k = (v - edges[0]) * (cells / (edges[-1] - edges[0]))
    k[outside] = 0.0  # before the cast, which warns on NaN
    k = np.minimum(k.astype(np.intp), cells - 1)
    k -= v < edges[k]
    k += v >= np.append(edges[1:-1], np.inf)[k]  # the last cell is closed
    return k, outside


@dataclass(frozen=True)
class Grid2D:
    """Rectangular histogram grid over the position plane."""

    x_edges: np.ndarray
    y_edges: np.ndarray

    @classmethod
    def from_cloud(cls, cloud: ParticleCloud) -> "Grid2D":
        """Bounds from particle min/max padded by GRID_PAD_SIGMAS weighted stds,
        widened evenly to at least +-1e-6 and +-128 ulps, so edges increase."""
        pos = cloud.particles[:, _PLANE]
        mean = cloud.weights @ pos
        var = cloud.weights @ (pos - mean) ** 2
        pad = GRID_PAD_SIGMAS * np.sqrt(np.maximum(var, 0.0))
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        pad = np.where(hi > lo, pad, 0.0)  # not the roundoff of a point's variance
        lo, hi = lo - pad, hi + pad
        least = np.maximum(1e-6, 128 * np.spacing(np.maximum(abs(lo), abs(hi))))
        short = np.maximum(least - 0.5 * (hi - lo), 0.0)
        lo, hi = lo - short, hi + short
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
        if more than 0.1% of the weight falls outside the grid.

        The same bins and bits as ``np.histogram2d`` on evenly spaced,
        strictly increasing edges such as :meth:`from_cloud` builds: cells
        are half-open except the closed last one, and each cell sums its
        weights in particle order with one ``np.bincount``.
        """
        nx, ny = self.x_edges.size - 1, self.y_edges.size - 1
        x, y = (np.ascontiguousarray(cloud.particles[:, axis]) for axis in _PLANE)
        (flat, out_x), (ky, out_y) = _cells(x, self.x_edges), _cells(y, self.y_edges)
        flat *= ny
        flat += ky
        flat[out_x] = flat[out_y] = nx * ny  # one dump bin for everything outside
        mass = np.bincount(flat, cloud.weights, minlength=nx * ny + 1)
        mass = mass[:-1].reshape(nx, ny)
        inside = mass.sum()
        if inside < 1.0 - 1e-3:
            raise GridTooSmall(f"grid captures only {inside:.6f} of the reference mass")
        return mass

    def midpoints(self) -> tuple[np.ndarray, np.ndarray]:
        mx = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        my = 0.5 * (self.y_edges[:-1] + self.y_edges[1:])
        return mx, my

    def kl_context(self, cloud: ParticleCloud) -> "KlContext":
        """The cloud's :class:`KlContext` on this grid; GridTooSmall as :meth:`mass`."""
        mass = self.mass(cloud).reshape(-1)
        cells = np.flatnonzero(mass > 0.0)
        (mx, my), ny = self.midpoints(), self.y_edges.size - 1
        return KlContext(self, np.column_stack((mx[cells // ny], my[cells % ny])), mass[cells])


@dataclass(frozen=True)
class KlContext:
    """One step's reference for :func:`kl_divergence_mass`, built once for every filter: the
    grid, and the midpoints (k, 2) and mass (k,) of its occupied cells in row-major order."""

    grid: Grid2D
    points: np.ndarray
    mass: np.ndarray


def kl_divergence_grid(reference: ParticleCloud, approx: GaussianState, grid: Grid2D) -> float:
    """:func:`kl_divergence_mass` of a particle reference's :class:`KlContext` on ``grid``."""
    return kl_divergence_mass(grid.kl_context(reference), approx)


def kl_divergence_mass(context: KlContext, approx: GaussianState) -> float:
    """Gridded KL divergence from a step's binned reference mass to a Gaussian: the
    sum of p log(p / q) over the context's occupied cells, p their reference mass and
    q the marginal density (over the position plane) at their midpoints times the cell
    area, floored at 1e-300.  +inf when the approximation is non-finite or its marginal
    covariance singular: its smallest eigenvalue is at most 1e6 * eps times its largest
    in magnitude."""
    marg_mean = approx.mean[_PLANE]
    marg_cov = approx.cov[np.ix_(_PLANE, _PLANE)]
    if not (np.isfinite(marg_mean).all() and np.isfinite(marg_cov).all()):
        return float("inf")
    w, u = _sym_eig(dsyevr, marg_cov, True)  # scipy.linalg.eigh's driver and bits
    if w[0] <= 1e6 * np.finfo(float).eps * np.abs(w).max():
        return float("inf")
    # C-ordered, so that one occupied cell takes the bits of a row of the full grid
    white = (context.points - marg_mean) @ np.multiply(u, np.sqrt(1.0 / w), order="C")
    maha = np.sum(np.square(white), axis=-1)
    density = np.exp(-0.5 * (2 * np.log(2 * np.pi) + np.sum(np.log(w)) + maha))
    q = np.maximum(density * context.grid.cell_area, _DENSITY_FLOOR)
    return float(np.sum(context.mass * np.log(context.mass / q)))
