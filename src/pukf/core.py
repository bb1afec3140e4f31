"""Gaussian belief containers and the dense linear-algebra primitives.

Everything downstream (linearization, decorrelation, the partitioned filter,
the baselines) builds on the three value types and two matrix operations
defined here.  Covariances are symmetrized on construction and validated
PSD so that numerical asymmetry cannot accumulate across filter steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevd

from .errors import (
    EigenSolverFailure,
    NonFiniteEvaluation,
    NonSymmetricInput,
    NotPositiveSemiDefinite,
    SingularInnovation,
)

__all__ = [
    "GaussianState",
    "MeasurementModel",
    "LinearStateModel",
    "matrix_sqrt",
    "sym_eig_ascending",
    "symmetrize",
]

# Relative eigenvalue slack when validating PSD covariances: roundoff from
# repeated P - K S K' updates can leave eigenvalues slightly negative.
PSD_SLACK = 1e-9

# Innovation matrices with condition estimates above this are treated as
# singular rather than solved.
COND_LIMIT = 1e12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """The symmetric part (A + A') / 2 of a square matrix, halved first: finite for finite A."""
    h = 0.5 * a
    return h + h.T


def _square(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _covariance(a, name: str) -> np.ndarray:
    m = _square(a, name)
    if not m.size:  # LAPACK factors a 0 x 0 matrix with info 0
        raise ValueError(f"{name} must be at least 1 x 1, got shape {m.shape}")
    return m


def _sym_eig(driver, a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and Fortran-ordered eigenvectors of a symmetric lower
    triangle from one LAPACK call, with the bits of numpy.linalg.eigh (``dsyevd``)
    or scipy.linalg.eigh (``dsyevr``); a failed call raises EigenSolverFailure."""
    w, v, *_, info = driver(a, compute_v=int(vectors), lower=1)
    if info != 0:
        raise EigenSolverFailure(f"symmetric eigensolver failed (LAPACK info {info})")
    return w, v


def _eig_sqrt(cov: np.ndarray) -> np.ndarray:
    """The eigen square root u sqrt|w|, u C-contiguous as numpy.linalg.eigh's, for its bits."""
    w, u = _sym_eig(dsyevd, cov, True)
    return np.ascontiguousarray(u) * np.sqrt(abs(w))


def _check_psd(cov: np.ndarray, name: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The one PSD rule: the symmetrized, finite covariance and its ``dpotrf`` factor, or None
    where only the eigenvalue rule (w_min >= -PSD_SLACK w_max) accepts it; else it raises."""
    cov = symmetrize(_covariance(cov, name))
    if not np.isfinite(cov).all():
        raise NotPositiveSemiDefinite(f"{name} contains non-finite entries")
    factor, info = dpotrf(cov, lower=1, clean=1)
    if info == 0:
        return cov, np.ascontiguousarray(factor)
    w = _sym_eig(dsyevd, cov, False)[0]
    if w[0] < -PSD_SLACK * max(w[-1], 0.0):
        raise NotPositiveSemiDefinite(
            f"{name} has eigenvalue {w[0]:.3e} below the PSD tolerance "
            f"(largest eigenvalue {w[-1]:.3e})"
        )
    return cov, None


@dataclass(frozen=True)
class GaussianState:
    """Gaussian belief N(mean, cov) over an n-dimensional state.

    A non-finite mean raises NonFiniteEvaluation.  The covariance, symmetrized,
    must be PSD up to a relative slack of 1e-9 on its smallest eigenvalue, and
    :attr:`sqrt_cov` is the Cholesky factor that validated it, or its eigen root.
    """

    mean: np.ndarray
    cov: np.ndarray
    _cholesky: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if not np.isfinite(mean).all():
            raise NonFiniteEvaluation("mean contains non-finite entries")
        cov, factor = _check_psd(self.cov, "state covariance")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has dimension {mean.shape[0]} but covariance is {cov.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_cholesky", factor)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def sqrt_cov(self) -> np.ndarray:
        """``matrix_sqrt(cov)``: the kept factor (its bits), or else the eigen root."""
        return _eig_sqrt(self.cov) if self._cholesky is None else self._cholesky


@dataclass(frozen=True)
class MeasurementModel:
    """A realized measurement: nonlinear map, observed value, noise covariance.

    Parameters
    ----------
    func : callable
        Deterministic vectorized map from states (N, n) to measurements
        (N, d), one row per state.  Must be finite wherever the filters
        probe it.
    value : array_like, shape (d,)
        The realized measurement.
    noise_cov : array_like, shape (d, d)
        Additive Gaussian noise covariance: it passes the check of a
        :class:`GaussianState` covariance and has a Cholesky factor, kept as
        the derived, unsettable ``sqrt_noise`` (:func:`matrix_sqrt`'s bits).
    """

    func: Callable[[np.ndarray], np.ndarray]
    value: np.ndarray
    noise_cov: np.ndarray
    sqrt_noise: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        value = np.atleast_1d(np.asarray(self.value, dtype=float))
        if value.ndim != 1:
            raise ValueError(f"measurement value must be a vector, got {value.shape}")
        noise, sqrt_noise = _check_psd(self.noise_cov, "measurement noise covariance")
        if noise.shape[0] != value.shape[0]:
            raise ValueError(
                f"value has dimension {value.shape[0]} but noise is {noise.shape}"
            )
        if sqrt_noise is None:
            raise NotPositiveSemiDefinite("measurement noise covariance is not positive definite")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "noise_cov", noise)
        object.__setattr__(self, "sqrt_noise", sqrt_noise)

    @property
    def dim(self) -> int:
        return self.value.shape[0]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """``func`` at each row of ``points`` (N, n), as an (N, d) array.
        Raises ValueError on any other shape, so a map that does not
        vectorize fails here; finiteness is not checked."""
        ys = np.asarray(self.func(points), dtype=float)
        want = (len(points), self.dim)
        if ys.shape != want:
            raise ValueError(f"measurement map returned shape {ys.shape}, expected {want}")
        return ys


@dataclass(frozen=True)
class AnalyticMeasurementModel(MeasurementModel):
    """Measurement model carrying closed-form first and second derivatives.

    At one state x (n,), ``jacobian(x)`` returns the (d, n) Jacobian and
    ``hessians(x)`` the (d, n, n) stack of per-component Hessians.  Required by the baselines
    that linearize analytically (EKF, analytic EKF2, IEKF, RUF).
    """

    jacobian: Callable[[np.ndarray], np.ndarray] = field(kw_only=True, default=None)
    hessians: Callable[[np.ndarray], np.ndarray] = field(kw_only=True, default=None)

    def __post_init__(self):
        super().__post_init__()
        if self.jacobian is None:
            raise ValueError("AnalyticMeasurementModel requires a jacobian callable")


@dataclass(frozen=True)
class LinearStateModel:
    """Linear-Gaussian dynamics x' = F x + w,  w ~ N(0, W)."""

    transition: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        trans = _square(self.transition, "transition matrix")
        noise = _check_psd(self.noise_cov, "process noise covariance")[0]
        if noise.shape != trans.shape:
            raise ValueError(
                f"transition is {trans.shape} but process noise is {noise.shape}"
            )
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "noise_cov", noise)

    @property
    def dim(self) -> int:
        return self.transition.shape[0]

    def predict(self, state: GaussianState) -> GaussianState:
        """Exact linear prediction N(F m, F P F' + W)."""
        f = self.transition
        return GaussianState(f @ state.mean, f @ state.cov @ f.T + self.noise_cov)


def matrix_sqrt(cov: np.ndarray) -> np.ndarray:
    """A square root S, S S' = cov: the C-contiguous LAPACK ``dpotrf`` factor (lower,
    non-negative diagonal) or, where that fails, ``sample_gaussian``'s u sqrt|w|.

    An asymmetry above 1e-12 relative to the largest entry raises NonSymmetricInput; the
    symmetrized matrix then passes :class:`GaussianState`'s check or raises as it does.
    """
    cov = _covariance(cov, "covariance")
    asym = np.abs(cov - cov.T).max()
    if asym > 1e-12 * (1.0 + np.abs(cov).max()):
        raise NonSymmetricInput(f"covariance asymmetry {asym:.3e} exceeds tolerance")
    cov, factor = _check_psd(cov, "covariance")
    return _eig_sqrt(cov) if factor is None else factor


def sym_eig_ascending(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix with a fixed convention.

    Returns ``(U, w)`` with eigenvalues ``w`` sorted ascending and the
    columns of ``U`` orthonormal eigenvectors.  Each column's sign is
    canonicalized so that its largest-magnitude entry is positive (first
    occurrence wins on ties), which makes downstream transforms
    reproducible across runs.

    Raises
    ------
    NonSymmetricInput
        If the asymmetry exceeds 1e-10 relative to the largest entry.
    """
    s = _square(s, "matrix")
    scale = 1.0 + (np.abs(s).max() if s.size else 0.0)
    asym = np.abs(s - s.T).max() if s.size else 0.0
    if asym > 1e-10 * scale:
        raise NonSymmetricInput(f"asymmetry {asym:.3e} exceeds 1e-10 relative tolerance")
    return _eig_ascending(symmetrize(s))


def _eig_ascending(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_eig_ascending`, unchecked: for finite symmetric matrices the package built."""
    w, u = _sym_eig(dsyevd, s, True)
    u = np.ascontiguousarray(u)  # Fortran order sends later matmuls down other BLAS paths
    if u.size:
        flip = u[np.abs(u).argmax(axis=0), np.arange(len(u))] < 0.0
        u *= np.where(flip, -1.0, 1.0)
    return u, w


def _solve_spd(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve S X = B for a symmetric positive-definite float array S.

    Used for innovation solves; raises SingularInnovation when the 2-norm
    condition w_max/w_min of S (inf unless w_min > 0) exceeds COND_LIMIT or
    the factorization fails, so filters never invert a near-singular innovation.
    """
    if not np.isfinite(s).all():
        raise SingularInnovation("innovation covariance contains non-finite entries")
    w = _sym_eig(dsyevd, s, False)[0]
    cond = w[-1] / w[0] if w[0] > 0.0 else np.inf
    if cond > COND_LIMIT:
        raise SingularInnovation(
            f"innovation covariance condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )
    c, info = dpotrf(s, lower=1, clean=0)
    if info != 0:
        raise SingularInnovation("innovation covariance factorization failed")
    return dpotrs(c, b, lower=1)[0]


def _correct(mean, cov, residual, s, cross) -> tuple[np.ndarray, np.ndarray]:
    """Kalman correction shared by every Gaussian update in the package.

    With innovation covariance S (symmetrized here) and cross covariance
    C, the gain is K = C inv(S) and the result is (mean + K r, P - K S K')
    as plain arrays, so iterating callers validate no intermediate state.
    Raises NonFiniteEvaluation if the residual r is not finite.
    """
    if not np.isfinite(residual).all():
        raise NonFiniteEvaluation("measurement residual contains non-finite entries")
    s = symmetrize(s)
    gain = _solve_spd(s, cross.T).T
    return mean + gain @ residual, symmetrize(cov - gain @ s @ gain.T)
