"""Measurement decorrelation that minimizes elementwise nonlinearity.

A measurement model can be mixed by any invertible matrix D without
changing the (second-order) posterior, but the amount of nonlinearity
carried by each transformed element does change.  Whitening the noise and
then rotating into the eigenbasis of the whitened spread correction Xi
makes the transformed noise the identity and the per-element nonlinearity
the (ascending) eigenvalues, which is the minimizing ordering: no other
orthonormal mixing gives its first element less nonlinearity than the
smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrs

from .core import MeasurementModel, _check_psd, _eig_ascending, _square, symmetrize
from .errors import NonFiniteEvaluation, NotPositiveSemiDefinite, SingularNoiseSqrt

__all__ = [
    "DecorrelationResult",
    "nonlinearity",
    "decorrelate",
    "transform_model",
]


@dataclass(frozen=True)
class DecorrelationResult:
    """Outcome of a decorrelation pass.

    Attributes
    ----------
    D : ndarray, shape (d, d)
        Invertible transform; D R D' = I and D Xi D' = diag(lambdas).
    lambdas : ndarray, shape (d,)
        Per-element nonlinearity of the transformed model, ascending.
        Negative eigenvalues from roundoff are clamped to zero.
    split_k : int
        Number of leading elements at or below the threshold, forced to at
        least 1 so a partitioned update always makes progress.
    """

    D: np.ndarray
    lambdas: np.ndarray
    split_k: int


def nonlinearity(Xi: np.ndarray, noise_cov: np.ndarray) -> float:
    """Total nonlinearity trace(inv(R) Xi) of a model at a given belief.

    Invariant under invertible re-mixing of the measurement vector, so it
    measures how non-quadratic-free the model is regardless of
    parametrization.  Raises ValueError on a non-finite Xi and, as a
    :class:`MeasurementModel` does, NotPositiveSemiDefinite on a noise
    covariance that fails the PSD check or has no Cholesky factor.
    """
    factor = _check_psd(noise_cov, "noise covariance")[1]
    if factor is None:
        raise NotPositiveSemiDefinite("noise covariance is not positive definite")
    return float(dpotrs(factor, np.asarray_chkfinite(Xi, dtype=float), lower=1)[0].trace())


def decorrelate(
    Xi: np.ndarray,
    sqrt_noise: Optional[np.ndarray],
    threshold: float,
) -> DecorrelationResult:
    """Find the transform that diagonalizes the whitened spread correction.

    Parameters
    ----------
    Xi : ndarray, shape (d, d)
        Symmetric PSD spread-correction matrix from a linearization.
    sqrt_noise : ndarray or None
        Lower-triangular square root of the measurement noise covariance; a
        non-finite entry raises NonFiniteEvaluation in the whitened matrix.
        ``None`` means the noise is already the identity and the whitening
        solves are skipped.
    threshold : float
        Extended-real nonlinearity cutoff.  split_k counts eigenvalues
        at or below it; -inf forces single-element splits, +inf accepts
        everything in one block.

    Returns
    -------
    DecorrelationResult
        With D = U' inv(sqrt_noise) for the eigenvectors U of
        inv(sqrt_noise) Xi inv(sqrt_noise)'; NonFiniteEvaluation if that is not finite.
    """
    Xi = symmetrize(_square(Xi, "spread correction"))
    if sqrt_noise is None:
        whitened = Xi
    else:
        sqrt_noise = np.asarray(sqrt_noise, dtype=float)  # non-finite: whitened is checked
        diag = np.abs(sqrt_noise.diagonal())
        low = diag.min()
        if not (low > 0.0 and diag.max() / low <= 1e12):  # a NaN fails too
            raise SingularNoiseSqrt("measurement-noise square root is numerically singular")
        # BLAS trsm rather than scipy.linalg.solve_triangular: OpenBLAS runs
        # the LAPACK trtrs behind the latter on its thread pool even for 2x2
        # systems (up to 12 ms a call on a loaded 2-core host), while trsm
        # stays on one thread at these sizes.  For two or more right-hand
        # columns trtrs is this same trsm, so the bits do not change.
        upper = sqrt_noise.T
        half = dtrsm(1.0, upper, Xi, lower=0, trans_a=1)
        whitened = symmetrize(dtrsm(1.0, upper, half.T, lower=0, trans_a=1).T)
    if not np.isfinite(whitened).all():
        raise NonFiniteEvaluation("whitened spread correction contains non-finite entries")
    u, w = _eig_ascending(whitened)
    lambdas = np.maximum(w, 0.0)  # np.clip(w, 0.0, None) is this call
    if sqrt_noise is None:
        d_mat = u.T
    else:
        # D' = inv(sqrt_noise)' U  via a triangular solve
        d_mat = dtrsm(1.0, upper, u, lower=0).T
    split_k = int(np.count_nonzero(lambdas <= threshold))
    if split_k == 0:
        split_k = 1
    return DecorrelationResult(D=d_mat, lambdas=lambdas, split_k=split_k)


def transform_model(model: MeasurementModel, rows: np.ndarray) -> MeasurementModel:
    """Mix a measurement model by a row block: y -> rows @ y.

    The returned model's map is the source's :meth:`MeasurementModel.evaluate`
    mixed by ``rows``; it carries the mixed value and noise covariance.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    evaluate = model.evaluate
    return MeasurementModel(
        func=lambda xs: evaluate(xs) @ rows.T,
        value=rows @ model.value,
        noise_cov=symmetrize(rows @ model.noise_cov @ rows.T),
    )
