"""Derivative-free second-order statistical linearization and EKF2 moments.

The central object is :func:`linearize`, which probes a nonlinear map at
symmetric sigma-like points and recovers

* ``M``    -- the Jacobian right-multiplied by the covariance square root,
* ``Q[k]`` -- the per-output Hessian congruence-transformed by the square
  root, entry by entry from second differences.

Both are exact (no truncation error) whenever the map is polynomial of
degree at most two, for any probe scale gamma.  The trace statistics
``xi[k] = tr(Q[k])`` and ``Xi[k, l] = tr(Q[k] Q[l])`` are then the
second-order bias and spread corrections that turn a first-order update
into an EKF2-style update without any analytic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianState, MeasurementModel, _correct, matrix_sqrt
from .errors import NonFiniteEvaluation

__all__ = [
    "GAMMA_DEFAULT",
    "LinearizationSummary",
    "linearize",
    "ekf2_update",
    "ekf2_update_numerical",
]

# Probe scale that matches the fourth moment of a Gaussian, so the diagonal
# second differences are unbiased for quartic terms as well.
GAMMA_DEFAULT = math.sqrt(3.0)


@dataclass(frozen=True)
class LinearizationSummary:
    """Second-order probe statistics of a map at a given belief.

    Attributes
    ----------
    M : ndarray, shape (d, n)
        Central-difference estimate of J @ sqrt_cov.
    Q : ndarray, shape (d, n, n)
        Per-output symmetric second-difference matrices, estimates of
        sqrt_cov' @ H_k @ sqrt_cov.
    xi : ndarray, shape (d,)
        Second-order mean corrections, xi[k] = trace(Q[k]).
    Xi : ndarray, shape (d, d)
        Second-order spread corrections, Xi[k, l] = trace(Q[k] @ Q[l]).
        Symmetric PSD by construction.
    h_at_mean : ndarray, shape (d,)
        The map evaluated at the linearization mean.
    sqrt_cov : ndarray, shape (n, n)
        The covariance square root the probes were scaled by.
    """

    M: np.ndarray
    Q: np.ndarray
    xi: np.ndarray
    Xi: np.ndarray
    h_at_mean: np.ndarray
    sqrt_cov: np.ndarray


def _eval(evaluate, points):
    ys = evaluate(points)
    bad = ~np.isfinite(ys).all(axis=1)
    if np.any(bad):
        raise NonFiniteEvaluation(
            f"function returned a non-finite value at probe point {points[bad][0]}"
        )
    return ys


def linearize(
    evaluate, mean: np.ndarray, sqrt_cov: np.ndarray, gamma: float = GAMMA_DEFAULT
) -> LinearizationSummary:
    """Probe a map around ``mean`` and assemble second-order statistics.

    Parameters
    ----------
    evaluate : callable
        Vectorized map from (N, n) states to (N, d) values, typically
        :meth:`MeasurementModel.evaluate` (the model's ``func``, shape
        checked); called once, on all 1 + 2n + n(n-1)/2 probes: mean,
        mean +- g_i and (mean + g_i) + g_j for i < j.
    mean : ndarray, shape (n,)
        Expansion point.
    sqrt_cov : ndarray, shape (n, n)
        Square root of the covariance (typically from :func:`matrix_sqrt`);
        the probe offsets g_i are gamma times its columns.
    gamma : float
        Positive finite probe scale.  The default sqrt(3) matches the Gaussian
        fourth moment.

    Raises
    ------
    NonFiniteEvaluation
        If any probe returns NaN or infinity.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be a positive finite number, got {gamma}")
    mean = np.asarray(mean, dtype=float)
    sqrt_cov = np.asarray(sqrt_cov, dtype=float)
    n = mean.shape[0]
    delta = gamma * sqrt_cov.T  # row i is the i-th probe offset
    i, j = np.triu_indices(n, 1)
    plus_points = mean + delta
    stencil = np.vstack([mean, plus_points, mean - delta, plus_points[i] + delta[j]])

    ys = _eval(evaluate, stencil)
    h0, plus, minus, cross = ys[0], ys[1 : n + 1], ys[n + 1 : 2 * n + 1], ys[2 * n + 1 :]

    M = (plus - minus).T / (2.0 * gamma)

    g2 = gamma * gamma
    Q = np.empty((h0.shape[0], n, n))
    Q[:, range(n), range(n)] = ((plus + minus - 2.0 * h0) / g2).T
    Q[:, i, j] = Q[:, j, i] = ((cross - plus[i] - plus[j] + h0) / g2).T

    xi = np.trace(Q, axis1=1, axis2=2)
    Xi = np.einsum("kij,lij->kl", Q, Q)
    Xi = np.triu(Xi) + np.triu(Xi, 1).T  # exactly symmetric
    return LinearizationSummary(
        M=M, Q=Q, xi=xi, Xi=Xi, h_at_mean=h0, sqrt_cov=sqrt_cov
    )


def ekf2_update(
    prior: GaussianState, model: MeasurementModel, lin: LinearizationSummary
) -> GaussianState:
    """Second-order measurement update from probe statistics.

    ``lin`` must have been computed at the prior mean.  With its square
    root sqrtP the update is

        yhat = h(mu) + xi/2
        S    = M M' + Xi/2 + R
        K    = sqrtP M' inv(S)
        mu+  = mu + K (y - yhat)
        P+   = P - K S K'

    Raises SingularInnovation if S cannot be solved.
    """
    yhat = lin.h_at_mean + 0.5 * lin.xi
    s = lin.M @ lin.M.T + 0.5 * lin.Xi + model.noise_cov
    return GaussianState(
        *_correct(prior.mean, prior.cov, model.value - yhat, s, lin.sqrt_cov @ lin.M.T)
    )


def ekf2_update_numerical(
    prior: GaussianState, model: MeasurementModel
) -> GaussianState:
    """Convenience wrapper: linearize at the prior, then update."""
    lin = linearize(model.evaluate, prior.mean, matrix_sqrt(prior.cov))
    return ekf2_update(prior, model, lin)
