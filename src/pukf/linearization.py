"""Derivative-free second-order statistical linearization and EKF2 moments.

The central object is :func:`linearize`, which probes a nonlinear map at
symmetric sigma-like points and recovers

* ``M``    -- the Jacobian right-multiplied by the covariance square root,
* ``Q[k]`` -- the per-output Hessian congruence-transformed by the square
  root, entry by entry from second differences.

Both are exact (no truncation error) whenever the map is polynomial of
degree at most two, whatever the constant probe scale.  The trace statistics
``xi[k] = tr(Q[k])`` and ``Xi[k, l] = tr(Q[k] Q[l])`` are then the
second-order bias and spread corrections that turn a first-order update
into an EKF2-style update without any analytic derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianState, MeasurementModel, _correct
from .errors import NonFiniteEvaluation

__all__ = [
    "GAMMA",
    "LinearizationSummary",
    "linearize",
    "ekf2_update_numerical",
]

# Probe scale that matches the fourth moment of a Gaussian, so the diagonal
# second differences are unbiased for quartic terms as well (Norgaard 2000).
GAMMA = math.sqrt(3.0)


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
    """

    M: np.ndarray
    Q: np.ndarray
    xi: np.ndarray
    Xi: np.ndarray
    h_at_mean: np.ndarray


def _eval(evaluate, points):
    ys = evaluate(points)
    bad = ~np.isfinite(ys).all(axis=1)
    if np.any(bad):
        raise NonFiniteEvaluation(
            f"function returned a non-finite value at probe point {points[bad][0]}"
        )
    return ys


@functools.cache  # one entry per state dimension, read-only as every call shares it
def _probe_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    indices = (np.arange(n), *np.triu_indices(n, 1))
    for a in indices:
        a.setflags(write=False)
    return indices


def linearize(evaluate, mean: np.ndarray, sqrt_cov: np.ndarray) -> LinearizationSummary:
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
        Square root of the covariance (typically ``GaussianState.sqrt_cov``);
        the probe offsets g_i are GAMMA times its columns.

    Raises
    ------
    NonFiniteEvaluation
        If any probe returns NaN or infinity.
    """
    mean = np.asarray(mean, dtype=float)
    sqrt_cov = np.asarray(sqrt_cov, dtype=float)
    n = mean.shape[0]
    delta = GAMMA * sqrt_cov.T  # row i is the i-th probe offset
    diag, i, j = _probe_indices(n)
    plus_points = mean + delta
    stencil = np.vstack([mean, plus_points, mean - delta, plus_points[i] + delta[j]])

    ys = _eval(evaluate, stencil)
    h0, plus, minus, cross = ys[0], ys[1 : n + 1], ys[n + 1 : 2 * n + 1], ys[2 * n + 1 :]

    M = (plus - minus).T / (2.0 * GAMMA)

    Q = np.empty((h0.shape[0], n, n))
    Q[:, diag, diag] = ((plus + minus - 2.0 * h0) / (GAMMA * GAMMA)).T
    Q[:, i, j] = Q[:, j, i] = ((cross - plus[i] - plus[j] + h0) / (GAMMA * GAMMA)).T

    xi = Q.trace(axis1=1, axis2=2)
    Xi = np.einsum("kij,lij->kl", Q, Q)  # (k, l), (l, k): same products, same order
    return LinearizationSummary(M=M, Q=Q, xi=xi, Xi=Xi, h_at_mean=h0)


def ekf2_update_numerical(prior: GaussianState, model: MeasurementModel) -> GaussianState:
    """Second-order measurement update from probe statistics at the prior.

    With sqrtP the prior covariance square root and the probe statistics
    of ``linearize(model.evaluate, mu, sqrtP)``, the update is

        yhat = h(mu) + xi/2
        S    = M M' + Xi/2 + R
        K    = sqrtP M' inv(S)
        mu+  = mu + K (y - yhat)
        P+   = P - K S K'

    Raises SingularInnovation if S cannot be solved.
    """
    sqrt_p = prior.sqrt_cov
    lin = linearize(model.evaluate, prior.mean, sqrt_p)
    yhat = lin.h_at_mean + 0.5 * lin.xi
    s = lin.M @ lin.M.T + 0.5 * lin.Xi + model.noise_cov
    return GaussianState(
        *_correct(prior.mean, prior.cov, model.value - yhat, s, sqrt_p @ lin.M.T)
    )
