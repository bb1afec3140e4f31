"""Baseline estimators: EKF, analytic EKF2, UKF, IEKF, RUF, bootstrap PF.

These are the comparison points for the partitioned filter.  The Kalman-
style updates all finish in the shared correction ``core._correct``; the
differences are only in how the predicted measurement moments are obtained
(first-order Jacobian, second-order traces, sigma points, iteration, or
repeated reduced-weight updates).  The particle filter's step is
``weight_particles`` followed by ``resample``; the harness's particle
reference takes the same two steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    AnalyticMeasurementModel,
    GaussianState,
    LinearStateModel,
    MeasurementModel,
    _correct,
    matrix_sqrt,
    symmetrize,
)
__all__ = [
    "AnalyticMeasurementModel",
    "ParticleCloud",
    "ekf_update",
    "ekf2_update_analytic",
    "unscented_transform",
    "ukf_update",
    "iekf_update",
    "ruf_update",
    "systematic_resample",
    "resample",
    "propagate_particles",
    "log_likelihood",
    "weight_particles",
    "bootstrap_pf_step",
    "sample_gaussian",
]


def _first_order(mean, cov, model: AnalyticMeasurementModel, noise_cov):
    """One first-order pass linearized at ``mean`` against ``noise_cov``:
    S = J P J' + noise_cov, then :func:`core._correct`."""
    jac = np.atleast_2d(model.jacobian(mean))
    residual = model.value - model.evaluate(mean[None])[0]
    s = jac @ cov @ jac.T + noise_cov
    return _correct(mean, cov, residual, s, cov @ jac.T)


def ekf_update(prior: GaussianState, model: AnalyticMeasurementModel) -> GaussianState:
    """First-order extended Kalman update with an analytic Jacobian."""
    return GaussianState(*_first_order(prior.mean, prior.cov, model, model.noise_cov))


def _trace_corrections(cov: np.ndarray, hessians: np.ndarray):
    """xi[k] = tr(P H_k) and Xi[k,l] = tr(P H_k P H_l) from analytic Hessians."""
    ph = np.einsum("ab,kbc->kac", cov, hessians)  # (d, n, n), P @ H_k
    xi = np.trace(ph, axis1=1, axis2=2)
    big_xi = np.einsum("kab,lba->kl", ph, ph)
    return xi, symmetrize(big_xi)


def ekf2_update_analytic(
    prior: GaussianState, model: AnalyticMeasurementModel
) -> GaussianState:
    """Second-order extended Kalman update with analytic derivatives.

    Identical structure to the derivative-free second-order update, but
    with xi and Xi computed from closed-form Hessians instead of probe
    differences.
    """
    if model.hessians is None:
        raise ValueError("ekf2_update_analytic requires a model with hessians")
    jac = np.atleast_2d(model.jacobian(prior.mean))
    hes = np.asarray(model.hessians(prior.mean), dtype=float)
    xi, big_xi = _trace_corrections(prior.cov, hes)
    yhat = model.evaluate(prior.mean[None])[0] + 0.5 * xi
    s = jac @ prior.cov @ jac.T + 0.5 * big_xi + model.noise_cov
    return GaussianState(
        *_correct(prior.mean, prior.cov, model.value - yhat, s, prior.cov @ jac.T)
    )


# Scaled sigma-point parameters (Wan & van der Merwe): a small spread alpha,
# no extra kappa, and beta = 2, which is optimal for a Gaussian prior.  With
# alpha > 0 and kappa = 0, n + lambda = alpha^2 n is always positive.
UKF_ALPHA = 1e-3
UKF_KAPPA = 0.0
UKF_BETA = 2.0


def unscented_transform(evaluate, mean: np.ndarray, cov: np.ndarray):
    """Propagate a Gaussian through a map with 2n+1 scaled sigma points.

    ``evaluate`` maps (N, n) states to (N, d) values, typically
    :meth:`MeasurementModel.evaluate`, and is called once on all the points.
    Returns ``(y_mean, y_cov, xy_cov)``; ``y_cov`` has no additive noise.
    """
    mean = np.asarray(mean, dtype=float)
    n = mean.shape[0]
    lam = UKF_ALPHA**2 * (n + UKF_KAPPA) - n
    spread = matrix_sqrt((n + lam) * np.asarray(cov, dtype=float))
    points = np.vstack([mean, mean + spread.T, mean - spread.T])  # (2n+1, n)

    wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = wm[0] + (1.0 - UKF_ALPHA**2 + UKF_BETA)

    ys = evaluate(points)
    y_mean = wm @ ys
    dy = ys - y_mean
    dx = points - mean
    y_cov = symmetrize(np.einsum("i,ia,ib->ab", wc, dy, dy))
    xy_cov = np.einsum("i,ia,ib->ab", wc, dx, dy)
    return y_mean, y_cov, xy_cov


def ukf_update(prior: GaussianState, model: MeasurementModel) -> GaussianState:
    """Unscented measurement update."""
    y_mean, y_cov, xy_cov = unscented_transform(model.evaluate, prior.mean, prior.cov)
    s = y_cov + model.noise_cov
    return GaussianState(
        *_correct(prior.mean, prior.cov, model.value - y_mean, s, xy_cov)
    )


def iekf_update(
    prior: GaussianState, model: AnalyticMeasurementModel, iterations: int = 10
) -> GaussianState:
    """Iterated EKF: relinearize at the running posterior mean.

    Each pass is a Gauss-Newton step on the MAP objective; with a single
    iteration this is exactly the EKF.  The covariance uses the Jacobian
    from the final iterate.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    mu0 = prior.mean
    x = mu0
    for _ in range(iterations):
        jac = np.atleast_2d(model.jacobian(x))
        s = jac @ prior.cov @ jac.T + model.noise_cov
        residual = model.value - model.evaluate(x[None])[0] - jac @ (mu0 - x)
        x, cov = _correct(mu0, prior.cov, residual, s, prior.cov @ jac.T)
    return GaussianState(x, cov)


def ruf_update(
    prior: GaussianState, model: AnalyticMeasurementModel, steps: int
) -> GaussianState:
    """Recursive update filter: absorb the measurement in ``steps`` passes.

    Each pass is a first-order update against the noise inflated to
    steps * R, relinearized at the mean left by the previous pass.  For a
    linear model the inflation telescopes and the result equals a single
    Kalman update; for nonlinear models the gradual absorption keeps each
    individual linearization closer to valid.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    inflated = float(steps) * model.noise_cov
    mean, cov = prior.mean, prior.cov
    for _ in range(steps):
        mean, cov = _first_order(mean, cov, model, inflated)
    return GaussianState(mean, cov)


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted particle representation of a belief.

    Weights are validated non-negative and normalized to sum to one within
    1e-12.  ``degenerate`` marks a cloud whose weights had to be reset to
    uniform because no particle had a finite log-weight.
    """

    particles: np.ndarray
    weights: np.ndarray
    degenerate: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (particles.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{particles.shape[0]} particles"
            )
        if np.any(weights < 0.0):
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, particles: np.ndarray, **kwargs) -> "ParticleCloud":
        particles = np.atleast_2d(np.asarray(particles, dtype=float))
        n = particles.shape[0]
        return cls(particles, np.full(n, 1.0 / n), **kwargs)

    def mean(self) -> np.ndarray:
        return self.weights @ self.particles

    def cov(self) -> np.ndarray:
        centered = self.particles - self.mean()
        return symmetrize(np.einsum("i,ia,ib->ab", self.weights, centered, centered))


def sample_gaussian(rng: np.random.Generator, cov: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` zero-mean samples with the given PSD covariance.

    Uses the eigendecomposition route so exactly singular covariances
    (including all-zero process noise) sample cleanly.
    """
    cov = np.asarray(cov, dtype=float)
    return rng.multivariate_normal(
        np.zeros(cov.shape[0]), cov, size=size, method="eigh", check_valid="ignore"
    )


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform draw, N evenly spaced positions.

    Returns an index array of length N.  A particle with weight w is
    selected floor(N w) or ceil(N w) times, so equal weights reproduce
    every particle exactly once.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against roundoff at the top end
    return np.searchsorted(cumulative, positions)


def resample(cloud: ParticleCloud, rng: np.random.Generator) -> ParticleCloud:
    """The equal-weight cloud picked from ``cloud`` by :func:`systematic_resample`."""
    return ParticleCloud.uniform(cloud.particles[systematic_resample(cloud.weights, rng)])


def propagate_particles(
    particles: np.ndarray, state_model: LinearStateModel, rng: np.random.Generator
) -> np.ndarray:
    """Push particles through linear dynamics with sampled process noise."""
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    noise = sample_gaussian(rng, state_model.noise_cov, particles.shape[0])
    return particles @ state_model.transition.T + noise


def log_likelihood(model: MeasurementModel, particles: np.ndarray) -> np.ndarray:
    """Gaussian measurement log-likelihood for each particle, up to a constant.

    A particle whose predicted measurement overflows or is otherwise
    non-finite gets -inf (zero weight) instead of poisoning the whole batch.
    """
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    with np.errstate(invalid="ignore"):
        residual = model.value - model.evaluate(particles)  # (N, d)
    out = np.full(particles.shape[0], -np.inf)
    finite = np.isfinite(residual).all(axis=1)
    if np.any(finite):
        c, low = scipy.linalg.cho_factor(model.noise_cov, lower=True)
        solved = scipy.linalg.cho_solve((c, low), residual[finite].T)  # (d, N)
        out[finite] = -0.5 * np.einsum("dn,dn->n", residual[finite].T, solved)
    return out


def weight_particles(
    cloud: ParticleCloud,
    state_model: LinearStateModel,
    model: MeasurementModel,
    rng: np.random.Generator,
) -> ParticleCloud:
    """Propagate a cloud and weight it by the measurement likelihood.

    Log-weights are shifted by their maximum before exponentiation, so the
    largest weight is exactly 1 and the total lies in [1, N].  If no
    particle has a finite log-weight, the weights are reset to uniform and
    the returned cloud is flagged ``degenerate`` instead of raising, so the
    caller decides whether that step is a divergence.
    """
    particles = propagate_particles(cloud.particles, state_model, rng)
    logw = log_likelihood(model, particles)
    with np.errstate(divide="ignore"):  # a zero weight's log is -inf
        logw = logw + np.log(cloud.weights)
    finite = np.isfinite(logw)
    if not np.any(finite):
        return ParticleCloud.uniform(particles, degenerate=True)
    shifted = logw - logw[finite].max()
    weights = np.where(finite, np.exp(shifted), 0.0)
    return ParticleCloud(particles, weights / weights.sum())


def bootstrap_pf_step(
    cloud: ParticleCloud,
    state_model: LinearStateModel,
    model: MeasurementModel,
    rng,
) -> ParticleCloud:
    """One bootstrap particle-filter step: :func:`weight_particles`, then
    :func:`resample` unless the weighting came back degenerate."""
    rng = np.random.default_rng(rng)
    weighted = weight_particles(cloud, state_model, model, rng)
    if weighted.degenerate:
        return weighted
    return resample(weighted, rng)
