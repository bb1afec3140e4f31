"""Baseline estimators: EKF, analytic EKF2, UKF, IEKF, RUF, bootstrap PF.

These are the comparison points for the partitioned filter.  The Kalman-
style updates all finish in the shared correction ``core._correct``; the
differences are only in how the predicted measurement moments are obtained
(first-order Jacobian, second-order traces, sigma points, iteration, or
repeated reduced-weight updates).  The particle filter and the harness's
particle reference take the same step, ``particle_step``: ``weight_particles``
followed by ``resample``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrs

from .core import (
    AnalyticMeasurementModel,
    GaussianState,
    LinearStateModel,
    MeasurementModel,
    _correct,
    _eig_sqrt,
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
    "particle_step",
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


def ekf2_update_analytic(
    prior: GaussianState, model: AnalyticMeasurementModel
) -> GaussianState:
    """Second-order extended Kalman update with analytic derivatives.

    Identical structure to the derivative-free second-order update, but
    with xi[k] = tr(P H_k) and Xi[k, l] = tr(P H_k P H_l) computed from
    closed-form Hessians instead of probe differences.
    """
    if model.hessians is None:
        raise ValueError("ekf2_update_analytic requires a model with hessians")
    jac = np.atleast_2d(model.jacobian(prior.mean))
    hes = np.asarray(model.hessians(prior.mean), dtype=float)
    ph = np.einsum("ab,kbc->kac", prior.cov, hes)  # (d, n, n), P @ H_k
    xi = ph.trace(axis1=1, axis2=2)
    big_xi = symmetrize(np.einsum("kab,lba->kl", ph, ph))
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
        if not abs(total - 1.0) <= 1e-12:  # also for a NaN total
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

    The same bits as ``rng.multivariate_normal(zeros, cov, size,
    method="eigh", check_valid="ignore")`` from the same generator state:
    standard normals times ``(u sqrt|w|)'`` from ``numpy.linalg.eigh``'s
    LAPACK ``dsyevd``, so exactly singular covariances (including all-zero
    process noise) sample cleanly.
    """
    root = _eig_sqrt(np.asarray(cov, dtype=float))
    return rng.standard_normal((size, root.shape[0])) @ root.T


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform draw, N evenly spaced positions.

    Returns an index array of length N.  A particle with weight w is
    selected floor(N w) or ceil(N w) times, so equal weights reproduce
    every particle exactly once.  The same indices as
    ``searchsorted(cumsum(weights), (u + arange(N)) / N)`` in O(N): each
    particle's count of positions at or below its cumulative weight c is
    estimated as floor(c N - u) + 1 and corrected by one comparison each
    way against the positions themselves.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    return np.repeat(np.arange(n), np.diff(_positions_at_or_below(weights, rng), prepend=0))


def _positions_at_or_below(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """For each particle, how many systematic positions lie at or below its
    cumulative weight; a function of its own, so the work arrays are freed
    before :func:`systematic_resample` builds its indices."""
    n = weights.shape[0]
    u = rng.random()
    padded = np.empty(n + 2)  # padded[k] is positions[k - 1]
    padded[0], padded[-1] = -np.inf, np.inf
    positions = np.add(u, np.arange(n), out=padded[1:-1])
    positions /= n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against roundoff at the top end
    below = cumulative * n
    below -= u
    below = np.floor(below, out=below).astype(np.intp)
    below += 1
    np.clip(below, 0, n, out=below)
    below -= padded[below] > cumulative
    below += padded[1:][below] <= cumulative
    return below


def resample(cloud: ParticleCloud, rng: np.random.Generator) -> ParticleCloud:
    """The equal-weight cloud picked from ``cloud`` by :func:`systematic_resample`:
    the same particles, in the same order, as indexing with its result."""
    picked = np.take(cloud.particles, systematic_resample(cloud.weights, rng), axis=0)
    return ParticleCloud.uniform(picked)


def propagate_particles(
    particles: np.ndarray, state_model: LinearStateModel, rng: np.random.Generator
) -> np.ndarray:
    """Push particles through linear dynamics with sampled process noise:
    the bits of ``particles @ F' + noise``, added into the new noise draw."""
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    moved = sample_gaussian(rng, state_model.noise_cov, particles.shape[0])
    return np.add(moved, particles @ state_model.transition.T, out=moved)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every element is finite, from one sum (an overflow says no)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(a.sum()))


def log_likelihood(model: MeasurementModel, particles: np.ndarray) -> np.ndarray:
    """Gaussian measurement log-likelihood for each particle, up to a constant.

    A particle whose predicted measurement overflows or is otherwise
    non-finite gets -inf (zero weight) instead of poisoning the whole batch.
    The quadratic form solves with LAPACK ``dpotrs`` against the model's ``sqrt_noise``,
    checked when the model was built; a diagonal one gives dpotrs's bits as two products
    by 1/l per row of its (d, N) Fortran layout.  A form that overflows is -inf, not NaN.
    What ``func`` returns is never written to: it may be the caller's array.
    """
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    with np.errstate(invalid="ignore"):
        residual = model.value - model.evaluate(particles)  # (N, d)
    every = _all_finite(residual)
    if not every:
        finite = np.isfinite(residual).all(axis=1)
        residual = residual[finite]
    dense = np.tril(model.sqrt_noise, -1).any()
    if dense:
        solved = dpotrs(model.sqrt_noise, residual.T, lower=1)[0]  # (d, N)
    else:  # column by column: one broadcast multiply over (d, N) is twice as slow at d = 2
        solved = np.empty(residual.shape[::-1], order="F")
        with np.errstate(over="ignore"):  # an inf, where dpotrs overflows silently
            for k, inv in enumerate(1.0 / np.diag(model.sqrt_noise)):
                np.multiply(residual[:, k], inv, out=solved[k])
                solved[k] *= inv
    quad = -0.5 * np.einsum("dn,dn->n", residual.T, solved)
    if dense:  # a form that overflows inside dpotrs comes out as 0 * inf or inf - inf
        quad[np.isnan(quad)] = -np.inf
    if every:
        return quad
    out = np.full(particles.shape[0], -np.inf)
    out[finite] = quad
    return out


def weight_particles(
    cloud: ParticleCloud, state_model: LinearStateModel, model: MeasurementModel, rng
) -> ParticleCloud:
    """Propagate a cloud and weight it by the measurement likelihood.

    Log-weights are shifted by their maximum before exponentiation, so the
    largest weight is exactly 1 and the total lies in [1, N].  If no
    particle has a finite log-weight, the weights are reset to uniform and
    the returned cloud is flagged ``degenerate`` instead of raising, so the
    caller decides whether that step is a divergence.
    """
    particles = propagate_particles(cloud.particles, state_model, rng)
    logw = log_likelihood(model, particles)  # a new array, weighted in place
    with np.errstate(divide="ignore"):  # a zero weight's log is -inf
        logw += np.log(cloud.weights)
    if not _all_finite(logw):
        finite = np.isfinite(logw)
        if not np.any(finite):
            return ParticleCloud.uniform(particles, degenerate=True)
        logw[~finite] = -np.inf  # exp gives these the 0.0 of a zero weight
    logw -= logw.max()
    weights = np.exp(logw, out=logw)
    weights /= weights.sum()
    return ParticleCloud(particles, weights)


def particle_step(
    cloud: ParticleCloud, state_model: LinearStateModel, model: MeasurementModel, rng
) -> tuple[ParticleCloud, ParticleCloud]:
    """One bootstrap step: the :func:`weight_particles` cloud, and the
    :func:`resample` of it, which is drawn even when it came back degenerate."""
    weighted = weight_particles(cloud, state_model, model, rng)
    return weighted, resample(weighted, rng)


def bootstrap_pf_step(
    cloud: ParticleCloud, state_model: LinearStateModel, model: MeasurementModel, rng
) -> ParticleCloud:
    """One bootstrap PF step: :func:`particle_step`'s resampled cloud, or a degenerate weighting."""
    weighted, resampled = particle_step(cloud, state_model, model, np.random.default_rng(rng))
    return weighted if weighted.degenerate else resampled
