"""Benchmark scenarios: truth simulation and measurement-model builders.

Each scenario bundles a prior, linear-Gaussian dynamics, and a measurement
generator that turns a true state plus a random stream into a realized
measurement model.  Filters never see the true state; they see the same
measurement models the generator produced, so paired comparisons across
filters are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .baselines import sample_gaussian
from .core import (
    AnalyticMeasurementModel,
    GaussianState,
    LinearStateModel,
    MeasurementModel,
)
from .errors import NonFiniteEvaluation

__all__ = [
    "ScenarioSpec",
    "SimStep",
    "simulate_truth",
    "wrap_angle",
    "scenario_polynomial",
    "scenario_bearings_far_near",
    "scenario_bearings_near_near",
]


def wrap_angle(theta):
    """Wrap angles to (-pi, pi], on a copy: the bits of ``-((-theta + pi) % (2 pi) - pi)``."""
    wrapped = _wrap_in_place(np.array(theta, dtype=float))
    return wrapped if wrapped.ndim else float(wrapped)


def _wrap_in_place(t: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of ``t`` (any layout), written into it.  The
    remainder runs only where ``pi - t`` is outside [0, 2 pi), NaN included
    (inside, x % 2pi is x), and not at all when a min and a max show none."""
    np.negative(t, out=t)
    t += math.pi
    if t.size and not (t.min() >= 0.0 and t.max() < 2.0 * math.pi):
        outside = np.flatnonzero(~((t >= 0.0) & (t < 2.0 * math.pi)))  # C order
        t.put(outside, np.remainder(t.take(outside), 2.0 * math.pi))
    t -= math.pi
    return np.negative(t, out=t)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete benchmark problem.

    ``measurement_generator(truth, rng)`` samples measurement noise from
    ``rng`` and returns the realized measurement model for that step.
    """

    name: str
    prior: GaussianState
    state_model: LinearStateModel
    measurement_generator: Callable[[np.ndarray, np.random.Generator], MeasurementModel]


class SimStep(NamedTuple):
    truth: np.ndarray
    measurement: MeasurementModel


def simulate_truth(spec: ScenarioSpec, steps: int, seed) -> list[SimStep]:
    """Sample one trajectory and its realized measurements.

    The initial state is drawn from the prior, then propagated through the
    linear dynamics with process noise for ``steps`` steps; each step
    carries one measurement of the current true state.  Fully determined
    by ``seed``.
    """
    rng = np.random.default_rng(seed)
    x = spec.prior.mean + sample_gaussian(rng, spec.prior.cov, 1)[0]
    f = spec.state_model.transition
    out = []
    for _ in range(steps):
        x = f @ x + sample_gaussian(rng, spec.state_model.noise_cov, 1)[0]
        out.append(SimStep(truth=x.copy(), measurement=spec.measurement_generator(x, rng)))
    return out


# ---------------------------------------------------------------------------
# Polynomial scenario: 3-d state, 6 quadratic measurement components whose
# span contains three purely linear combinations.

_POLY_B = np.array(
    [
        [2.0, 1.0, 1.0],
        [1.0, 2.0, 1.0],
        [1.0, 1.0, 2.0],
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
    ]
)
_POLY_HDIAG = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [2.0, 1.0, 1.0],
        [1.0, 2.0, 1.0],
        [1.0, 1.0, 2.0],
    ]
)
# Equals D0 @ D0.T for the coefficient matrix D0 mapping the separable
# basis (x1, x2, x3, x1^2/2, x2^2/2, x3^2/2) to the six components, so the
# model is exactly a mixed version of independent unit-noise basis
# measurements: three purely linear, three purely quadratic.
_POLY_NOISE = np.eye(6) + 8.0 * np.ones((6, 6))


def _poly_map(xs):
    xs = np.asarray(xs, dtype=float)
    return xs @ _POLY_B.T + 0.5 * ((xs * xs) @ _POLY_HDIAG.T)


def _poly_jacobian(x):
    return _POLY_B + _POLY_HDIAG * np.asarray(x, dtype=float)[None, :]


_POLY_HESSIANS = np.array([np.diag(row) for row in _POLY_HDIAG])


def _poly_generator(truth, rng):
    noise = sample_gaussian(rng, _POLY_NOISE, 1)[0]
    return AnalyticMeasurementModel(
        func=_poly_map,
        value=_poly_map(truth[None])[0] + noise,
        noise_cov=_POLY_NOISE,
        jacobian=_poly_jacobian,
        hessians=lambda x: _POLY_HESSIANS,
    )


def scenario_polynomial() -> ScenarioSpec:
    """Quadratic 6-component measurement of a 3-d random-walk state.

    The measurement rows all mix linear and quadratic terms, but three
    independent linear combinations of them are exactly linear in the
    state, so a partitioned update can absorb those first.
    """
    n = 3
    return ScenarioSpec(
        name="polynomial",
        prior=GaussianState(np.zeros(n), 16.0 * np.eye(n)),
        state_model=LinearStateModel(np.eye(n), 16.0 * np.eye(n)),
        measurement_generator=_poly_generator,
    )


# ---------------------------------------------------------------------------
# Bearings-only tracking: 4-d constant-velocity state, two angle sensors.


def _bearings_raw(xs, sensors):
    """Bearing of each position in ``xs`` (N, >=2) from each sensor, (s, N)."""
    xs = np.asarray(xs, dtype=float)
    dx = xs[:, 0] - sensors[:, 0, None]
    dy = xs[:, 1] - sensors[:, 1, None]
    return np.arctan2(dy, dx, out=dy)


def _bearings_model(sensors: np.ndarray, noise_cov: np.ndarray, value: np.ndarray):
    """Measurement model whose atan branch tracks the realized value.

    Each component returns the bearing shifted by the multiple of 2*pi
    that lands closest to the realized measurement, so residuals and probe
    differences never jump across the cut.  ``func`` has the bits of
    ``value + wrap_angle(bearings - value)``, in a new C-contiguous array.
    """

    def func(xs):
        angle = _bearings_raw(xs, sensors)
        angle -= value[:, None]
        out = np.empty(angle.shape[::-1])
        np.add(_wrap_in_place(angle), value[:, None], out=out.T)
        return out

    def finite(derivative, x):  # both derivatives divide 0 by 0 at a sensor
        if not np.isfinite(derivative).all():
            raise NonFiniteEvaluation(f"bearing derivatives are not finite at {x}")
        return derivative

    @np.errstate(all="ignore")
    def jacobian(x):
        x = np.asarray(x, dtype=float)
        dx = x[0] - sensors[:, 0]
        dy = x[1] - sensors[:, 1]
        q = dx * dx + dy * dy
        jac = np.zeros((sensors.shape[0], x.shape[0]))
        jac[:, 0] = -dy / q
        jac[:, 1] = dx / q
        return finite(jac, x)

    @np.errstate(all="ignore")
    def hessians(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        dx = x[0] - sensors[:, 0]
        dy = x[1] - sensors[:, 1]
        q2 = (dx * dx + dy * dy) ** 2
        hes = np.zeros((sensors.shape[0], n, n))
        hes[:, 0, 0] = 2.0 * dx * dy / q2
        hes[:, 1, 1] = -2.0 * dx * dy / q2
        hes[:, 0, 1] = hes[:, 1, 0] = (dy * dy - dx * dx) / q2
        return finite(hes, x)

    return AnalyticMeasurementModel(
        func=func,
        value=value,
        noise_cov=noise_cov,
        jacobian=jacobian,
        hessians=hessians,
    )


def _bearings_scenario(
    name: str,
    sensors,
    process_noise: np.ndarray,
    noise_std_deg: float,
) -> ScenarioSpec:
    sensors = np.asarray(sensors, dtype=float)
    if sensors.ndim != 2 or sensors.shape[1] != 2 or not np.isfinite(sensors).all():
        raise ValueError(f"sensors must be a finite (s, 2) array, got {sensors.tolist()}")
    sigma = math.radians(noise_std_deg)
    if not (sigma > 0.0 and 0.0 < sigma * sigma < math.inf):  # NaN fails too
        raise ValueError(f"noise_std_deg {noise_std_deg} gives no finite positive variance")
    noise_cov = sigma * sigma * np.eye(sensors.shape[0])

    def generator(truth, rng):
        raw = _bearings_raw(truth[None], sensors)[:, 0]
        value = raw + rng.normal(0.0, sigma, size=sensors.shape[0])
        return _bearings_model(sensors, noise_cov, value)

    transition = np.eye(4)
    transition[0, 2] = transition[1, 3] = 1.0
    return ScenarioSpec(
        name=name,
        prior=GaussianState(np.zeros(4), 10.0 * np.eye(4)),
        state_model=LinearStateModel(transition, process_noise),
        measurement_generator=generator,
    )


def _block_noise(pos: float, cross: float, vel: float) -> np.ndarray:
    return np.kron(np.array([[pos, cross], [cross, vel]]), np.eye(2))


def scenario_bearings_far_near(
    sensors=((2.0, 2.0), (30.0, 0.0)),
    noise_std_deg: float = 2.0,
) -> ScenarioSpec:
    """Two bearing sensors: one near the prior, one far away.

    The far sensor's bearing is almost linear over the prior spread while
    the near sensor's is strongly curved, so the nonlinearity split is
    extreme.  Process noise is small (slowly maneuvering target).  The
    default distances (near ~< one prior standard deviation, far ~10x)
    keep both measurements informative about the position block; pushing
    the far sensor much beyond ~100 units makes its bearing carry almost
    no position information at this noise level.
    """
    return _bearings_scenario(
        "bearings_far_near",
        sensors,
        _block_noise(1.0 / 300.0, 1.0 / 200.0, 1.0 / 100.0),
        noise_std_deg,
    )


def scenario_bearings_near_near(
    sensors=((2.0, 2.0), (-2.0, 2.0)),
    noise_std_deg: float = 2.0,
) -> ScenarioSpec:
    """Two near bearing sensors and much larger process noise.

    Both bearings start strongly nonlinear, so the first updates split into
    single-element rounds at any threshold up to 1.  As the belief tightens
    later updates take both elements in one round more often, far more at
    threshold 1 than at 0.1, yet the finite thresholds still behave alike.
    """
    return _bearings_scenario(
        "bearings_near_near",
        sensors,
        _block_noise(1.0 / 3.0, 1.0 / 2.0, 1.0),
        noise_std_deg,
    )
