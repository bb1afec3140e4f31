"""Partitioned measurement updates driven by the nonlinearity spectrum.

Instead of absorbing a d-dimensional measurement in one shot, the update
decorrelates the measurement so the transformed noise is white and the
per-element nonlinearity is the ascending eigenvalue spectrum of the
whitened spread correction.  The most-linear block (everything at or below
a threshold, or the single best element when nothing qualifies) is applied
first; the remaining elements are re-linearized at the partially updated
belief, where there is less prior spread and therefore less nonlinearity
left to commit to.  The loop repeats until the measurement is exhausted.

The remainder is a row block over the original measurement.  The probe
statistics are linear in the function values (Xi quadratic), so each round
linearizes the original model once and mixes that summary by the rows
instead of building a mixed model.

With threshold +inf this collapses to a single full second-order update;
with -inf it processes one transformed element per round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GaussianState, MeasurementModel, _correct, matrix_sqrt
from .decorrelation import decorrelate
from .linearization import linearize

__all__ = [
    "PartialUpdateRound",
    "PartialUpdateTrace",
    "pukf_update",
]


@dataclass(frozen=True)
class PartialUpdateRound:
    """One round of a partitioned update: the spectrum seen, the block size
    taken, and the belief ``mean``/``cov`` after absorbing that block, as
    plain arrays.  Only the last round's belief is validated, as the
    returned posterior."""

    lambdas: np.ndarray
    split_k: int
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class PartialUpdateTrace:
    rounds: tuple[PartialUpdateRound, ...] = field(default_factory=tuple)

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def split_sizes(self) -> tuple[int, ...]:
        return tuple(r.split_k for r in self.rounds)


def pukf_update(
    prior: GaussianState,
    model: MeasurementModel,
    threshold: float = 1.0,
) -> tuple[GaussianState, PartialUpdateTrace]:
    """Apply one measurement through partitioned second-order updates.

    ``threshold`` is the extended-real nonlinearity cutoff, the update's one
    tuning choice (default 1.0: accept transformed elements whose
    nonlinearity is at most the noise floor).  -inf takes one transformed
    element per round; +inf takes the whole measurement in one second-order
    update.  A NaN threshold raises ValueError.

    Returns the posterior belief and a trace with one entry per round.
    The sum of the per-round block sizes always equals the measurement
    dimension.  Round 0 whitens by the model's ``sqrt_noise``; the rounds
    carry plain arrays, and the posterior is the one ``GaussianState``
    built.
    """
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    mean = prior.mean
    cov = prior.cov
    sqrt_noise = model.sqrt_noise
    # What is left of the measurement, as rows over the original model.
    rows = np.eye(model.dim)

    rounds = []
    while len(rows):
        sqrt_p = matrix_sqrt(cov) if rounds else prior.sqrt_cov
        lin = linearize(model.evaluate, mean, sqrt_p)
        dec = decorrelate(rows @ lin.Xi @ rows.T, sqrt_noise, threshold)
        k = dec.split_k
        head = dec.D[:k] @ rows

        yhat = head @ (lin.h_at_mean + 0.5 * lin.xi)
        b = head @ lin.M  # (k, n)
        s = b @ b.T + 0.5 * np.diag(dec.lambdas[:k]) + np.eye(k)
        mean, cov = _correct(mean, cov, head @ model.value - yhat, s, sqrt_p @ b.T)
        rounds.append(PartialUpdateRound(dec.lambdas, k, mean, cov))

        # The remaining elements in the transformed basis; their noise is
        # white by construction.
        rows = dec.D[k:] @ rows
        sqrt_noise = None

    return GaussianState(mean, cov), PartialUpdateTrace(rounds=tuple(rounds))

