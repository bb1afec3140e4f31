"""Count where each filter stops returning a belief, by prior/noise ratio.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/envelope.py --cases 800 --seed 0

Each case is a draw of the tier-1 step property on ``polynomial``: the prior
and the process noise scaled by 10^U[-10, 10], the measurement noise by
10^U[-8, 0], a truth drawn from the scaled prior, and the measurements of 3
chained steps.  Every filter runs those same 3 steps.  It diverges in a case
when a step raises ``NumericalFailure``, the one class a campaign books as a
divergence; any other exception stops the script.  Cases are binned by the
ratio of the two scales, four decades to a bin.  The script prints one JSON
object: for each bin, its ratio range as powers of ten, its number of cases,
and for each filter its divergences by exception class.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math

import numpy as np

from pukf import (
    FILTERS,
    SCENARIOS,
    GaussianState,
    LinearStateModel,
    NumericalFailure,
    parse_filter,
    sample_gaussian,
)

FILTER_SPECS = (
    "pukf@-inf", "pukf@0.1", "pukf@1", "pukf@inf", "ekf", "ekf2", "ekf2n", "ukf",
    "iekf@10", "ruf@10",
)
STEPS = 3
BIN_DECADES = 4


def draw_case(spec, rng):
    """The log10 scales, scaled dynamics, prior and per-step models of one case."""
    log_prior, log_noise = rng.uniform(-10.0, 10.0), rng.uniform(-8.0, 0.0)
    scale = 10.0**log_prior
    prior = GaussianState(spec.prior.mean, scale * spec.prior.cov)
    dynamics = LinearStateModel(spec.state_model.transition, scale * spec.state_model.noise_cov)
    truth = prior.mean + prior.sqrt_cov @ rng.normal(size=prior.dim)
    models = []
    for _ in range(STEPS):
        model = spec.measurement_generator(truth, rng)
        models.append(dataclasses.replace(model, noise_cov=10.0**log_noise * model.noise_cov))
        truth = dynamics.transition @ truth + sample_gaussian(rng, dynamics.noise_cov, 1)[0]
    return log_prior, log_noise, prior, dynamics, models


def divergence(text, prior, dynamics, models, rng):
    """The class name of the failure that ended the filter's run, or None."""
    _, name, param = parse_filter(text)
    adapter = FILTERS[name].build(param)
    state = adapter.init(prior, rng)
    try:
        for model in models:
            state = adapter.step(state, dynamics, model, rng)
    except NumericalFailure as exc:
        return type(exc).__name__
    return None


def envelope(cases: int, seed: int) -> dict:
    spec = SCENARIOS["polynomial"]()
    bins = {}
    for index in range(cases):
        rng = np.random.default_rng([seed, index])
        log_prior, log_noise, prior, dynamics, models = draw_case(spec, rng)
        low = BIN_DECADES * math.floor((log_prior - log_noise) / BIN_DECADES)
        row = bins.setdefault(
            low, {"log10_ratio": [low, low + BIN_DECADES], "cases": 0,
                  "divergences": {text: {} for text in FILTER_SPECS}},
        )
        row["cases"] += 1
        for text in FILTER_SPECS:
            failure = divergence(text, prior, dynamics, models, rng)
            if failure is not None:
                counts = row["divergences"][text]
                counts[failure] = counts.get(failure, 0) + 1
    return {
        "scenario": "polynomial", "cases": cases, "seed": seed, "steps": STEPS,
        "bins": [bins[low] for low in sorted(bins)],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=800)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(envelope(args.cases, args.seed), indent=1))


if __name__ == "__main__":
    main()
