"""Time each layer of a partitioned (pukf) round, per call.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/round_kernels.py --runs 5 --steps 10 --repeat 5

The filter-side twin of ``tools/ref_kernels.py``.  For each built-in scenario
and each threshold (-inf, 1, inf) the script replays ``--runs`` seeded runs of
``--steps`` steps, as ``harness._single_run`` draws their truth and
measurements, and chains pukf's own beliefs through them: each step predicts,
then calls ``partitioned.pukf_update`` ``--repeat`` times on the same prior and
measurement, and continues from its result.  While it runs, the layers of a
round are wrapped where the round looks them up:

- ``linearize`` and ``decorrelate``: the module attributes pukf calls;
- ``_correct``: the Kalman correction, the innovation solve and the gain;
- ``_solve_spd``: the innovation solve inside it;
- ``GaussianState._posterior``: the validation kernel each round's belief takes;
- ``round glue``: the rest of ``pukf_update``, per round (its time less
  that of the four layers it calls directly, over its rounds);
- ``pukf_update``: the whole update.

It prints one JSON object with, per scenario and threshold and for each layer,
``us_per_call_median`` (the median over every timed call, in microseconds)
and ``calls_per_update``.  The wrappers' own overhead (two clock reads a call)
is booked to the layer they wrap.  BLAS threads are pinned to one before numpy
is imported, as the benchmark does.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import statistics
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from pukf import core, partitioned  # noqa: E402
from pukf.errors import NumericalFailure  # noqa: E402
from pukf.harness import SCENARIOS  # noqa: E402
from pukf.scenarios import simulate_truth  # noqa: E402

THRESHOLDS = {"-inf": -np.inf, "1": 1.0, "inf": np.inf}

# Where each layer is looked up when a round calls it: (owner, attribute).
# The first four are the ones pukf_update calls directly.
LAYERS = {
    "linearize": (partitioned, "linearize"),
    "decorrelate": (partitioned, "decorrelate"),
    "_correct": (partitioned, "_correct"),
    "GaussianState._posterior": (core.GaussianState, "_posterior"),
    "_solve_spd": (core, "_solve_spd"),
}
DIRECT = ("linearize", "decorrelate", "_correct", "GaussianState._posterior")


@contextlib.contextmanager
def timing_layers(elapsed):
    """Append each LAYERS call's seconds to ``elapsed[name]`` while inside."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr in LAYERS.values()]

    def timed(name, call):
        @functools.wraps(call)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                elapsed[name].append(time.perf_counter() - t0)
        return wrapper

    try:
        for name, (owner, attr) in LAYERS.items():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(timed(name, original.__func__)))
            else:
                setattr(owner, attr, timed(name, original))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def replay(spec, threshold, args):
    """Per-call seconds of each layer over the replay, and the number of updates."""
    elapsed = {name: [] for name in (*LAYERS, "round glue", "pukf_update")}
    updates = 0
    with timing_layers(elapsed):
        for run in range(args.runs):
            truth_seq = np.random.SeedSequence([args.seed, run]).spawn(1)[0]
            state = spec.prior
            for _, model in simulate_truth(spec, args.steps, np.random.default_rng(truth_seq)):
                prior = spec.state_model.predict(state)
                try:
                    for _ in range(args.repeat):
                        before = {name: len(elapsed[name]) for name in DIRECT}
                        t0 = time.perf_counter()
                        state, trace = partitioned.pukf_update(prior, model, threshold)
                        total = time.perf_counter() - t0
                        inner = sum(sum(elapsed[name][before[name]:]) for name in DIRECT)
                        elapsed["pukf_update"].append(total)
                        elapsed["round glue"].extend(
                            [(total - inner) / trace.n_rounds] * trace.n_rounds)
                        updates += 1
                except NumericalFailure:
                    break  # the chain diverged; the next run starts afresh
    return elapsed, updates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    scenarios = {}
    for scenario in sorted(SCENARIOS):
        spec = SCENARIOS[scenario]()
        scenarios[scenario] = {}
        for label, threshold in THRESHOLDS.items():
            elapsed, updates = replay(spec, threshold, args)
            scenarios[scenario][label] = {
                name: {
                    "us_per_call_median": round(1e6 * statistics.median(times), 2)
                    if times else None,
                    "calls_per_update": round(len(times) / updates, 3) if updates else 0.0,
                }
                for name, times in elapsed.items()
            }
    result = {
        "runs": args.runs,
        "steps": args.steps,
        "repeat": args.repeat,
        "seed": args.seed,
        "scenarios": scenarios,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
