"""Time each kernel of the 100k-particle reference step, per step.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/ref_kernels.py --particles 100000 --repeat 15

The script replays run 0 of a ``bearings_far_near`` campaign with its
reference, stream for stream as ``harness._single_run`` draws them.  At each
step it times every kernel of the reference step on that step's own inputs:
the best of ``--repeat`` calls, each from a copy of the same generator state.
It prints one JSON object with each kernel's median over the steps, in ms.
``Grid2D.mass`` and ``kl_divergence_mass`` are timed here because the
benchmark's tracer does not wrap them.  BLAS threads are pinned to one
before numpy is imported, as the benchmark does.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from pukf import baselines, evaluation  # noqa: E402
from pukf.core import GaussianState  # noqa: E402
from pukf.scenarios import scenario_bearings_far_near, simulate_truth  # noqa: E402


def best_ms(call, repeat, rng=None):
    """Best wall time of ``repeat`` calls in ms; a generator is copied per call."""
    times = []
    for _ in range(repeat):
        args = () if rng is None else (copy.deepcopy(rng),)
        t0 = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--particles", type=int, default=100_000)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = scenario_bearings_far_near()
    truth_seq, ref_seq = np.random.SeedSequence([args.seed, 0]).spawn(2)
    sim = simulate_truth(spec, args.steps, np.random.default_rng(truth_seq))
    rng = np.random.default_rng(ref_seq)
    pts = spec.prior.mean + baselines.sample_gaussian(rng, spec.prior.cov, args.particles)
    cloud = baselines.ParticleCloud.uniform(pts)
    dynamics = spec.state_model

    per_step = {}
    for _, model in sim:
        moved = baselines.propagate_particles(cloud.particles, dynamics, copy.deepcopy(rng))
        weighted = baselines.weight_particles(cloud, dynamics, model, copy.deepcopy(rng))
        grid = evaluation.Grid2D.from_cloud(weighted)
        mass = grid.mass(weighted)
        estimate = GaussianState(weighted.mean(), weighted.cov())
        timings = {
            "sample_gaussian": best_ms(
                lambda r: baselines.sample_gaussian(r, dynamics.noise_cov, args.particles),
                args.repeat, rng),
            "propagate_particles": best_ms(
                lambda r: baselines.propagate_particles(cloud.particles, dynamics, r),
                args.repeat, rng),
            "measurement func": best_ms(lambda: model.func(moved), args.repeat),
            "log_likelihood": best_ms(
                lambda: baselines.log_likelihood(model, moved), args.repeat),
            "weight_particles": best_ms(
                lambda r: baselines.weight_particles(cloud, dynamics, model, r),
                args.repeat, rng),
            "Grid2D.from_cloud": best_ms(
                lambda: evaluation.Grid2D.from_cloud(weighted), args.repeat),
            "Grid2D.mass": best_ms(lambda: grid.mass(weighted), args.repeat),
            "kl_divergence_mass": best_ms(
                lambda: evaluation.kl_divergence_mass(mass, estimate, grid), args.repeat),
            "resample": best_ms(lambda r: baselines.resample(weighted, r), args.repeat, rng),
        }
        # The step as the harness takes it, advancing the stream.
        t0 = time.perf_counter()
        weighted = baselines.weight_particles(cloud, dynamics, model, rng)
        grid = evaluation.Grid2D.from_cloud(weighted)
        grid.mass(weighted)
        cloud = baselines.resample(weighted, rng)
        timings["step (one pass)"] = 1e3 * (time.perf_counter() - t0)
        for name, ms in timings.items():
            per_step.setdefault(name, []).append(ms)

    result = {
        "particles": args.particles,
        "steps": args.steps,
        "repeat": args.repeat,
        "seed": args.seed,
        "ms_per_step_median": {k: round(statistics.median(v), 3) for k, v in per_step.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
