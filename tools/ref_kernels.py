"""Time each kernel of the 100k-particle reference step, beside its page faults.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/ref_kernels.py --particles 100000 --repeat 15

The script replays run 0 of a ``bearings_far_near`` campaign with its
reference, stream for stream as ``harness._single_run`` draws them: each step
is ``baselines.particle_step``, ``Grid2D.from_cloud`` and ``Grid2D.kl_context``,
the calls the harness makes, and ``kl_divergence_mass``, which the harness calls
once per filter.  It prints one JSON object with, for each kernel:

- ``ms_per_step_median``: at each step, the best of ``--repeat`` calls on that
  step's own inputs, each from a copy of the same generator state; the median
  over the steps.
- ``minflt_per_run``: minor page faults (``ru_minflt``: pages the process
  touches for the first time since the allocator took them from the system),
  counted around each call of the kernel, callees included, in a replay of the
  run that makes only the harness's calls, from the initial draw on.  The
  measurement func's are counted around ``MeasurementModel.evaluate``.

BLAS threads are pinned to one before numpy is imported, as the benchmark does.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import os
import resource
import statistics
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from pukf import baselines, evaluation  # noqa: E402
from pukf.core import GaussianState, MeasurementModel  # noqa: E402
from pukf.scenarios import scenario_bearings_far_near, simulate_truth  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def best_ms(call, repeat, rng=None):
    """Best wall time of ``repeat`` calls in ms; a generator is copied per call."""
    times = []
    for _ in range(repeat):
        args = () if rng is None else (copy.deepcopy(rng),)
        t0 = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


# Where each kernel is looked up when the replay calls it: (owner, attribute).
COUNTED = {
    "sample_gaussian": (baselines, "sample_gaussian"),
    "propagate_particles": (baselines, "propagate_particles"),
    "measurement func": (MeasurementModel, "evaluate"),
    "log_likelihood": (baselines, "log_likelihood"),
    "weight_particles": (baselines, "weight_particles"),
    "resample": (baselines, "resample"),
    "particle_step": (baselines, "particle_step"),
    "Grid2D.from_cloud": (evaluation.Grid2D, "from_cloud"),
    "Grid2D.mass": (evaluation.Grid2D, "mass"),
    "Grid2D.kl_context": (evaluation.Grid2D, "kl_context"),
    "kl_divergence_mass": (evaluation, "kl_divergence_mass"),
}


@contextlib.contextmanager
def counting_faults(faults):
    """Add each COUNTED kernel's minor faults to ``faults[name]`` while inside."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr in COUNTED.values()]

    def counted(name, call):
        @functools.wraps(call)
        def wrapper(*args, **kwargs):
            f0 = minor_faults()
            try:
                return call(*args, **kwargs)
            finally:
                faults[name] = faults.get(name, 0) + minor_faults() - f0
        return wrapper

    try:
        for name, (owner, attr) in COUNTED.items():
            setattr(owner, attr, counted(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def replay_start(args):
    """Run 0's reference at step 0: the measurements, the stream and the initial cloud."""
    spec = scenario_bearings_far_near()
    truth_seq, ref_seq = np.random.SeedSequence([args.seed, 0]).spawn(2)
    sim = simulate_truth(spec, args.steps, np.random.default_rng(truth_seq))
    rng = np.random.default_rng(ref_seq)
    pts = spec.prior.mean + baselines.sample_gaussian(rng, spec.prior.cov, args.particles)
    return spec.state_model, sim, rng, baselines.ParticleCloud.uniform(pts)


def count_faults(args):
    """Each kernel's minor faults in one run's replay that makes only the harness's
    calls, from the initial draw on, so the allocator sees what a campaign run gives it."""
    faults = {"step (one pass)": 0}
    with counting_faults(faults):
        dynamics, sim, rng, cloud = replay_start(args)
        for _, model in sim:
            f0 = minor_faults()
            weighted, cloud = baselines.particle_step(cloud, dynamics, model, rng)
            context = evaluation.Grid2D.from_cloud(weighted).kl_context(weighted)
            del weighted
            faults["step (one pass)"] += minor_faults() - f0
            evaluation.kl_divergence_mass(context, GaussianState(cloud.mean(), cloud.cov()))
    return faults


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--particles", type=int, default=100_000)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    faults = count_faults(args)
    dynamics, sim, rng, cloud = replay_start(args)
    per_step = {}
    for _, model in sim:
        moved = baselines.propagate_particles(cloud.particles, dynamics, copy.deepcopy(rng))
        weighted = baselines.weight_particles(cloud, dynamics, model, copy.deepcopy(rng))
        grid = evaluation.Grid2D.from_cloud(weighted)
        context = grid.kl_context(weighted)
        estimate = GaussianState(weighted.mean(), weighted.cov())
        ms = {
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
            "resample": best_ms(lambda r: baselines.resample(weighted, r), args.repeat, rng),
            "particle_step": best_ms(
                lambda r: baselines.particle_step(cloud, dynamics, model, r),
                args.repeat, rng),
            "Grid2D.from_cloud": best_ms(
                lambda: evaluation.Grid2D.from_cloud(weighted), args.repeat),
            "Grid2D.mass": best_ms(lambda: grid.mass(weighted), args.repeat),
            "Grid2D.kl_context": best_ms(lambda: grid.kl_context(weighted), args.repeat),
            "kl_divergence_mass": best_ms(
                lambda: evaluation.kl_divergence_mass(context, estimate), args.repeat),
        }
        del moved, weighted, grid, context
        # The step as the harness takes it, advancing the stream.
        t0 = time.perf_counter()
        weighted, cloud = baselines.particle_step(cloud, dynamics, model, rng)
        evaluation.Grid2D.from_cloud(weighted).kl_context(weighted)
        del weighted
        ms["step (one pass)"] = 1e3 * (time.perf_counter() - t0)
        for name, value in ms.items():
            per_step.setdefault(name, []).append(value)

    result = {
        "particles": args.particles,
        "steps": args.steps,
        "repeat": args.repeat,
        "seed": args.seed,
        "kernels": {
            name: {
                "ms_per_step_median": round(statistics.median(values), 3),
                "minflt_per_run": faults.get(name, 0),
            }
            for name, values in per_step.items()
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
