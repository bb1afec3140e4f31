"""The benchmark's tracer still finds every package function it measures.

``perfbench/tracing.py`` wraps package functions at their module attributes,
by name, for ``perfbench/run.py --trace 1``.  Deleting or renaming one of
them breaks the traced benchmark run, so this test loads the tracer from its
file, as it is, and installs it around a small campaign.
"""

import importlib.util
import sys
from pathlib import Path

import pukf
from pukf import CampaignConfig, GaussianState, Grid2D

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pukf"]
    modules += [GaussianState, Grid2D]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_tracer_installs_counts_and_restores_the_package():
    tracing = load_tracing()
    before = package_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Through the package attribute, which the tracer has replaced.
        pukf.run_campaign(
            CampaignConfig(scenario="polynomial", filters=("ekf2n",), runs=1, steps=3)
        )
    finally:
        tracer.remove()
    assert package_attributes() == before

    metrics = tracer.layer_metrics()
    assert metrics["harness.run_campaign.calls"][0] == 1
    assert metrics["linearization.ekf2_update_numerical.calls"][0] == 3
    assert metrics["linearization.linearize.calls"][0] == 3
    # n = 3: the mean, 2n axis probes and n(n-1)/2 cross probes.
    assert metrics["linearization.probe_evals_per_call"][0] == 10.0
    # One Cholesky of the prior covariance per second-order update.
    assert metrics["core.matrix_sqrt.calls"][0] == 3
    assert metrics["core._solve_spd.calls"][0] == 3
