"""The benchmark's tracer still finds every package function it measures.

``perfbench/tracing.py`` wraps package functions at their module attributes,
by name, for ``perfbench/run.py --trace 1``.  Deleting or renaming one of
them breaks the traced benchmark run, so this test loads the tracer from its
file, as it is, installs it around a small campaign, and checks every
layer's call count.
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
            CampaignConfig(
                scenario="polynomial",
                filters=("pukf@1", "ekf", "ekf2", "ekf2n", "ukf", "iekf@2", "ruf@2"),
                runs=1,
                steps=3,
                ref_particles=200,
            )
        )
    finally:
        tracer.remove()
    assert package_attributes() == before

    metrics = tracer.layer_metrics()
    calls = {
        name[: -len(".calls")]: value
        for name, (value, _) in metrics.items()
        if name.endswith(".calls")
    }
    rounds = tracer.rounds  # partitioned rounds over the 3 pukf updates
    assert rounds >= 3
    assert calls == {
        "harness.run_campaign": 1,
        "scenarios.simulate_truth": 1,
        # One update per filter and step: a table that bound the update
        # functions at import would bypass the tracer and read 0 here.
        "partitioned.pukf_update": 3,
        "baselines.ekf_update": 3,
        "baselines.ekf2_update_analytic": 3,
        "linearization.ekf2_update_numerical": 3,
        "baselines.ukf_update": 3,
        "baselines.iekf_update": 3,
        "baselines.ruf_update": 3,
        # ekf2n probes once per update, pukf once per round.
        "linearization.linearize": 3 + rounds,
        "decorrelation.decorrelate": rounds,
        # decorrelate, the one campaign caller of an eigensolve with vectors,
        # calls the kernel beneath sym_eig_ascending's checks, since it has
        # just symmetrized and checked the matrix itself: rounds - rounds = 0.
        "core.sym_eig_ascending": 0,
        # One innovation solve per Kalman correction: iekf@2 and ruf@2 make
        # two per update, pukf one per round.
        "core._solve_spd": 3 * (1 + 1 + 1 + 1 + 2 + 2) + rounds,
        # The ukf's factor of (n + lambda) P per update.  ekf2n and every pukf
        # round read the belief's kept factor, GaussianState.sqrt_cov, and
        # pukf's noise factor is the model's own sqrt_noise.
        "core.matrix_sqrt": 3,
        # The scenario prior and per step 7 predictions: the states built from
        # outside arrays.  Every posterior, each pukf round's included, is
        # _correct's exactly symmetric arrays and takes the validation kernel
        # alone (GaussianState._posterior), not __post_init__, so the
        # 3 * 7 posteriors and the rounds - 3 later pukf rounds drop out of the
        # 1 + 3 * (7 + 7) + (rounds - 3) counted before.
        "core.GaussianState": 1 + 3 * 7,
        "evaluation.ellipsoid_coverage": 7 * 3,
        "evaluation.error_quantiles": 7 * 3,
        # Truth: the initial state and process and measurement noise per
        # step; reference: the initial cloud and process noise per step.
        "baselines.sample_gaussian": 1 + 3 + 3 + 1 + 3,
        "baselines.propagate_particles": 3,
        "baselines.log_likelihood": 3,
        "baselines.systematic_resample": 3,
        "evaluation.Grid2D.from_cloud": 3,
        "evaluation.kl_divergence_grid": 0,  # campaigns bin once per step
    }
    # One checked evaluation per linearization: the whole stencil (for n = 3
    # the mean, 2n axis probes and n(n-1)/2 cross probes) goes in one call.
    assert metrics["linearization.probe_evals_per_call"][0] == 1.0
