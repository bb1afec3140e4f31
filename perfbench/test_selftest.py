"""Self-test of the benchmark itself; untimed.

Run from the repository root:

    python3 -m pytest perfbench/test_selftest.py -q
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from pukf import harness  # noqa: E402

SEED = 3

FRESH_PROCESS = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
from pukf import harness
cfg = workloads.WORKLOADS[{name!r}].config({seed}, 0, runs={runs})
report, _ = harness.run_campaign(cfg)
print(workloads.report_digest(report, {out!r}))
"""


@pytest.mark.parametrize("name, runs", [("poly", 3), ("far_near", 3), ("far_near_ref", 2)])
def test_report_digest_same_for_jobs_and_fresh_process(tmp_path, name, runs):
    cfg = workloads.WORKLOADS[name].config(SEED, 0, runs=runs)
    serial, _ = harness.run_campaign(cfg)
    pooled, _ = harness.run_campaign(dataclasses.replace(cfg, jobs=2))
    script = FRESH_PROCESS.format(src=str(SRC), here=str(HERE), name=name, seed=SEED,
                                  runs=runs, out=str(tmp_path / "fresh.csv"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, check=True)
    digests = {
        "jobs=1": workloads.report_digest(serial, tmp_path / "serial.csv"),
        "jobs=2": workloads.report_digest(pooled, tmp_path / "pooled.csv"),
        "fresh process": proc.stdout.strip().splitlines()[-1],
    }
    assert len(set(digests.values())) == 1, digests


def test_checks_pass_on_real_output_and_catch_a_broken_report():
    workload = workloads.WORKLOADS["poly"]
    cfg = workload.config(SEED, 0, runs=2)
    report, records = harness.run_campaign(cfg)
    assert workloads.check_campaign(workload, cfg, report, records) == []
    broken = dataclasses.replace(report, rows=report.rows[:-1])
    assert workloads.check_campaign(workload, cfg, broken, records)
    assert workloads.check_campaign(workload, cfg, report, records[:-1])


def test_tracer_counts_calls_and_restores_the_package():
    from pukf.core import GaussianState
    from pukf.evaluation import Grid2D

    modules = [m for name, m in sys.modules.items() if name.startswith("pukf")]
    modules += [GaussianState, Grid2D]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    cfg = workloads.WORKLOADS["poly"].config(SEED, 0, runs=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_campaign(cfg)
    finally:
        tracer.remove()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    metrics = tracer.layer_metrics()
    assert metrics["harness.run_campaign.calls"][0] == 1
    assert metrics["linearization.probe_evals_per_call"][0] == 10.0
    assert metrics["baselines.log_likelihood.calls"][0] == 0
    assert set(metrics) | {"harness.ref_degenerate_steps", "bench.trace_overhead"} == set(
        tracing.per_layer_metric_names())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "poly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
