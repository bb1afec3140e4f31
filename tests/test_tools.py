import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ref_kernels_prints_each_kernels_median():
    # A subprocess, since the script sets the BLAS thread variables at import.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "ref_kernels.py"),
            "--particles", "2000", "--steps", "2", "--repeat", "1",
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result.keys() == {"particles", "steps", "repeat", "seed", "kernels"}
    assert (result["particles"], result["steps"], result["repeat"]) == (2000, 2, 1)
    assert result["kernels"].keys() == {
        "sample_gaussian", "propagate_particles", "measurement func", "log_likelihood",
        "weight_particles", "resample", "particle_step", "Grid2D.from_cloud", "Grid2D.mass",
        "Grid2D.kl_context", "kl_divergence_mass", "step (one pass)",
    }
    for kernel in result["kernels"].values():
        assert kernel.keys() == {"ms_per_step_median", "minflt_per_run"}
        assert kernel["ms_per_step_median"] >= 0.0 and kernel["minflt_per_run"] >= 0


def test_envelope_prints_divergences_by_ratio_bin():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "envelope.py"), "--cases", "12", "--seed", "3"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result.keys() == {"scenario", "cases", "seed", "steps", "bins"}
    assert (result["scenario"], result["cases"], result["seed"]) == ("polynomial", 12, 3)
    assert sum(row["cases"] for row in result["bins"]) == 12
    for row in result["bins"]:
        low, high = row["log10_ratio"]
        assert high - low == 4 and -12 <= low <= 16
        assert len(row["divergences"]) == 10
        for counts in row["divergences"].values():
            assert sum(counts.values()) <= row["cases"]


def test_round_kernels_prints_each_layers_median():
    # A subprocess, since the script sets the BLAS thread variables at import.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "round_kernels.py"),
            "--runs", "1", "--steps", "2", "--repeat", "1",
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result.keys() == {"runs", "steps", "repeat", "seed", "scenarios"}
    assert (result["runs"], result["steps"], result["repeat"]) == (1, 2, 1)
    assert result["scenarios"].keys() == {
        "polynomial", "bearings_far_near", "bearings_near_near",
    }
    for thresholds in result["scenarios"].values():
        assert thresholds.keys() == {"-inf", "1", "inf"}
        for layers in thresholds.values():
            assert layers.keys() == {
                "linearize", "decorrelate", "_correct", "GaussianState._posterior",
                "_solve_spd", "round glue", "pukf_update",
            }
            assert layers["pukf_update"]["calls_per_update"] == 1.0
            rounds = layers["linearize"]["calls_per_update"]
            assert rounds >= 1.0
            for layer in layers.values():
                assert layer["us_per_call_median"] > 0.0
            for name in ("decorrelate", "_correct", "GaussianState._posterior", "_solve_spd",
                         "round glue"):
                assert layers[name]["calls_per_update"] == rounds
