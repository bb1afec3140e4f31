import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from pukf import (
    AnalyticMeasurementModel,
    CampaignConfig,
    ConfigError,
    DEFAULT_PROBS,
    GaussianState,
    LinearStateModel,
    ScenarioSpec,
    config_hash,
    emit_report,
    parse_filter,
    read_report,
    run_campaign,
)
from pukf.cli import main as cli_main
from pukf.harness import _report_csv

from helpers import kalman_update, pointwise, random_spd


def linear_scenario(steps=5):
    """Registered-shape scenario with an exactly linear measurement."""
    rng = np.random.default_rng(99)
    n, d = 3, 2
    h_mat = rng.normal(size=(d, n))
    noise = random_spd(rng, d)
    f_mat = 0.9 * np.eye(n)
    w = 0.2 * np.eye(n)

    def generator(truth, rng):
        value = h_mat @ truth + rng.multivariate_normal(np.zeros(d), noise)
        return AnalyticMeasurementModel(
            func=lambda x: x @ h_mat.T,
            value=value,
            noise_cov=noise,
            jacobian=lambda x: h_mat,
            hessians=lambda x: np.zeros((d, n, n)),
        )

    return ScenarioSpec(
        name="linear_test",
        prior=GaussianState(np.zeros(n), np.eye(n)),
        state_model=LinearStateModel(f_mat, w),
        measurement_generator=generator,
        steps=steps,
    ), h_mat, noise, f_mat, w


def replace_model(spec, from_step, **fields):
    """``spec`` with ``fields`` of its measurement models replaced from
    ``from_step`` on."""
    steps_seen = itertools.count()

    def generator(truth, rng):
        model = spec.measurement_generator(truth, rng)
        if next(steps_seen) % spec.steps < from_step:
            return model
        return dataclasses.replace(model, **fields)

    return dataclasses.replace(spec, measurement_generator=generator)


class TestParseFilter:
    def test_plain_and_parameterized(self):
        assert parse_filter("ekf") == ("ekf", "ekf", None)
        assert parse_filter("pukf@0.5") == ("pukf@0.5", "pukf", 0.5)
        assert parse_filter("pukf") == ("pukf", "pukf", 1.0)
        assert parse_filter("ruf@3") == ("ruf@3", "ruf", 3.0)
        assert parse_filter("pukf@-inf") == ("pukf@-inf", "pukf", float("-inf"))
        assert parse_filter("pukf@inf")[2] == float("inf")

    def test_rejects_unknown_and_malformed(self):
        with pytest.raises(ConfigError):
            parse_filter("kf9000")
        with pytest.raises(ConfigError):
            parse_filter("ekf@3")
        with pytest.raises(ConfigError):
            parse_filter("pukf@abc")


# Filter specs whose parameter no filter can run with: NaN anywhere, and a
# count that is below its minimum, infinite or fractional.
INVALID_PARAMETERS = (
    "pukf@nan", "iekf@0", "ruf@-1", "iekf@inf", "pf@nan", "iekf@2.5", "pf@1",
)


class TestCampaignConfig:
    def test_validation(self):
        good = dict(scenario="polynomial", filters=("ekf",))
        CampaignConfig(**good)
        with pytest.raises(ConfigError):
            CampaignConfig(scenario="polynomial", filters=())
        with pytest.raises(ConfigError):
            CampaignConfig(**good, runs=0)
        with pytest.raises(ConfigError):
            CampaignConfig(**good, steps=0)
        with pytest.raises(ConfigError):
            CampaignConfig(**good, jobs=0)
        with pytest.raises(ConfigError):
            CampaignConfig(**good, format="xml")
        CampaignConfig(**good, ref_particles=2)
        for bad in (-1, 1):
            with pytest.raises(ConfigError):
                CampaignConfig(**good, ref_particles=bad)
        with pytest.raises(ConfigError):
            CampaignConfig(scenario="polynomial", filters=("nope",))
        for spec in INVALID_PARAMETERS:
            with pytest.raises(ConfigError):
                CampaignConfig(scenario="polynomial", filters=(spec,))

    def test_a_filter_listed_twice_is_rejected(self):
        # The label is the report key, so a repeated label would write every
        # row of that filter twice.
        for filters in (("ekf", "pukf@1", "ekf"), ("pukf@1", " pukf@1")):
            with pytest.raises(ConfigError, match="twice"):
                CampaignConfig(scenario="polynomial", filters=filters)
        # Different spellings of the same filter are different labels.
        CampaignConfig(scenario="polynomial", filters=("pukf", "pukf@1"))

    def test_hash_covers_semantics_only(self):
        base = CampaignConfig(scenario="polynomial", filters=("ekf",), runs=3, seed=7)
        same = CampaignConfig(
            scenario="polynomial", filters=("ekf",), runs=3, seed=7,
            out="/tmp/x.csv", format="json", jobs=4, include_timing=True,
        )
        assert config_hash(base) == config_hash(same)
        for change in (
            dict(seed=8),
            dict(runs=4),
            dict(filters=("ekf", "ukf")),
            dict(scenario="bearings_far_near"),
            dict(steps=3),
            dict(ref_particles=10),
        ):
            other = CampaignConfig(
                **{**dict(scenario="polynomial", filters=("ekf",), runs=3, seed=7), **change}
            )
            assert config_hash(base) != config_hash(other)

    def test_unknown_scenario_fails_at_run(self):
        cfg = CampaignConfig(scenario="who", filters=("ekf",), runs=1)
        with pytest.raises(ConfigError):
            run_campaign(cfg)


class TestRunCampaign:
    def test_all_filters_agree_on_linear_scenario(self):
        # on a linear-Gaussian problem every deterministic filter in the
        # registry is exactly the Kalman filter
        spec, h_mat, noise, f_mat, w = linear_scenario(steps=4)
        cfg = CampaignConfig(
            scenario="polynomial",  # placeholder; spec is injected
            filters=(
                "pukf@1", "pukf@-inf", "ekf", "ekf2", "ekf2n", "ukf",
                "iekf@5", "ruf@4",
            ),
            runs=3,
            steps=4,
            seed=5,
        )
        _, records = run_campaign(cfg, scenario_spec=spec)
        assert len(records) == 3
        for rec in records:
            by_filter = rec["filters"]
            base = by_filter["ekf"]["means"]
            for label, data in by_filter.items():
                assert data["diverged_at"] is None, label
                for t, mean in enumerate(data["means"]):
                    np.testing.assert_allclose(
                        mean, base[t], atol=5e-6,
                        err_msg=f"{label} step {t}",
                    )

    def test_linear_records_match_kalman_oracle(self):
        spec, h_mat, noise, f_mat, w = linear_scenario(steps=3)
        cfg = CampaignConfig(
            scenario="polynomial", filters=("ekf",), runs=1, steps=3, seed=2
        )
        _, records = run_campaign(cfg, scenario_spec=spec)
        # replay the same simulated measurements through a hand-rolled KF
        from pukf import simulate_truth

        ss = np.random.SeedSequence([2, 0])
        truth_rng = np.random.default_rng(ss.spawn(3)[0])
        sim = simulate_truth(spec, truth_rng)
        mean, cov = spec.prior.mean, spec.prior.cov
        for t, step in enumerate(sim):
            mean = f_mat @ mean
            cov = f_mat @ cov @ f_mat.T + w
            mean, cov = kalman_update(mean, cov, h_mat, noise, step.measurement.value)
            np.testing.assert_allclose(
                records[0]["filters"]["ekf"]["means"][t], mean, atol=1e-9
            )

    def test_wrong_shape_is_not_a_divergence(self):
        spec, h_mat, *_ = linear_scenario(steps=2)
        spec = replace_model(spec, 0, func=pointwise(lambda x: np.append(h_mat @ x, 0.0)))
        cfg = CampaignConfig(
            scenario="polynomial", filters=("pukf@1", "ekf2n"), runs=2, steps=2
        )
        with pytest.raises(ValueError):
            run_campaign(cfg, scenario_spec=spec)

    @pytest.mark.parametrize("label", ["pukf@1", "ekf2n", "ukf", "pf@50"])
    def test_wrong_shape_batch_is_not_a_divergence(self, label):
        # (N, 1) would broadcast against the 2-vector measurement; every
        # consumer of the vectorized map must refuse it, not diverge on it.
        spec, h_mat, *_ = linear_scenario(steps=2)
        spec = replace_model(spec, 0, func=lambda xs: (xs @ h_mat.T)[:, :1])
        cfg = CampaignConfig(scenario="polynomial", filters=(label,), runs=1, steps=2)
        with pytest.raises(ValueError, match="shape"):
            run_campaign(cfg, scenario_spec=spec)

    def test_non_finite_measurement_is_a_divergence(self):
        spec, *_ = linear_scenario(steps=4)
        spec = replace_model(spec, 2, func=lambda xs: np.full((len(xs), 2), np.nan))
        filters = (
            "pukf@1", "pukf@-inf", "ekf", "ekf2", "ekf2n", "ukf", "iekf@5", "ruf@4",
            "pf@200",
        )
        cfg = CampaignConfig(
            scenario="polynomial", filters=filters, runs=2, steps=4, seed=5
        )
        report, records = run_campaign(cfg, scenario_spec=spec)
        for rec in records:
            for label, data in rec["filters"].items():
                assert data["diverged_at"] == 2, label
                assert np.all(np.isfinite(data["errors"][:2])), label
                assert data["errors"][2:] == [np.inf, np.inf], label
        for label in filters:
            for p in DEFAULT_PROBS:
                assert np.isfinite(report.value(label, "error_q", 1, p)), label
                for t in (2, 3):
                    assert report.value(label, "error_q", t, p) == np.inf, (label, t, p)

    def test_singular_innovation_is_a_divergence(self):
        spec, h_mat, *_ = linear_scenario(steps=4)
        steep = np.zeros_like(h_mat)
        steep[0, 0] = 1e9  # S = J P J' + R has a condition number near 1e17
        # Each of these filters raises SingularInnovation from _solve_spd at
        # step 2 (the iterated EKF's residual goes NaN first with a NaN J).
        for jacobian, filters in (
            (np.full_like(h_mat, np.nan), ("ekf", "ekf2", "ruf@2")),
            (steep, ("ekf", "ekf2", "iekf@2", "ruf@2")),
        ):
            broken = replace_model(spec, 2, jacobian=lambda x, j=jacobian: j)
            cfg = CampaignConfig(
                scenario="polynomial", filters=filters, runs=2, steps=4, seed=5
            )
            _, records = run_campaign(cfg, scenario_spec=broken)
            for rec in records:
                for label, data in rec["filters"].items():
                    assert data["diverged_at"] == 2, label
                    assert data["errors"][2:] == [np.inf, np.inf], label

    def test_deterministic_output(self):
        cfg = CampaignConfig(
            scenario="polynomial", filters=("pukf@1", "ekf"), runs=3, steps=2, seed=1
        )
        report_a, _ = run_campaign(cfg)
        report_b, _ = run_campaign(cfg)
        assert _report_csv(report_a) == _report_csv(report_b)

    def test_parallel_matches_serial(self):
        for kwargs in (
            dict(scenario="polynomial", filters=("pukf@1", "ekf"), runs=4, steps=2, seed=3),
            dict(
                scenario="bearings_far_near", filters=("pukf@1", "ekf2", "pf@100"),
                runs=3, steps=3, seed=3, ref_particles=2000,
            ),
        ):
            serial, _ = run_campaign(CampaignConfig(**kwargs))
            parallel, _ = run_campaign(CampaignConfig(**kwargs, jobs=2))
            assert _report_csv(serial) == _report_csv(parallel), kwargs["scenario"]

    def test_kl_metric_present_with_reference(self):
        cfg = CampaignConfig(
            scenario="bearings_near_near",
            filters=("pukf@1",),
            runs=2,
            steps=2,
            seed=4,
            ref_particles=2000,
        )
        report, _ = run_campaign(cfg)
        kl = report.value("pukf@1", "kl_median", step="all")
        assert np.isfinite(kl) and kl > -0.05

    def test_timing_rows_opt_in(self):
        kwargs = dict(scenario="polynomial", filters=("ekf",), runs=1, steps=1)
        without, _ = run_campaign(CampaignConfig(**kwargs))
        with_timing, _ = run_campaign(CampaignConfig(**kwargs, include_timing=True))
        metrics = {r.metric for r in without.rows}
        assert "update_seconds_median" not in metrics
        metrics = {r.metric for r in with_timing.rows}
        assert "update_seconds_median" in metrics

    def test_flush_and_resume(self, tmp_path):
        for name, kwargs in (
            ("poly", dict(scenario="polynomial", filters=("ekf",))),
            ("ref", dict(
                scenario="bearings_far_near", filters=("pukf@1", "pf@100"),
                ref_particles=500,
            )),
        ):
            out = str(tmp_path / f"{name}.csv")
            cfg = CampaignConfig(**kwargs, runs=4, steps=2, seed=6, out=out)
            full, _ = run_campaign(cfg)
            partial_path = Path(out + ".runs.jsonl")
            lines = partial_path.read_text().splitlines()
            assert len(lines) == 4

            # keep two completed runs plus a torn final line, then resume
            partial_path.write_text(
                "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2]
            )
            resumed, _ = run_campaign(cfg)
            assert _report_csv(resumed) == _report_csv(full), name
            # the two salvaged runs were not redone: 2 kept + 2 new lines
            assert len(partial_path.read_text().splitlines()) == 4, name

    def test_resume_ignores_other_configs(self, tmp_path):
        out = str(tmp_path / "report.csv")
        cfg_a = CampaignConfig(
            scenario="polynomial", filters=("ekf",), runs=2, steps=1, seed=1, out=out
        )
        run_campaign(cfg_a)
        cfg_b = CampaignConfig(
            scenario="polynomial", filters=("ekf",), runs=2, steps=1, seed=2, out=out
        )
        report_b, _ = run_campaign(cfg_b)
        fresh, _ = run_campaign(
            CampaignConfig(
                scenario="polynomial", filters=("ekf",), runs=2, steps=1, seed=2
            )
        )
        assert _report_csv(report_b) == _report_csv(fresh)


class TestReports:
    def make_report(self):
        cfg = CampaignConfig(
            scenario="polynomial", filters=("pukf@1", "ekf"), runs=2, steps=2, seed=0
        )
        report, _ = run_campaign(cfg)
        return report

    def test_csv_schema(self):
        report = self.make_report()
        text = _report_csv(report)
        lines = text.splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert any(l.startswith("# config_hash=") for l in meta)
        assert any(l.startswith("# scenario=polynomial") for l in meta)
        assert body[0] == "scenario,filter,param,step,metric,p,value,runs,seed"
        first = body[1].split(",")
        assert first[0] == "polynomial"
        assert len(first) == 9
        # every data row parses back to the same float it came from
        values = [float(l.split(",")[6]) for l in body[1:]]
        assert all(np.isfinite(v) or np.isinf(v) for v in values)

    def test_json_roundtrip(self, tmp_path):
        report = self.make_report()
        path = str(tmp_path / "report.json")
        emit_report(report, path, format="json")
        loaded = read_report(path)
        assert loaded.meta == report.meta
        assert loaded.rows == report.rows

    def test_value_lookup(self):
        report = self.make_report()
        v = report.value("ekf", "coverage", step="all", p=0.5)
        assert 0.0 <= v <= 1.0
        with pytest.raises(KeyError):
            report.value("ekf", "no_such_metric")


class TestCli:
    def test_list_commands(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "polynomial" in out and "bearings_far_near" in out
        assert cli_main(["list-filters"]) == 0
        out = capsys.readouterr().out
        assert "pukf@<threshold>" in out and "ruf@<steps>" in out

    def test_run_to_stdout(self, capsys):
        code = cli_main(
            [
                "run", "--scenario", "polynomial", "--filters", "ekf",
                "--runs", "2", "--steps", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("#")
        assert "scenario,filter,param,step,metric,p,value,runs,seed" in out

    def test_run_with_config_file_and_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "polynomial",
                    "filters": "ekf,pukf@1",
                    "runs": 5,
                    "steps": 1,
                }
            )
        )
        out_path = tmp_path / "r.csv"
        code = cli_main(
            [
                "run", "--config", str(cfg_path), "--runs", "2",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        text = out_path.read_text()
        assert "# runs=2" in text  # flag overrode the file
        assert "pukf@1" in text

    def test_config_errors_exit_2(self, capsys):
        assert cli_main(["run", "--filters", "ekf"]) == 2  # no scenario
        assert cli_main(["run", "--scenario", "polynomial"]) == 2  # no filters
        assert (
            cli_main(["run", "--scenario", "nope", "--filters", "ekf", "--runs", "1"])
            == 2
        )
        assert (
            cli_main(["run", "--scenario", "polynomial", "--filters", "bogus"]) == 2
        )
        argv = ["run", "--scenario", "polynomial", "--runs", "1", "--steps", "2"]
        for spec in INVALID_PARAMETERS:
            assert cli_main(argv + ["--filters", spec]) == 2, spec

    def test_io_errors_exit_3(self, capsys):
        code = cli_main(
            [
                "run", "--scenario", "polynomial", "--filters", "ekf",
                "--runs", "1", "--steps", "1",
                "--out", "/nonexistent-dir/report.csv",
            ]
        )
        assert code == 3

    def test_json_format_to_stdout(self, capsys):
        code = cli_main(
            [
                "run", "--scenario", "polynomial", "--filters", "ekf",
                "--runs", "1", "--steps", "1", "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["scenario"] == "polynomial"
        assert {row["filter"] for row in payload["rows"]} == {"ekf"}

    def test_json_output(self, tmp_path):
        out_path = tmp_path / "r.json"
        code = cli_main(
            [
                "run", "--scenario", "polynomial", "--filters", "ekf",
                "--runs", "1", "--steps", "1", "--format", "json",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        loaded = read_report(str(out_path))
        assert loaded.meta["scenario"] == "polynomial"
