import ctypes
import dataclasses
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pukf import (
    FILTERS,
    SCENARIOS,
    AnalyticMeasurementModel,
    CampaignConfig,
    ConfigError,
    DEFAULT_PROBS,
    GaussianState,
    LinearStateModel,
    NumericalFailure,
    ScenarioSpec,
    config_hash,
    emit_report,
    matrix_sqrt,
    parse_filter,
    read_report,
    run_campaign,
    sample_gaussian,
)
from pukf.cli import main as cli_main
from pukf.harness import _report_csv

from helpers import kalman_update, pointwise, random_spd


def linear_scenario():
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
    ), h_mat, noise, f_mat, w


def replace_model(spec, steps, from_step, **fields):
    """``spec`` with ``fields`` of its measurement models replaced from
    ``from_step`` on, in runs of ``steps`` steps."""
    steps_seen = itertools.count()

    def generator(truth, rng):
        model = spec.measurement_generator(truth, rng)
        if next(steps_seen) % steps < from_step:
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

# Count fields that are not integers; each must be a ConfigError up front,
# not a TypeError from range() or a failure when the first run starts.
NON_INTEGER_COUNTS = (
    dict(runs=2.5), dict(runs=2.0), dict(runs="2"), dict(runs=True),
    dict(steps=1.5), dict(steps=None), dict(jobs=1.5), dict(ref_particles=2.5),
    dict(ref_particles=20000.0), dict(seed=1.5), dict(seed="0"),
)

# Other fields of the wrong kind or range; each must be a ConfigError up
# front, not a ValueError from SeedSequence or an AttributeError from a spec.
BAD_FIELDS = (
    dict(seed=-1), dict(filters=(1,)), dict(filters=("ekf", None)),
    dict(include_timing="no"), dict(include_timing=1),
    # Mistyped fields that a config file can hold: each a ConfigError here,
    # not a TypeError where the harness first uses the field.
    dict(filters=5), dict(out=5), dict(scenario=["polynomial"]),
)


class TestCampaignConfig:
    def test_validation(self):
        good = dict(scenario="polynomial", filters=("ekf",))
        CampaignConfig(**good)
        # one comma-separated string, as the command line gives the filters
        assert CampaignConfig(**{**good, "filters": "ekf,pukf@1,"}).filters == ("ekf", "pukf@1")
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
        for counts in NON_INTEGER_COUNTS:
            with pytest.raises(ConfigError, match="integer"):
                CampaignConfig(**good, **counts)
        for fields in BAD_FIELDS:
            with pytest.raises(ConfigError):
                CampaignConfig(**{**good, **fields})
        CampaignConfig(**good, runs=np.int64(2), ref_particles=0, seed=np.uint32(7))

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
        spec, h_mat, noise, f_mat, w = linear_scenario()
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
        spec, h_mat, noise, f_mat, w = linear_scenario()
        cfg = CampaignConfig(
            scenario="polynomial", filters=("ekf",), runs=1, steps=3, seed=2
        )
        _, records = run_campaign(cfg, scenario_spec=spec)
        # replay the same simulated measurements through a hand-rolled KF
        from pukf import simulate_truth

        ss = np.random.SeedSequence([2, 0])
        truth_rng = np.random.default_rng(ss.spawn(3)[0])
        sim = simulate_truth(spec, 3, truth_rng)
        mean, cov = spec.prior.mean, spec.prior.cov
        for t, step in enumerate(sim):
            mean = f_mat @ mean
            cov = f_mat @ cov @ f_mat.T + w
            mean, cov = kalman_update(mean, cov, h_mat, noise, step.measurement.value)
            np.testing.assert_allclose(
                records[0]["filters"]["ekf"]["means"][t], mean, atol=1e-9
            )

    def test_wrong_shape_is_not_a_divergence(self):
        spec, h_mat, *_ = linear_scenario()
        spec = replace_model(spec, 2, 0, func=pointwise(lambda x: np.append(h_mat @ x, 0.0)))
        cfg = CampaignConfig(
            scenario="polynomial", filters=("pukf@1", "ekf2n"), runs=2, steps=2
        )
        with pytest.raises(ValueError):
            run_campaign(cfg, scenario_spec=spec)

    @pytest.mark.parametrize("label", ["pukf@1", "ekf2n", "ukf", "pf@50"])
    def test_wrong_shape_batch_is_not_a_divergence(self, label):
        # (N, 1) would broadcast against the 2-vector measurement; every
        # consumer of the vectorized map must refuse it, not diverge on it.
        spec, h_mat, *_ = linear_scenario()
        spec = replace_model(spec, 2, 0, func=lambda xs: (xs @ h_mat.T)[:, :1])
        cfg = CampaignConfig(scenario="polynomial", filters=(label,), runs=1, steps=2)
        with pytest.raises(ValueError, match="shape"):
            run_campaign(cfg, scenario_spec=spec)

    @pytest.mark.parametrize("label", ["pukf@1", "ekf2n", "ukf", "pf@50"])
    def test_non_numerical_error_is_not_a_divergence(self, label):
        # Only NumericalFailure books a divergence; any other PukfError from
        # a filter step reaches the caller.
        spec, *_ = linear_scenario()

        def misconfigured(xs):
            raise ConfigError("measurement function misconfigured")

        spec = replace_model(spec, 4, 2, func=misconfigured)
        cfg = CampaignConfig(scenario="polynomial", filters=(label,), runs=1, steps=4)
        with pytest.raises(ConfigError, match="misconfigured"):
            run_campaign(cfg, scenario_spec=spec)

    def test_non_finite_measurement_is_a_divergence(self):
        spec, h_mat, *_ = linear_scenario()
        filters = (
            "pukf@1", "pukf@-inf", "ekf", "ekf2", "ekf2n", "ukf", "iekf@5", "ruf@4",
            "pf@200",
        )
        cfg = CampaignConfig(
            scenario="polynomial", filters=filters, runs=2, steps=4, seed=5
        )
        # A NaN map, and a gain that overflows the posterior mean.
        for fields in (
            dict(func=lambda xs: np.full((len(xs), 2), np.nan)), overflowing_gain(h_mat),
        ):
            report, records = run_campaign(cfg, replace_model(spec, 4, 2, **fields))
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
        spec, h_mat, *_ = linear_scenario()
        steep = np.zeros_like(h_mat)
        steep[0, 0] = 1e9  # S = J P J' + R has a condition number near 1e17
        # Each of these filters raises SingularInnovation from _solve_spd at
        # step 2 (the iterated EKF's residual goes NaN first with a NaN J).
        for jacobian, filters in (
            (np.full_like(h_mat, np.nan), ("ekf", "ekf2", "ruf@2")),
            (steep, ("ekf", "ekf2", "iekf@2", "ruf@2")),
        ):
            broken = replace_model(spec, 4, 2, jacobian=lambda x, j=jacobian: j)
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

    def test_kl_reference_on_a_one_dimensional_state_is_a_config_error(self, tmp_path):
        # The KL bins state dimensions 0 and 1, so a 1-D state has no position
        # plane; the campaign stops before its first run, and writes nothing.
        spec = ScenarioSpec(
            name="scalar",
            prior=GaussianState([0.0], [[1.0]]),
            state_model=LinearStateModel([[1.0]], [[0.1]]),
            measurement_generator=lambda truth, rng: AnalyticMeasurementModel(
                func=lambda x: x, value=truth + rng.normal(size=1), noise_cov=[[0.5]],
                jacobian=lambda x: np.eye(1), hessians=lambda x: np.zeros((1, 1, 1)),
            ),
        )
        out = tmp_path / "scalar.csv"
        cfg = CampaignConfig(
            scenario="polynomial", filters=("ekf",), runs=2, steps=2, ref_particles=100,
            out=str(out),
        )
        with pytest.raises(ConfigError, match="dimensions 0 and 1"):
            run_campaign(cfg, scenario_spec=spec)
        assert not (tmp_path / "scalar.csv.runs.jsonl").exists()
        # Without the reference the same scenario runs.
        _, records = run_campaign(dataclasses.replace(cfg, ref_particles=0, out=None), spec)
        assert [rec["filters"]["ekf"]["diverged_at"] for rec in records] == [None, None]

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

    def test_resume_recomputes_runs_of_other_code(self, tmp_path):
        out = str(tmp_path / "report.csv")
        cfg = CampaignConfig(
            scenario="polynomial", filters=("pukf@1", "ekf"), runs=3, steps=2, seed=3, out=out
        )
        fresh, _ = run_campaign(dataclasses.replace(cfg, out=None))
        run_campaign(cfg)
        partial_path = Path(out + ".runs.jsonl")
        # the same config hash, but stored by other code and with other numbers
        lines = []
        for line in partial_path.read_text().splitlines():
            entry = json.loads(line)
            assert len(entry["code"]) == 16
            entry["code"] = "0" * 16
            for rec in entry["record"]["filters"].values():
                rec["errors"] = [e + 1.0 for e in rec["errors"]]
            lines.append(json.dumps(entry))
        partial_path.write_text("\n".join(lines) + "\n")
        resumed, _ = run_campaign(cfg)
        assert _report_csv(resumed) == _report_csv(fresh)
        assert len(partial_path.read_text().splitlines()) == 6  # all three redone

    @pytest.mark.parametrize("package", [np, scipy])
    def test_resume_recomputes_runs_under_other_versions(self, tmp_path, monkeypatch, package):
        # numpy's and scipy's BLAS paths can move report bits, so a run
        # stored under other versions of either is not reused
        cfg = CampaignConfig(
            scenario="polynomial", filters=("ekf",), runs=2, steps=1, seed=3,
            out=str(tmp_path / "report.csv"),
        )
        run_campaign(cfg)
        monkeypatch.setattr(package, "__version__", "0.0.0")
        run_campaign(cfg)
        lines = Path(cfg.out + ".runs.jsonl").read_text().splitlines()
        assert len(lines) == 4  # both runs redone
        assert len({json.loads(line)["code"] for line in lines}) == 2

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


# Every registered filter, with the parameters the campaigns use.
STEP_SPECS = (
    "pukf@-inf", "pukf@0.1", "pukf@1", "pukf@inf", "ekf", "ekf2", "ekf2n", "ukf",
    "iekf@10", "ruf@10", "pf@50",
)


def chained_steps(text, seed, log_prior, log_noise, scenario):
    """Three chained steps of one filter from a scaled prior: the numerical
    failure a step raised, or None; every belief before it is finite.

    Prior and process noise are scaled together, so the predicted prior keeps
    the scale; about 30% of the bearings priors sit on a near sensor."""
    _, name, param = parse_filter(text)
    spec = SCENARIOS[scenario]()
    rng = np.random.default_rng(seed)
    scale = 10.0**log_prior
    mean = spec.prior.mean.copy()
    if scenario != "polynomial" and rng.random() < 0.3:
        mean[:2] = (2.0, 2.0)
    prior = GaussianState(mean, scale * spec.prior.cov)
    dynamics = LinearStateModel(
        spec.state_model.transition, scale * spec.state_model.noise_cov
    )
    truth = mean + matrix_sqrt(prior.cov) @ rng.normal(size=mean.size)
    adapter = FILTERS[name].build(param)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = adapter.init(prior, rng)
        for _ in range(3):
            model = spec.measurement_generator(truth, rng)
            model = dataclasses.replace(model, noise_cov=10.0**log_noise * model.noise_cov)
            try:
                state = adapter.step(state, dynamics, model, rng)
                est = adapter.estimate(state)
            except NumericalFailure as exc:
                return exc
            assert np.isfinite(est.mean).all() and np.isfinite(est.cov).all()
            truth = dynamics.transition @ truth + sample_gaussian(rng, dynamics.noise_cov, 1)[0]
    return None


@pytest.mark.parametrize("text", STEP_SPECS)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_prior=st.floats(-10.0, 10.0),
    log_noise=st.floats(-8.0, 0.0),
    scenario=st.sampled_from(["polynomial", "bearings_far_near", "bearings_near_near"]),
)
def test_a_step_returns_a_finite_belief_or_fails_numerically(
    text, seed, log_prior, log_noise, scenario
):
    # Three chained steps, so later steps start from a belief a filter made.
    chained_steps(text, seed, log_prior, log_noise, scenario)


@pytest.mark.parametrize("text", ["pukf@-inf", "pukf@0.1", "pukf@1", "pukf@inf"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_prior=st.floats(-10.0, 10.0),
    log_noise=st.floats(-8.0, 0.0),
)
def test_pukf_holds_up_to_a_prior_noise_ratio_of_1e6(text, seed, log_prior, log_noise):
    # The partitioned update's robustness envelope on polynomial: its first
    # failures (tools/envelope.py) come at ratios near 1e8, where every
    # one-shot second-order update already fails in most cases; 1e6 leaves
    # two decades of margin.
    assume(log_prior - log_noise <= 6.0)
    assert chained_steps(text, seed, log_prior, log_noise, "polynomial") is None


def overflowing_gain(a):
    """Model fields of the linear map 1e-200 a x with value 1e300 and noise
    1e-300 I: the innovation is the noise, so a gain near 1e100 meets a
    residual of 1e300 and the posterior mean overflows."""
    d, n = a.shape
    tiny = 1e-200 * a
    return dict(
        func=lambda xs: xs @ tiny.T, value=np.full(d, 1e300), noise_cov=1e-300 * np.eye(d),
        jacobian=lambda x: tiny, hessians=lambda x: np.zeros((d, n, n)),
    )


def one_step(text, prior, state_model, model, rng):
    """The estimate after one step of a filter from ``prior``; a warning is an error."""
    _, name, param = parse_filter(text)
    adapter = FILTERS[name].build(param)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = adapter.step(adapter.init(prior, rng), state_model, model, rng)
        return adapter.estimate(state)


@pytest.mark.parametrize("text", STEP_SPECS)
def test_an_overflowing_prior_fails_numerically(text):
    # At these scales the second-order probe statistics of the polynomial
    # map overflow; a filter must book that as a numerical failure, with no
    # warning, and not raise a ValueError that would stop the campaign.
    spec = SCENARIOS["polynomial"]()
    # At 10^152.4 the spread correction is finite, up to 1.5e308, but the sum
    # of it and its transpose is not: symmetrize halves before it adds.
    for log_scale in (152.4, 160, 200, 250, 300):
        rng = np.random.default_rng(int(log_scale))
        prior = GaussianState(spec.prior.mean, 10.0**log_scale * spec.prior.cov)
        model = spec.measurement_generator(spec.prior.mean, rng)
        try:
            est = one_step(text, prior, spec.state_model, model, rng)
        except NumericalFailure:
            continue
        assert np.isfinite(est.mean).all() and np.isfinite(est.cov).all()
    # A prior mean that far_near's constant-velocity prediction overflows.
    far_near = SCENARIOS["bearings_far_near"]()
    rng = np.random.default_rng(0)
    prior = GaussianState(np.full(4, 1.5e308), far_near.prior.cov)
    model = far_near.measurement_generator(far_near.prior.mean, rng)
    with pytest.raises(NumericalFailure):
        one_step(text, prior, far_near.state_model, model, rng)
    # A posterior mean that overflows, on the polynomial's linear part.
    model = spec.measurement_generator(spec.prior.mean, rng)
    model = dataclasses.replace(model, **overflowing_gain(model.jacobian(spec.prior.mean)))
    with pytest.raises(NumericalFailure):
        one_step(text, spec.prior, spec.state_model, model, rng)


def bundled_blas_threads():
    """(get, set) thread-count functions of the OpenBLAS bundled in
    numpy.libs (64-bit interface) and scipy.libs, where they exist."""
    found = []
    for package, suffix in (("numpy", "64_"), ("scipy", "")):
        site = Path(__import__(package).__file__).parent.parent
        for path in site.glob(f"{package}.libs/libscipy_openblas*.so"):
            lib = ctypes.CDLL(str(path))
            try:
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((get, set_))
    return found


class TestBlasThreads:
    """run_campaign runs each bundled OpenBLAS with one thread and restores
    the previous counts when it returns and when it raises."""

    def counts(self):
        found = bundled_blas_threads()
        if not found:
            pytest.skip("no bundled OpenBLAS with thread-count symbols here")
        return found

    def spec_seeing_threads(self, seen, fail=False):
        counts = self.counts()
        base = linear_scenario()[0]

        def generator(truth, rng):
            seen.append([get() for get, _ in counts])
            if fail:
                raise RuntimeError("generator failed")
            return base.measurement_generator(truth, rng)

        return dataclasses.replace(base, measurement_generator=generator)

    @pytest.mark.parametrize("fail", [False, True])
    def test_one_thread_inside_and_restored_after(self, fail):
        counts = self.counts()
        original = [get() for get, _ in counts]
        seen = []
        spec = self.spec_seeing_threads(seen, fail=fail)
        cfg = CampaignConfig(scenario="linear", filters=("ekf",), runs=2, steps=2)
        try:
            for _, set_ in counts:
                set_(2)
            if fail:
                with pytest.raises(RuntimeError, match="generator failed"):
                    run_campaign(cfg, spec)
            else:
                run_campaign(cfg, spec)
            after = [get() for get, _ in counts]
        finally:
            for (_, set_), n in zip(counts, original):
                set_(n)
        assert seen and all(inside == [1] * len(counts) for inside in seen)
        assert after == [2] * len(counts)


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


# Reports of three small campaigns, each written by
#   pukf-bench run --scenario <scenario> --filters <filters>
#       --runs 2 --steps 4 --seed 1 [--ref-particles 20000] --out <file>
# The far_near report with the particle reference was written before the
# reference kernels were rewritten (histogram2d binning, searchsorted
# resampling, multivariate_normal draws, cho_solve weights); the polynomial
# report pins the 6-d filter path (pukf@-inf's six rounds, ekf2n, iekf); the
# near_near report, written before the probe-based EKF2 update was folded into
# one function, pins the scenario with the most bearings rounds.
GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_CAMPAIGNS = {
    "bearings_far_near_ref_small.csv": dict(
        scenario="bearings_far_near",
        filters=(
            "pukf@-inf", "pukf@0.1", "pukf@1", "pukf@inf", "ekf2", "ruf@3", "ruf@10",
            "ukf",
        ),
        ref_particles=20_000,
    ),
    "bearings_near_near_ref_small.csv": dict(
        scenario="bearings_near_near",
        filters=(
            "pukf@-inf", "pukf@0.1", "pukf@1", "pukf@inf", "ekf2", "ruf@3", "ruf@10",
            "ukf",
        ),
        ref_particles=20_000,
    ),
    "polynomial_small.csv": dict(
        scenario="polynomial",
        filters=("pukf@0.1", "pukf@1", "pukf@-inf", "ekf2n", "ekf", "iekf@10", "ukf"),
    ),
}


@pytest.mark.parametrize("golden", list(GOLDEN_CAMPAIGNS))
def test_reference_campaign_report_is_byte_identical(tmp_path, golden):
    cfg = CampaignConfig(runs=2, steps=4, seed=1, **GOLDEN_CAMPAIGNS[golden])
    report, _ = run_campaign(cfg)
    out = emit_report(report, str(tmp_path / "report.csv"))
    assert Path(out).read_bytes() == (GOLDEN_DIR / golden).read_bytes()


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

    def test_config_errors_exit_2(self, capsys, tmp_path):
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
        path = tmp_path / "config.json"
        for counts in NON_INTEGER_COUNTS:
            fields = dict(scenario="polynomial", filters=["ekf"], runs=1, steps=1)
            path.write_text(json.dumps({**fields, **counts}))
            assert cli_main(["run", "--config", str(path)]) == 2, counts
            assert "integer" in capsys.readouterr().err
        for bad in BAD_FIELDS:
            fields = dict(scenario="polynomial", filters=["ekf"], runs=1, steps=1)
            path.write_text(json.dumps({**fields, **bad}))
            assert cli_main(["run", "--config", str(path)]) == 2, bad
        assert cli_main(argv + ["--filters", "ekf", "--seed", "-1"]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"steps": 0},  # the run length is the campaign's alone
            {"noise_std_deg": 0},
            {"noise_std_deg": float("nan")},
            {"noise_std_deg": -1},
            {"sensors": [1.0, 2.0]},
        ],
        ids=["steps", "noise_zero", "noise_nan", "noise_negative", "sensors_flat"],
    )
    def test_bad_scenario_overrides_exit_2(self, tmp_path, capsys, overrides):
        path = tmp_path / "config.json"
        fields = dict(scenario="bearings_far_near", filters=["ekf"], runs=1, steps=1)
        path.write_text(json.dumps({**fields, "scenario_overrides": overrides}))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "bad scenario overrides" in capsys.readouterr().err

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
