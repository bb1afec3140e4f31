"""Monte Carlo benchmark campaigns over scenarios and filter variants.

A campaign runs `runs` independent trajectories of a scenario, feeds the
identical measurement sequence of each run to every configured filter, and
aggregates error quantiles, ellipsoid coverage, and (optionally) gridded
KL divergence against a dense bootstrap-particle reference into a flat
report.  Everything is deterministic in (config, seed): per-run random
streams are derived as SeedSequence([seed, run_index]) children, so runs
can execute serially, in a process pool, or resume from a partial file and
produce the same bytes.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import baselines
from .core import GaussianState
from .errors import ConfigError, NonFiniteEvaluation, PukfError, ReportIoError
from .evaluation import DEFAULT_PROBS, Grid2D, error_quantiles, ellipsoid_coverage, kl_divergence_mass
from .linearization import ekf2_update_numerical
from .partitioned import PukfConfig, pukf_update
from .scenarios import (
    ScenarioSpec,
    scenario_bearings_far_near,
    scenario_bearings_near_near,
    scenario_polynomial,
    simulate_truth,
)

__all__ = [
    "SCENARIOS",
    "FILTERS",
    "CampaignConfig",
    "MetricRow",
    "MetricsReport",
    "parse_filter",
    "run_campaign",
    "format_report",
    "emit_report",
    "read_report",
    "config_hash",
]

SCENARIOS = {
    "polynomial": scenario_polynomial,
    "bearings_far_near": scenario_bearings_far_near,
    "bearings_near_near": scenario_bearings_near_near,
}


# ---------------------------------------------------------------------------
# Filter registry.  Each entry knows how to build a per-run adapter from the
# single scalar parameter allowed in a "name@param" spec string.


class _GaussianAdapter:
    """Kalman-style filter: exact linear prediction, then one update call."""

    def __init__(self, update):
        self._update = update

    def init(self, prior, rng):
        return prior

    def step(self, state, state_model, measurement, rng):
        return self._update(state_model.predict(state), measurement)

    def estimate(self, state):
        return state


class _ParticleAdapter:
    def __init__(self, particles):
        self.particles = int(particles)
        if self.particles < 2:
            raise ConfigError(f"pf needs at least 2 particles, got {particles}")

    def init(self, prior, rng):
        pts = prior.mean + baselines.sample_gaussian(rng, prior.cov, self.particles)
        return baselines.ParticleCloud.uniform(pts)

    def step(self, state, state_model, measurement, rng):
        cloud = baselines.bootstrap_pf_step(state, state_model, measurement, rng)
        if cloud.degenerate:
            raise NonFiniteEvaluation("no particle has a finite likelihood")
        return cloud

    def estimate(self, state):
        return GaussianState(state.mean(), state.cov())


def _build_pukf(threshold):
    cfg = PukfConfig(threshold=float(threshold))
    return _GaussianAdapter(lambda s, m: pukf_update(s, m, cfg)[0])


def _build_ruf(steps):
    n = int(steps)
    return _GaussianAdapter(lambda s, m: baselines.ruf_update(s, m, n))


def _build_iekf(iterations):
    n = int(iterations)
    return _GaussianAdapter(lambda s, m: baselines.iekf_update(s, m, n))


@dataclass(frozen=True)
class _FilterEntry:
    build: callable
    default: Optional[float]
    param_name: str
    doc: str


FILTERS = {
    "pukf": _FilterEntry(
        _build_pukf, 1.0, "threshold",
        "partitioned second-order update (param: nonlinearity threshold, "
        "accepts -inf/inf)",
    ),
    "ekf": _FilterEntry(
        lambda _=None: _GaussianAdapter(baselines.ekf_update),
        None, "", "first-order extended Kalman filter (analytic Jacobian)",
    ),
    "ekf2": _FilterEntry(
        lambda _=None: _GaussianAdapter(baselines.ekf2_update_analytic),
        None, "", "second-order extended Kalman filter (analytic Hessians)",
    ),
    "ekf2n": _FilterEntry(
        lambda _=None: _GaussianAdapter(ekf2_update_numerical),
        None, "", "second-order update from derivative-free probes",
    ),
    "ukf": _FilterEntry(
        lambda _=None: _GaussianAdapter(baselines.ukf_update),
        None, "", "unscented Kalman filter (alpha=1e-3, kappa=0, beta=2)",
    ),
    "iekf": _FilterEntry(
        _build_iekf, 10, "iterations", "iterated EKF (param: iterations)",
    ),
    "ruf": _FilterEntry(
        _build_ruf, 10, "steps", "recursive update filter (param: update steps)",
    ),
    "pf": _FilterEntry(
        _ParticleAdapter, 1000, "particles", "bootstrap particle filter "
        "(param: particle count)",
    ),
}


def parse_filter(text: str):
    """Parse "name" or "name@param" into (label, name, param).

    The label keeps the user's spelling and is the report key.
    """
    text = text.strip()
    name, sep, raw = text.partition("@")
    name = name.strip()
    if name not in FILTERS:
        raise ConfigError(
            f"unknown filter {name!r}; known: {', '.join(sorted(FILTERS))}"
        )
    entry = FILTERS[name]
    if sep:
        if not entry.param_name:
            raise ConfigError(f"filter {name!r} takes no parameter")
        try:
            param = float(raw)
        except ValueError:
            raise ConfigError(f"bad parameter {raw!r} for filter {name!r}") from None
    else:
        param = entry.default
    return text, name, param


def _build_adapter(name, param):
    entry = FILTERS[name]
    return entry.build(param) if entry.param_name else entry.build()


# ---------------------------------------------------------------------------
# Campaign configuration and report containers.


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a campaign.

    ``filters`` are spec strings ("pukf@0.1", "ruf@3", "ekf").  ``steps``
    of None uses the scenario default.  ``ref_particles`` of 0 disables
    the particle reference and the KL metric.  ``include_timing`` adds
    wall-clock rows, which are the only non-deterministic output.
    """

    scenario: str
    filters: tuple
    runs: int = 200
    steps: Optional[int] = None
    seed: int = 0
    ref_particles: int = 0
    jobs: int = 1
    out: Optional[str] = None
    format: str = "csv"
    include_timing: bool = False
    scenario_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if not self.filters:
            raise ConfigError("filter list must not be empty")
        if self.runs < 1:
            raise ConfigError(f"runs must be at least 1, got {self.runs}")
        if self.steps is not None and self.steps < 1:
            raise ConfigError(f"steps must be at least 1, got {self.steps}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if self.ref_particles < 0:
            raise ConfigError("ref_particles must be non-negative")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        for spec in self.filters:
            parse_filter(spec)


def config_hash(cfg: CampaignConfig) -> str:
    """Hash of the semantic fields; identifies partial results for resume."""
    semantic = {
        "scenario": cfg.scenario,
        "scenario_overrides": cfg.scenario_overrides,
        "filters": list(cfg.filters),
        "runs": cfg.runs,
        "steps": cfg.steps,
        "seed": cfg.seed,
        "ref_particles": cfg.ref_particles,
    }
    blob = json.dumps(semantic, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class MetricRow:
    filter: str
    param: str
    step: str
    metric: str
    p: str
    value: float


@dataclass(frozen=True)
class MetricsReport:
    meta: dict
    rows: tuple

    def value(self, filter: str, metric: str, step: str = "all", p=None) -> float:
        """Look up a single row's value; raises KeyError if absent."""
        want_p = "" if p is None else f"{p:g}"
        for row in self.rows:
            if (
                row.filter == filter
                and row.metric == metric
                and row.step == str(step)
                and row.p == want_p
            ):
                return row.value
        raise KeyError(f"no row for {filter} {metric} step={step} p={p}")


# ---------------------------------------------------------------------------
# Single-run execution.


def _resolve_scenario(cfg: CampaignConfig) -> ScenarioSpec:
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    try:
        spec = SCENARIOS[cfg.scenario](**cfg.scenario_overrides)
    except TypeError as exc:
        raise ConfigError(f"bad scenario overrides: {exc}") from None
    if cfg.steps is not None:
        spec = replace(spec, steps=cfg.steps)
    return spec


def _single_run(spec: ScenarioSpec, cfg: CampaignConfig, run_idx: int) -> dict:
    """Execute one run: simulate truth, drive every filter, collect metrics.

    Stream-splitting rule: SeedSequence([seed, run_idx]) spawns one child
    for the truth, one for the particle reference, then one per filter (in
    configured order; only stochastic filters draw from theirs).
    """
    ss = np.random.SeedSequence([cfg.seed, run_idx])
    children = ss.spawn(2 + len(cfg.filters))
    truth_rng = np.random.default_rng(children[0])
    ref_rng = np.random.default_rng(children[1])

    sim = simulate_truth(spec, truth_rng)
    parsed = [parse_filter(s) for s in cfg.filters]
    adapters = {label: _build_adapter(name, param) for label, name, param in parsed}
    filter_rngs = {
        label: np.random.default_rng(child)
        for (label, _, _), child in zip(parsed, children[2:])
    }

    states = {}
    record = {"run": run_idx, "filters": {}}
    for label, adapter in adapters.items():
        states[label] = adapter.init(spec.prior, filter_rngs[label])
        record["filters"][label] = {
            "errors": [],
            "coverage": {f"{p:g}": [] for p in DEFAULT_PROBS},
            "kl": [] if cfg.ref_particles else None,
            "means": [],
            "diverged_at": None,
            "update_seconds": [],
        }

    ref_cloud = None
    ref_degenerate = 0
    if cfg.ref_particles:
        pts = spec.prior.mean + baselines.sample_gaussian(
            ref_rng, spec.prior.cov, cfg.ref_particles
        )
        ref_cloud = baselines.ParticleCloud.uniform(pts)

    for t, (truth, measurement) in enumerate(sim):
        estimates = {}
        for label, adapter in adapters.items():
            rec = record["filters"][label]
            est = None
            if rec["diverged_at"] is None:
                t0 = time.perf_counter()
                try:
                    states[label] = adapter.step(
                        states[label], spec.state_model, measurement,
                        filter_rngs[label],
                    )
                    est = adapter.estimate(states[label])
                except (PukfError, np.linalg.LinAlgError):
                    rec["diverged_at"] = t
                else:
                    rec["update_seconds"].append(time.perf_counter() - t0)
            estimates[label] = est
            if est is None:
                rec["errors"].append(math.inf)
                rec["means"].append(None)
                inside = [False] * len(DEFAULT_PROBS)
            else:
                rec["errors"].append(float(np.linalg.norm(est.mean - truth)))
                rec["means"].append([float(v) for v in est.mean])
                try:
                    inside = ellipsoid_coverage(truth, est, DEFAULT_PROBS)
                except PukfError:
                    inside = [False] * len(DEFAULT_PROBS)
            for p, ok in zip(DEFAULT_PROBS, inside):
                rec["coverage"][f"{p:g}"].append(bool(ok))

        if ref_cloud is not None:
            weighted = baselines.weight_particles(
                ref_cloud, spec.state_model, measurement, ref_rng
            )
            ref_degenerate += weighted.degenerate
            grid = Grid2D.from_cloud(weighted)
            mass = grid.mass(weighted)
            for label in adapters:
                rec = record["filters"][label]
                est = estimates[label]
                if est is None:
                    rec["kl"].append(math.inf)
                else:
                    rec["kl"].append(kl_divergence_mass(mass, est, grid))
            idx = baselines.systematic_resample(weighted.weights, ref_rng)
            ref_cloud = baselines.ParticleCloud.uniform(weighted.particles[idx])

    record["ref_degenerate_steps"] = ref_degenerate
    return record


def _run_payload(payload):
    """Process-pool entry point: rebuild the config and run one index."""
    cfg_dict, run_idx = payload
    cfg = CampaignConfig(**cfg_dict)
    spec = _resolve_scenario(cfg)
    return _single_run(spec, cfg, run_idx)


# ---------------------------------------------------------------------------
# Aggregation.


def _aggregate(cfg: CampaignConfig, spec: ScenarioSpec, records: list) -> MetricsReport:
    records = sorted(records, key=lambda r: r["run"])
    steps = spec.steps
    parsed = [parse_filter(s) for s in cfg.filters]
    rows = []
    warnings = []

    for label, name, param in parsed:
        param_str = "" if param is None else f"{param:g}"
        recs = [r["filters"][label] for r in records]

        for t in range(steps):
            errs = [r["errors"][t] for r in recs]
            qs = error_quantiles(errs, DEFAULT_PROBS)
            for p, q in zip(DEFAULT_PROBS, qs):
                rows.append(
                    MetricRow(label, param_str, str(t), "error_q", f"{p:g}", float(q))
                )

        for p in DEFAULT_PROBS:
            key = f"{p:g}"
            per_step = []
            for t in range(steps):
                flags = [r["coverage"][key][t] for r in recs]
                frac = float(np.mean(flags))
                per_step.append(frac)
                rows.append(MetricRow(label, param_str, str(t), "coverage", key, frac))
            pooled = [
                r["coverage"][key][t] for r in recs for t in range(steps)
            ]
            rows.append(
                MetricRow(label, param_str, "all", "coverage", key, float(np.mean(pooled)))
            )

        if cfg.ref_particles:
            pooled_kl = []
            for t in range(steps):
                kls = [r["kl"][t] for r in recs]
                pooled_kl.extend(kls)
                rows.append(
                    MetricRow(
                        label, param_str, str(t), "kl_median", "", float(np.median(kls))
                    )
                )
            rows.append(
                MetricRow(
                    label, param_str, "all", "kl_median", "", float(np.median(pooled_kl))
                )
            )

        diverged = sum(1 for r in recs if r["diverged_at"] is not None)
        rows.append(
            MetricRow(label, param_str, "all", "divergences", "", float(diverged))
        )

        if cfg.include_timing:
            times = [s for r in recs for s in r["update_seconds"]]
            med = float(np.median(times)) if times else math.nan
            rows.append(
                MetricRow(label, param_str, "all", "update_seconds_median", "", med)
            )

    degenerate = sum(r.get("ref_degenerate_steps", 0) for r in records)
    if degenerate:
        warnings.append(f"reference weights degenerate in {degenerate} steps")

    meta = {
        "scenario": spec.name,
        "runs": cfg.runs,
        "steps": steps,
        "seed": cfg.seed,
        "ref_particles": cfg.ref_particles,
        "filters": list(cfg.filters),
        "config_hash": config_hash(cfg),
        "warnings": warnings,
    }
    return MetricsReport(meta=meta, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Campaign driver with flush/resume.


def _partial_path(out: str) -> str:
    return out + ".runs.jsonl"


def _load_partial(path: str, want_hash: str) -> dict:
    done = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line from an interrupted campaign
                if entry.get("config_hash") == want_hash:
                    done[entry["record"]["run"]] = entry["record"]
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise ReportIoError(f"cannot read partial results {path!r}: {exc}") from None
    return done


def run_campaign(
    cfg: CampaignConfig, scenario_spec: Optional[ScenarioSpec] = None
) -> tuple[MetricsReport, list]:
    """Execute a campaign and return (report, per-run records).

    ``scenario_spec`` injects a prebuilt scenario (useful for ad-hoc
    models); it forces serial execution since closures do not cross
    process boundaries.  When ``cfg.out`` is set, completed runs are
    appended to ``<out>.runs.jsonl`` as they finish and are reused by a
    rerun of the same semantic config.
    """
    if scenario_spec is not None:
        spec = scenario_spec
        if cfg.steps is not None:
            spec = replace(spec, steps=cfg.steps)
    else:
        spec = _resolve_scenario(cfg)

    want_hash = config_hash(cfg)
    done = {}
    flush_fh = None
    if cfg.out:
        partial = _partial_path(cfg.out)
        done = _load_partial(partial, want_hash)
        try:
            flush_fh = open(partial, "a", encoding="utf-8")
        except OSError as exc:
            raise ReportIoError(f"cannot open {partial!r} for append: {exc}") from None

    pending = [i for i in range(cfg.runs) if i not in done]
    records = [done[i] for i in sorted(done) if i < cfg.runs]

    def flush(rec):
        if flush_fh is not None:
            flush_fh.write(
                json.dumps({"config_hash": want_hash, "record": rec}) + "\n"
            )
            flush_fh.flush()

    try:
        if cfg.jobs > 1 and scenario_spec is None and len(pending) > 1:
            cfg_dict = asdict(cfg)
            with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                futures = {
                    pool.submit(_run_payload, (cfg_dict, i)): i for i in pending
                }
                for fut in concurrent.futures.as_completed(futures):
                    rec = fut.result()
                    records.append(rec)
                    flush(rec)
        else:
            for i in pending:
                rec = _single_run(spec, cfg, i)
                records.append(rec)
                flush(rec)
    finally:
        if flush_fh is not None:
            flush_fh.close()

    report = _aggregate(cfg, spec, records)
    return report, sorted(records, key=lambda r: r["run"])


# ---------------------------------------------------------------------------
# Report serialization.

_CSV_COLUMNS = ["scenario", "filter", "param", "step", "metric", "p", "value", "runs", "seed"]


def _report_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    for key in sorted(report.meta):
        if key == "filters":
            buf.write(f"# {key}={','.join(report.meta[key])}\n")
        elif key == "warnings":
            for w in report.meta[key]:
                buf.write(f"# warning={w}\n")
        else:
            buf.write(f"# {key}={report.meta[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in report.rows:
        writer.writerow(
            [
                report.meta["scenario"],
                row.filter,
                row.param,
                row.step,
                row.metric,
                row.p,
                repr(row.value),
                report.meta["runs"],
                report.meta["seed"],
            ]
        )
    return buf.getvalue()


def _report_json(report: MetricsReport) -> str:
    payload = {"meta": report.meta, "rows": [asdict(r) for r in report.rows]}
    return json.dumps(payload, indent=1)


def format_report(report: MetricsReport, format: str = "csv") -> str:
    """The report as csv or json text."""
    if format == "csv":
        return _report_csv(report)
    if format == "json":
        return _report_json(report)
    raise ConfigError(f"format must be csv or json, got {format!r}")


def emit_report(report: MetricsReport, out: str, format: str = "csv") -> str:
    """Write the report to ``out`` in csv or json form; returns the path."""
    text = format_report(report, format)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ReportIoError(f"cannot write report {out!r}: {exc}") from None
    return out


def read_report(path: str) -> MetricsReport:
    """Read back a JSON report; inverse of emit_report(format="json")."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ReportIoError(f"cannot read report {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ReportIoError(f"report {path!r} is not valid JSON: {exc}") from None
    rows = tuple(MetricRow(**r) for r in payload["rows"])
    return MetricsReport(meta=payload["meta"], rows=rows)
