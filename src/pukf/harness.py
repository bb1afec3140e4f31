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
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import baselines
from .core import GaussianState
from .errors import ConfigError, NonFiniteEvaluation, NumericalFailure, ReportIoError
from .evaluation import DEFAULT_PROBS, Grid2D, error_quantiles, ellipsoid_coverage, kl_divergence_mass
from .linearization import ekf2_update_numerical
from .partitioned import pukf_update
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
# Filter registry.  Each entry builds a per-run adapter from the parsed
# parameter of a "name@param" spec string (None for filters without one).
# Builders look the update function up when a run builds the filter, so a
# module attribute swapped after import (the benchmark's tracer does this)
# is the one that runs.  A step is judged by the belief it returns, a
# non-finite one being a NumericalFailure, so its overflows do not warn.
_QUIET = np.errstate(over="ignore", invalid="ignore")


class _GaussianAdapter:
    """Kalman-style filter: exact linear prediction, then one update call."""

    def __init__(self, update):
        self._update = update

    def init(self, prior, rng):
        return prior

    @_QUIET
    def step(self, state, state_model, measurement, rng):
        return self._update(state_model.predict(state), measurement)

    def estimate(self, state):
        return state


def _count(param, least: int, what: str) -> int:
    """``param`` as an integer count of at least ``least``, else ConfigError."""
    if not (param >= least and float(param).is_integer()):
        raise ConfigError(f"{what} must be an integer of at least {least}, got {param:g}")
    return int(param)


class _ParticleAdapter:
    def __init__(self, particles):
        self.particles = _count(particles, 2, "pf particles")

    def init(self, prior, rng):
        pts = prior.mean + baselines.sample_gaussian(rng, prior.cov, self.particles)
        return baselines.ParticleCloud.uniform(pts)

    @_QUIET
    def step(self, state, state_model, measurement, rng):
        cloud = baselines.bootstrap_pf_step(state, state_model, measurement, rng)
        if cloud.degenerate:
            raise NonFiniteEvaluation("no particle has a finite likelihood")
        return cloud

    @_QUIET
    def estimate(self, state):
        return GaussianState(state.mean(), state.cov())


@dataclass(frozen=True)
class _FilterEntry:
    build: callable
    default: Optional[float]
    param_name: str
    doc: str


FILTERS = {
    "pukf": _FilterEntry(
        lambda t: _GaussianAdapter(lambda s, m: pukf_update(s, m, t)[0]),
        1.0, "threshold",
        "partitioned second-order update (param: nonlinearity threshold, "
        "accepts -inf/inf)",
    ),
    "ekf": _FilterEntry(
        lambda _: _GaussianAdapter(baselines.ekf_update),
        None, "", "first-order extended Kalman filter (analytic Jacobian)",
    ),
    "ekf2": _FilterEntry(
        lambda _: _GaussianAdapter(baselines.ekf2_update_analytic),
        None, "", "second-order extended Kalman filter (analytic Hessians)",
    ),
    "ekf2n": _FilterEntry(
        lambda _: _GaussianAdapter(ekf2_update_numerical),
        None, "", "second-order update from derivative-free probes",
    ),
    "ukf": _FilterEntry(
        lambda _: _GaussianAdapter(baselines.ukf_update),
        None, "", "unscented Kalman filter (alpha=1e-3, kappa=0, beta=2)",
    ),
    "iekf": _FilterEntry(
        lambda n: _GaussianAdapter(
            partial(baselines.iekf_update, iterations=_count(n, 1, "iekf iterations"))
        ),
        10, "iterations", "iterated EKF (param: iterations)",
    ),
    "ruf": _FilterEntry(
        lambda n: _GaussianAdapter(
            partial(baselines.ruf_update, steps=_count(n, 1, "ruf steps"))
        ),
        10, "steps", "recursive update filter (param: update steps)",
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
        if math.isnan(param):
            raise ConfigError(f"filter {name!r} takes no NaN parameter")
    else:
        param = entry.default
    return text, name, param


# ---------------------------------------------------------------------------
# Campaign configuration and report containers.


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a campaign.

    ``filters`` are spec strings ("pukf@0.1", "ruf@3", "ekf"), a list or one comma-separated
    string, each built once here, so a parameter no filter can run with is a ConfigError.
    ``steps`` is every run's length; no scenario sets one.  ``ref_particles`` of 0
    disables the particle reference and the KL metric.  ``include_timing``
    adds wall-clock rows, which are the only non-deterministic output.
    """

    scenario: str
    filters: tuple
    runs: int = 200
    steps: int = 10
    seed: int = 0
    ref_particles: int = 0
    jobs: int = 1
    out: Optional[str] = None
    format: str = "csv"
    include_timing: bool = False
    scenario_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        filters = self.filters
        if isinstance(filters, str):
            filters = [f for f in filters.split(",") if f.strip()]
        if not isinstance(filters, (list, tuple)):
            raise ConfigError(f"filters must be a string or a list, got {filters!r}")
        object.__setattr__(self, "filters", tuple(filters))
        if not isinstance(self.scenario, str):
            raise ConfigError(f"scenario must be a string, got {self.scenario!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a string or null, got {self.out!r}")
        if not self.filters:
            raise ConfigError("filter list must not be empty")
        counts = {"runs": 1, "steps": 1, "jobs": 1, "ref_particles": 0, "seed": 0}
        for name, least in counts.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be at least {least}, got {value}")
        if self.ref_particles == 1:
            raise ConfigError("ref_particles must be 0 or at least 2, got 1")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if not isinstance(self.include_timing, bool):
            raise ConfigError(f"include_timing must be a bool, got {self.include_timing!r}")
        labels = []
        for spec in self.filters:  # building a filter checks its parameter
            if not isinstance(spec, str):
                raise ConfigError(f"a filter spec must be a string, got {spec!r}")
            label, name, param = parse_filter(spec)
            FILTERS[name].build(param)
            labels.append(label)
        if len(set(labels)) < len(labels):
            raise ConfigError(f"a filter label is listed twice in {labels}")


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
            if (row.filter, row.metric, row.step, row.p) == (filter, metric, str(step), want_p):
                return row.value
        raise KeyError(f"no row for {filter} {metric} step={step} p={p}")


# ---------------------------------------------------------------------------
# Single-run execution.


def _resolve_scenario(
    cfg: CampaignConfig, spec: Optional[ScenarioSpec] = None
) -> ScenarioSpec:
    """``spec`` if given, else the named scenario; a bad name or override is a ConfigError."""
    if spec is not None:
        return spec
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    try:
        return SCENARIOS[cfg.scenario](**cfg.scenario_overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario overrides: {exc}") from None


# Coverage probabilities as the record and report keys.
_P_KEYS = tuple(f"{p:g}" for p in DEFAULT_PROBS)
_OUTSIDE = (False,) * len(DEFAULT_PROBS)


def _single_run(spec: ScenarioSpec, cfg: CampaignConfig, run_idx: int) -> dict:
    """Execute one run: simulate truth, drive every filter, collect metrics.

    Stream-splitting rule: SeedSequence([seed, run_idx]) spawns one child
    for the truth, one for the particle reference, then one per filter (in
    configured order; only stochastic filters draw from theirs).
    """
    ss = np.random.SeedSequence([cfg.seed, run_idx])
    truth_seq, ref_seq, *filter_seqs = ss.spawn(2 + len(cfg.filters))
    sim = simulate_truth(spec, cfg.steps, np.random.default_rng(truth_seq))

    record = {"run": run_idx, "filters": {}}
    filters = {}  # label -> [adapter, rng, state, record entry]
    for text, seq in zip(cfg.filters, filter_seqs):
        label, name, param = parse_filter(text)
        adapter, rng = FILTERS[name].build(param), np.random.default_rng(seq)
        record["filters"][label] = rec = {
            "errors": [],
            "coverage": {key: [] for key in _P_KEYS},
            "kl": [] if cfg.ref_particles else None,
            "means": [],
            "diverged_at": None,
            "update_seconds": [],
        }
        filters[label] = [adapter, rng, adapter.init(spec.prior, rng), rec]

    ref_rng = np.random.default_rng(ref_seq)
    if cfg.ref_particles:
        ref_cloud = _ParticleAdapter(cfg.ref_particles).init(spec.prior, ref_rng)
    ref_degenerate = 0

    for t, (truth, measurement) in enumerate(sim):
        if cfg.ref_particles:
            weighted, ref_cloud = baselines.particle_step(
                ref_cloud, spec.state_model, measurement, ref_rng
            )
            ref_degenerate += weighted.degenerate
            context = Grid2D.from_cloud(weighted).kl_context(weighted)
            del weighted  # not alive through the next step's weighting

        for entry in filters.values():
            adapter, rng, state, rec = entry
            est = None
            if rec["diverged_at"] is None:
                t0 = time.perf_counter()
                try:
                    state = entry[2] = adapter.step(state, spec.state_model, measurement, rng)
                    est = adapter.estimate(state)
                except NumericalFailure:
                    rec["diverged_at"] = t
                else:
                    rec["update_seconds"].append(time.perf_counter() - t0)
            if est is None:  # diverged at this step or before
                error, mean, inside = math.inf, None, _OUTSIDE
            else:
                error = float(np.linalg.norm(est.mean - truth))
                mean = [float(v) for v in est.mean]
                try:
                    inside = ellipsoid_coverage(truth, est, DEFAULT_PROBS)
                except NumericalFailure:
                    inside = _OUTSIDE
            rec["errors"].append(error)
            rec["means"].append(mean)
            for key, ok in zip(_P_KEYS, inside):
                rec["coverage"][key].append(bool(ok))
            if cfg.ref_particles:
                rec["kl"].append(math.inf if est is None else kl_divergence_mass(context, est))

    record["ref_degenerate_steps"] = ref_degenerate
    return record


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the OpenBLAS that numpy and scipy each bundle, whose spinning pools
    compete for the cores, at one thread; restore the counts on the way out."""
    counts = []  # (set, previous count) of each library with both symbols
    try:
        for package, suffix in (("numpy", "64_"), ("scipy", "")):
            libs = Path(__import__(package).__file__).parents[1] / f"{package}.libs"
            for path in libs.glob("libscipy_openblas*.so"):
                lib = ctypes.CDLL(str(path))  # functions take and return C ints
                get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}", None)
                             for op in ("get", "set"))
                if get is not None and set_ is not None:
                    counts.append((set_, get()))
                    set_(1)
        yield
    finally:
        for set_, n in counts:
            set_(n)


@_one_blas_thread()
def _run_payload(payload):
    """Process-pool entry point: rebuild the config and run one index."""
    cfg_dict, run_idx = payload
    cfg = CampaignConfig(**cfg_dict)
    return _single_run(_resolve_scenario(cfg), cfg, run_idx)


# ---------------------------------------------------------------------------
# Aggregation.


def _aggregate(cfg: CampaignConfig, spec: ScenarioSpec, records: list) -> MetricsReport:
    records = sorted(records, key=lambda r: r["run"])
    rows = []
    warnings = []

    def row(step, metric, p, value):  # for the filter the loop is at
        rows.append(MetricRow(label, param_str, str(step), metric, p, float(value)))

    for label, _, param in map(parse_filter, cfg.filters):
        param_str = "" if param is None else f"{param:g}"
        recs = [r["filters"][label] for r in records]
        errors = np.array([r["errors"] for r in recs], dtype=float)  # (runs, steps)
        for t, sample in enumerate(errors.T):
            for key, q in zip(_P_KEYS, error_quantiles(sample, DEFAULT_PROBS)):
                row(t, "error_q", key, q)

        for key in _P_KEYS:
            inside = np.array([r["coverage"][key] for r in recs], dtype=bool)
            for t, frac in enumerate(inside.mean(axis=0)):
                row(t, "coverage", key, frac)
            row("all", "coverage", key, inside.mean())

        if cfg.ref_particles:
            kl = np.array([r["kl"] for r in recs], dtype=float)
            for t, med in enumerate(np.median(kl, axis=0)):
                row(t, "kl_median", "", med)
            row("all", "kl_median", "", np.median(kl))

        row("all", "divergences", "", sum(r["diverged_at"] is not None for r in recs))

        if cfg.include_timing:
            times = [s for r in recs for s in r["update_seconds"]]
            row("all", "update_seconds_median", "", np.median(times) if times else math.nan)

    degenerate = sum(r.get("ref_degenerate_steps", 0) for r in records)
    if degenerate:
        warnings.append(f"reference weights degenerate in {degenerate} steps")

    meta = {
        "scenario": spec.name,
        "runs": cfg.runs,
        "steps": cfg.steps,
        "seed": cfg.seed,
        "ref_particles": cfg.ref_particles,
        "filters": list(cfg.filters),
        "config_hash": config_hash(cfg),
        "warnings": warnings,
    }
    return MetricsReport(meta=meta, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Campaign driver with flush/resume.


def _load_partial(path: str, want_hash: str, want_code: str) -> dict:
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
                if entry.get("config_hash") == want_hash and entry.get("code") == want_code:
                    done[entry["record"]["run"]] = entry["record"]
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise ReportIoError(f"cannot read partial results {path!r}: {exc}") from None
    return done


@_one_blas_thread()
def run_campaign(
    cfg: CampaignConfig, scenario_spec: Optional[ScenarioSpec] = None
) -> tuple[MetricsReport, list]:
    """Execute a campaign and return (report, per-run records).

    ``scenario_spec`` injects a prebuilt scenario (useful for ad-hoc
    models); it forces serial execution since closures do not cross
    process boundaries.  When ``cfg.out`` is set, completed runs are
    appended to ``<out>.runs.jsonl`` as they finish and are reused by a
    rerun of the same semantic config and code, with BLAS on one thread.
    """
    spec = _resolve_scenario(cfg, scenario_spec)
    if cfg.ref_particles and spec.prior.dim < 2:
        raise ConfigError(f"ref_particles needs state dimensions 0 and 1, got {spec.prior.dim}-D")

    want_hash = config_hash(cfg)
    done = {}
    flush_fh = None
    if cfg.out:
        partial = cfg.out + ".runs.jsonl"
        # A resume reuses only runs of this code: a digest of the package's sources
        # and numpy's and scipy's versions (BLAS moves bits), kept out of config_hash.
        try:
            keyed = [p.read_bytes() for p in sorted(Path(__file__).parent.glob("*.py"))]
            keyed += [np.__version__.encode(), scipy.__version__.encode()]
            code = hashlib.sha256(b"\0".join(keyed)).hexdigest()[:16]
            done = _load_partial(partial, want_hash, code)
            flush_fh = open(partial, "a", encoding="utf-8")
        except OSError as exc:
            raise ReportIoError(f"cannot read the package or open {partial!r}: {exc}") from None

    pending = [i for i in range(cfg.runs) if i not in done]
    records = [done[i] for i in sorted(done) if i < cfg.runs]

    def flush(rec):
        if flush_fh is not None:
            flush_fh.write(json.dumps({"config_hash": want_hash, "code": code, "record": rec}) + "\n")
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
