"""The benchmark's workloads, their campaign configs and output checks.

Each workload is one scenario and filter list.  A benchmark run repeats
fixed-size campaigns of it in a closed loop (one caller, each campaign a
single in-process ``harness.run_campaign`` call with jobs=1), so every
campaign's report is a deterministic function of the workload seed and the
campaign index and can be compared byte for byte between commits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from pukf import harness
from pukf.evaluation import DEFAULT_PROBS

STEPS = 10
LATENCY_FILTER = "pukf@1"
# Updates of LATENCY_FILTER per campaign, at least, so that a campaign's
# p95 latency has ten updates beyond it.
MIN_LATENCY_SAMPLES = 200

# A second workload seed, never used while tuning the benchmark, for
# confirming a claimed gain on inputs the change was not written against.
CONFIRM_SEED = 7919

BEARINGS_FILTERS = (
    "pukf@-inf", "pukf@0.1", "pukf@1", "pukf@inf", "ekf2", "ruf@3", "ruf@10", "ukf",
)


def report_index(report) -> dict:
    """Row values keyed by (filter, metric, step, p), as MetricsReport.value."""
    return {(r.filter, r.metric, r.step, r.p): r.value for r in report.rows}


@dataclass(frozen=True)
class Ordering:
    """``better`` scores below ``factor`` times ``worse`` on ``metric``.

    metric "err" is the final-step median error, "kl" the pooled KL median.
    """

    better: str
    worse: str
    metric: str
    factor: float = 1.0

    def holds(self, index) -> bool:
        return _score(index, self.better, self.metric) < self.factor * _score(
            index, self.worse, self.metric)

    def __str__(self):
        scale = "" if self.factor == 1.0 else f"{self.factor:g}*"
        return f"{self.metric}:{self.better}<{scale}{self.worse}"


def _score(index, label, metric):
    if metric == "err":
        return index[(label, "error_q", str(STEPS - 1), "0.5")]
    return index[(label, "kl_median", "all", "")]


def _orderings(better, worse, metric, factor=1.0):
    return tuple(Ordering(b, w, metric, factor) for b in better for w in worse)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    filters: tuple
    runs: int  # Monte Carlo runs per campaign
    ref_particles: int = 0
    # Orderings from the acceptance campaigns that hold in every campaign
    # of this length on the seed code; a miss fails the campaign.
    gates: tuple = ()
    # Orderings that do not reliably hold at this length; reported as the
    # share of campaigns in which they held.
    reported: tuple = ()

    def __post_init__(self):
        if self.runs * STEPS < MIN_LATENCY_SAMPLES:
            raise ValueError(f"{self.name}: {self.runs} runs per campaign give fewer "
                             f"than {MIN_LATENCY_SAMPLES} latency samples")

    def config(self, seed: int, index: int, runs: int | None = None):
        """The CampaignConfig of campaign ``index`` under workload ``seed``."""
        return harness.CampaignConfig(
            scenario=self.scenario,
            filters=self.filters,
            runs=self.runs if runs is None else runs,
            steps=STEPS,
            seed=campaign_seed(seed, index),
            ref_particles=self.ref_particles,
            jobs=1,
        )


def campaign_seed(seed: int, index: int) -> int:
    """Distinct non-negative campaign seed for each (workload seed, index)."""
    return (seed % 2**32) * 1000 + index


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="poly",
            why="polynomial d=6, 7 filters, no reference: all time in the filter-side "
            "modules; pukf@-inf runs 6 rounds per update so per-round costs show",
            scenario="polynomial",
            filters=("pukf@0.1", "pukf@1", "pukf@-inf", "ekf2n", "ekf", "iekf@10", "ukf"),
            runs=20,
            gates=_orderings(("pukf@0.1", "pukf@1"), ("ekf2n",), "err", 0.8)
            + _orderings(("pukf@0.1", "pukf@1"), ("ekf", "ukf"), "err"),
            reported=_orderings(("pukf@0.1", "pukf@1"), ("iekf@10",), "err"),
        ),
        Workload(
            name="far_near",
            why="bearings far+near, 8 filters, no reference: n=4 so 15 probes per "
            "linearization through an atan2 closure, 2 rounds, analytic baselines",
            scenario="bearings_far_near",
            filters=BEARINGS_FILTERS,
            runs=20,
            gates=(),
            reported=_orderings(("pukf@1",), ("ekf2", "ruf@3", "ruf@10", "ukf"), "err"),
        ),
        Workload(
            name="far_near_ref",
            why="far_near plus the 100k-particle reference: KL binning, likelihood, "
            "propagation and resampling dominate; the acceptance gate's cost centre",
            scenario="bearings_far_near",
            filters=BEARINGS_FILTERS,
            runs=20,
            ref_particles=100_000,
            gates=_orderings(("pukf@-inf", "pukf@0.1", "pukf@1"), ("ekf2",), "kl"),
            reported=_orderings(("ekf2",), ("ruf@3", "ruf@10", "ukf"), "kl"),
        ),
    )
}


def check_campaign(workload: Workload, cfg, report, records) -> list[str]:
    """Problems with one campaign's output; an empty list means it passed."""
    problems = []
    if len(records) != cfg.runs or [r["run"] for r in records] != list(range(cfg.runs)):
        problems.append("records do not cover every run once")
    for rec in records:
        for label in cfg.filters:
            if len(rec["filters"][label]["errors"]) != STEPS:
                problems.append(f"{label} run {rec['run']}: not every step recorded")
    if report.meta["runs"] != cfg.runs or report.meta["seed"] != cfg.seed:
        problems.append("report meta does not match the config")
    per_filter = STEPS * len(DEFAULT_PROBS) + (STEPS + 1) * len(DEFAULT_PROBS) + 1
    if cfg.ref_particles:
        per_filter += STEPS + 1
    if len(report.rows) != per_filter * len(cfg.filters):
        problems.append(f"report has {len(report.rows)} rows, expected "
                        f"{per_filter * len(cfg.filters)}")
    try:
        problems += _check_rows(workload, cfg, report_index(report))
    except KeyError as exc:
        problems.append(f"report row missing: {exc}")
    return problems


def _check_rows(workload, cfg, index):
    problems = []
    probs = [f"{p:g}" for p in DEFAULT_PROBS]
    for label in cfg.filters:
        for t in range(STEPS):
            qs = [index[(label, "error_q", str(t), p)] for p in probs]
            if np.any(np.diff(qs) < 0.0) or qs[0] < 0.0:
                problems.append(f"{label} step {t}: error quantiles not ordered")
        for p in probs:
            c = index[(label, "coverage", "all", p)]
            if not 0.0 <= c <= 1.0:
                problems.append(f"{label}: coverage {c} outside [0, 1]")
    for ordering in workload.gates:
        if not ordering.holds(index):
            problems.append(f"ordering {ordering} does not hold")
    return problems


def report_digest(report, path) -> str:
    """sha256 of the report's CSV as ``harness.emit_report`` writes it."""
    harness.emit_report(report, str(path), format="csv")
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def failed_updates(cfg, records) -> int:
    """Updates that diverged or were skipped after a divergence."""
    failed = 0
    for rec in records:
        for label in cfg.filters:
            at = rec["filters"][label]["diverged_at"]
            if at is not None:
                failed += STEPS - at
    return failed
