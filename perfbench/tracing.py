"""Outside-in tracing of the pukf package for the benchmark's traced run.

The program is not changed.  ``Tracer.install`` replaces each measured
function at every module attribute of the package that refers to it (the
names the package's own code calls through), so a call from anywhere in
the package opens a span.  ``Tracer.remove`` puts the originals back.

A span is (name, start, end, parent span, Monte Carlo run id).  Spans are
kept in memory and written out by ``write_spans`` when the run ends; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# Measured layers, keyed by the report name "<module>.<function>".  Each maps
# to the module that defines the function and its attribute name there.
LAYERS = {
    "core.GaussianState": ("pukf.core", "GaussianState.__post_init__"),
    "core.matrix_sqrt": ("pukf.core", "matrix_sqrt"),
    "core._solve_spd": ("pukf.core", "_solve_spd"),
    "core.sym_eig_ascending": ("pukf.core", "sym_eig_ascending"),
    "linearization.linearize": ("pukf.linearization", "linearize"),
    "decorrelation.decorrelate": ("pukf.decorrelation", "decorrelate"),
    "partitioned.pukf_update": ("pukf.partitioned", "pukf_update"),
    "baselines.ekf_update": ("pukf.baselines", "ekf_update"),
    "baselines.ekf2_update_analytic": ("pukf.baselines", "ekf2_update_analytic"),
    "baselines.ukf_update": ("pukf.baselines", "ukf_update"),
    "baselines.iekf_update": ("pukf.baselines", "iekf_update"),
    "baselines.ruf_update": ("pukf.baselines", "ruf_update"),
    "linearization.ekf2_update_numerical": ("pukf.linearization", "ekf2_update_numerical"),
    "evaluation.ellipsoid_coverage": ("pukf.evaluation", "ellipsoid_coverage"),
    "baselines.sample_gaussian": ("pukf.baselines", "sample_gaussian"),
    "baselines.propagate_particles": ("pukf.baselines", "propagate_particles"),
    "baselines.log_likelihood": ("pukf.baselines", "log_likelihood"),
    "baselines.systematic_resample": ("pukf.baselines", "systematic_resample"),
    "evaluation.Grid2D.from_cloud": ("pukf.evaluation", "Grid2D.from_cloud"),
    "evaluation.kl_divergence_grid": ("pukf.evaluation", "kl_divergence_grid"),
    "scenarios.simulate_truth": ("pukf.scenarios", "simulate_truth"),
    "evaluation.error_quantiles": ("pukf.evaluation", "error_quantiles"),
    "harness.run_campaign": ("pukf.harness", "run_campaign"),
}

# Layers called often enough per update for a per-call median to mean
# something; the rest report only calls and self time.
HOT = (
    "core.GaussianState",
    "core.matrix_sqrt",
    "core._solve_spd",
    "core.sym_eig_ascending",
    "linearization.linearize",
    "decorrelation.decorrelate",
    "partitioned.pukf_update",
    "evaluation.ellipsoid_coverage",
    "baselines.sample_gaussian",
    "baselines.propagate_particles",
    "baselines.log_likelihood",
    "baselines.systematic_resample",
    "evaluation.Grid2D.from_cloud",
    "evaluation.kl_divergence_grid",
)

COUNTS = (
    "linearization.probe_evals_per_call",
    "partitioned.rounds_per_update",
    "harness.ref_degenerate_steps",
    "bench.trace_overhead",
)


def per_layer_metric_names():
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms"]
        if layer in HOT:
            names.append(f"{layer}.p50_us")
    return names + list(COUNTS)


class Tracer:
    """Span recorder installed around the package's module attributes."""

    def __init__(self):
        self.names = list(LAYERS)
        self.spans = []  # (name index, start, end, parent index, run id)
        self.stack = []
        self.run_id = -1
        self.probe_evals = 0
        self.rounds = 0
        self._linearize = self.names.index("linearization.linearize")
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        for index, (layer, (module_name, attr)) in enumerate(LAYERS.items()):
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._wrap_method(getattr(module, cls_name), meth, index)
            else:
                original = getattr(module, attr)
                post = self._count_rounds if layer == "partitioned.pukf_update" else None
                self._replace_everywhere(original, self._span(original, index, post))
        self._wrap_single_run()
        self._wrap_probe_eval()

    def remove(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _set(self, target, attr, value):
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "pukf" and not name.startswith("pukf."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _wrap_method(self, cls, meth, index):
        descriptor = cls.__dict__[meth]
        if isinstance(descriptor, classmethod):
            wrapped = classmethod(self._span(descriptor.__func__, index))
        else:
            wrapped = self._span(descriptor, index)
        self._set(cls, meth, wrapped)

    def _wrap_single_run(self):
        harness = sys.modules["pukf.harness"]
        original = harness._single_run
        tracer = self

        def single_run(spec, cfg, run_idx):
            tracer.run_id = run_idx
            try:
                return original(spec, cfg, run_idx)
            finally:
                tracer.run_id = -1

        self._set(harness, "_single_run", single_run)

    def _wrap_probe_eval(self):
        linearization = sys.modules["pukf.linearization"]
        original = linearization._eval
        tracer = self

        def probe_eval(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == tracer._linearize:
                tracer.probe_evals += 1
            return original(*args, **kwargs)

        self._set(linearization, "_eval", probe_eval)

    def _count_rounds(self, result):
        self.rounds += result[1].n_rounds

    def _span(self, fn, index, post=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            me = len(spans)
            # Placeholder so children can see this span's name while it runs.
            spans.append((index, 0.0, 0.0, parent, tracer.run_id))
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, tracer.run_id)
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived numbers ---------------------------------------------------

    def layer_metrics(self):
        """calls, self_ms and p50_us per layer plus the derived counts."""
        if self.spans:
            arr = np.array([s[:4] for s in self.spans], dtype=float)
            name = arr[:, 0].astype(int)
            dur = arr[:, 2] - arr[:, 1]
            parent = arr[:, 3].astype(int)
            child = np.zeros(len(arr))
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            self_time = dur - child
        else:
            name = np.zeros(0, dtype=int)
            dur = self_time = np.zeros(0)
        out = {}
        for index, layer in enumerate(self.names):
            mine = name == index
            calls = int(np.count_nonzero(mine))
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_ms"] = (float(self_time[mine].sum() * 1e3), "ms")
            if layer in HOT:
                p50 = float(np.median(dur[mine]) * 1e6) if calls else 0.0
                out[f"{layer}.p50_us"] = (p50, "us")
        lin_calls = out["linearization.linearize.calls"][0]
        upd_calls = out["partitioned.pukf_update.calls"][0]
        out["linearization.probe_evals_per_call"] = (
            self.probe_evals / lin_calls if lin_calls else 0.0, "count")
        out["partitioned.rounds_per_update"] = (
            self.rounds / upd_calls if upd_calls else 0.0, "count")
        return out

    def write_spans(self, path):
        """Write every span as CSV: id, name, start_us, end_us, parent, run."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent,run\n")
            for i, (index, start, end, parent, run) in enumerate(self.spans):
                fh.write(
                    f"{i},{self.names[index]},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{parent},{run}\n"
                )
