"""Per-layer tracing of experiments from outside the library.

While a traced repetition runs, wrappers replace the library's functions
and record a span (name, start, end, parent) per call, or only a call
count for functions called per step.  A function imported by name
(`from x import f`) is a separate binding in the importing module, so
every loaded varopt module whose namespace holds the original object gets
the wrapper; methods are replaced on their class.  A probe whose target
no longer exists is reported once and its metrics read 0, so renames and
deletions in the library do not stop the benchmark.

LAYER_METRICS names each per-layer metric, how it is computed from the
spans, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

PHI = ("varopt.schedules:phi_scalar_path", "varopt.schedules:phi_vector_path",
       "varopt.schedules:phi_scalar", "varopt.schedules:phi_vector")
MESH = ("varopt.schedules:build_mesh",)
STREAM = ("varopt.gradient_models:MartingaleStream.step",
          "varopt.gradient_models:StateSpaceStream.step")
# The filter stage runs in gradient_models or, on a constant mesh, in the
# backend kernels; both count as filtering.
FILTER = ("varopt.gradient_models:kalman_discrete_step",
          "varopt.gradient_models:kalman_bucy_step",
          "varopt.gradient_models:kalman_steady_gain",
          "varopt.gradient_models:martingale_filter",
          "varopt.backend:kalman_filter_run", "varopt.backend:momentum_filter_run")
KERNELS = ("varopt.backend:mirror_run", "varopt.backend:affine_sgd_run",
           "varopt.backend:kalman_filter_run", "varopt.backend:momentum_filter_run")
# minibatch_mean is the quadratic problem's mini-batch gradient (x - mean).
MINIBATCH = ("varopt.harness.problems:ProblemInstance.minibatch_gradient",
             "varopt.harness.problems:ProblemInstance.minibatch_mean")
LOSS = ("varopt.harness.problems:ProblemInstance.loss",)
GENERATE = ("varopt.harness.problems:generate_problem",)
RUN_OPTIMIZER = ("varopt.optimizers:run_optimizer",)
ENERGY = ("varopt.diagnostics:energy_path",)
ENSEMBLE = ("varopt.diagnostics:ensemble_report",
            "varopt.diagnostics:supermartingale_check",
            "varopt.diagnostics:rate_bound_check")
BUILD = ("varopt.harness.config:build_experiment",)
RUN_EXPERIMENT = ("varopt.harness.runner:run_experiment",)
# The runner has no public CSV writer; its private one is the CSV stage.
CSV = ("varopt.harness.runner:_write_artifacts",)

SPAN_PROBES = tuple(dict.fromkeys(
    PHI + MESH + STREAM + FILTER + KERNELS + MINIBATCH + LOSS + GENERATE
    + RUN_OPTIMIZER + ENERGY + ENSEMBLE + BUILD + RUN_EXPERIMENT + CSV))
GRAD_DUAL = ("varopt.bregman:grad_dual",)
DIVERGENCE = ("varopt.bregman:divergence",)
CHECK_DOMAIN = ("varopt.bregman:MirrorMap.check_domain",)
COUNT_PROBES = GRAD_DUAL + DIVERGENCE + CHECK_DOMAIN
# Counter of the schedule's alpha, beta and gamma calls (count_schedule_evals).
SCHEDULE_FN = ("varopt.schedules:Schedule.alpha|beta|gamma",)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    how: str        # "time", "calls", "self", or "run" (filled in by run.py)
    targets: tuple
    moves: str      # end-to-end metric and workloads it should move


LAYER_METRICS = (
    LayerMetric("schedules.phi_path_s", "s", "time", PHI,
                "experiment_s on ensemble_quadratic and kalman_synthetic, not logistic_long"),
    LayerMetric("schedules.phi_path_calls", "count", "calls", PHI,
                "experiment_s on ensemble_quadratic and kalman_synthetic, not logistic_long"),
    LayerMetric("schedules.fn_evals", "count", "calls", SCHEDULE_FN,
                "experiment_s on ensemble_quadratic and kalman_synthetic, not logistic_long"),
    LayerMetric("schedules.mesh_s", "s", "time", MESH,
                "setup_s and experiment_s on all workloads"),
    LayerMetric("schedules.mesh_calls", "count", "calls", MESH,
                "setup_s and experiment_s on all workloads"),
    LayerMetric("schedules.phi_max_rel_err", "ratio", "run", (),
                "correctness of Phi; repeats exactly"),
    LayerMetric("gradient_models.stream_s", "s", "time", STREAM,
                "experiment_s on kalman_synthetic; zero elsewhere"),
    LayerMetric("gradient_models.stream_steps", "count", "calls", STREAM,
                "experiment_s on kalman_synthetic; zero elsewhere"),
    LayerMetric("gradient_models.filter_s", "s", "time", FILTER,
                "experiment_s on kalman_synthetic; zero elsewhere"),
    LayerMetric("gradient_models.filter_calls", "count", "calls", FILTER,
                "experiment_s on kalman_synthetic; zero elsewhere"),
    LayerMetric("backend.kernel_s", "s", "time", KERNELS,
                "experiment_s on kalman_synthetic and ensemble_quadratic"),
    LayerMetric("backend.kernel_calls", "count", "calls", KERNELS,
                "experiment_s on kalman_synthetic and ensemble_quadratic"),
    LayerMetric("bregman.grad_dual_calls", "count", "calls", GRAD_DUAL,
                "experiment_s on logistic_long and ensemble_quadratic"),
    LayerMetric("bregman.divergence_calls", "count", "calls", DIVERGENCE,
                "experiment_s on logistic_long and ensemble_quadratic"),
    LayerMetric("bregman.check_domain_calls", "count", "calls", CHECK_DOMAIN,
                "experiment_s on logistic_long and ensemble_quadratic"),
    LayerMetric("problems.minibatch_gradient_s", "s", "time", MINIBATCH,
                "experiment_s on logistic_long"),
    LayerMetric("problems.minibatch_gradient_calls", "count", "calls", MINIBATCH,
                "experiment_s on logistic_long"),
    LayerMetric("problems.loss_s", "s", "time", LOSS, "experiment_s on logistic_long"),
    LayerMetric("problems.loss_calls", "count", "calls", LOSS,
                "experiment_s on logistic_long"),
    LayerMetric("problems.generate_s", "s", "time", GENERATE, "setup_s on logistic_long"),
    LayerMetric("optimizers.run_s", "s", "time", RUN_OPTIMIZER,
                "experiment_s on logistic_long"),
    LayerMetric("optimizers.self_s", "s", "self", RUN_OPTIMIZER,
                "experiment_s on logistic_long (the Python step loop)"),
    LayerMetric("diagnostics.energy_path_s", "s", "time", ENERGY,
                "experiment_s on ensemble_quadratic and logistic_long; absent on kalman_synthetic"),
    LayerMetric("diagnostics.energy_path_calls", "count", "calls", ENERGY,
                "experiment_s on ensemble_quadratic and logistic_long; absent on kalman_synthetic"),
    LayerMetric("diagnostics.ensemble_s", "s", "time", ENSEMBLE,
                "experiment_s on ensemble_quadratic and logistic_long; absent on kalman_synthetic"),
    LayerMetric("config.build_s", "s", "time", BUILD, "setup_s on all workloads"),
    LayerMetric("runner.self_s", "s", "self", RUN_EXPERIMENT,
                "experiment_s and peak_rss_mb on all workloads"),
    LayerMetric("runner.csv_write_s", "s", "time", CSV,
                "experiment_s and peak_rss_mb on all workloads"),
    LayerMetric("runner.csv_bytes", "bytes", "run", (),
                "experiment_s and peak_rss_mb on all workloads"),
    LayerMetric("trace.experiment_s", "s", "run", (),
                "base of the layer shares: traced run_experiment wall time"),
    LayerMetric("trace.overhead_frac", "ratio", "run", (),
                "traced over untraced experiment_s, minus 1"),
    LayerMetric("trace.missing_probes", "count", "run", (),
                "probe targets not found in the library"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int] = None


class Tracer:
    """Spans and call counts of the traced calls, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self._open: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self._open.clear()

    def span(self, name: str, fn):
        spans, calls, stack = self.spans, self.calls, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[name] += 1
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
        return wrapped

    def count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped


def resolve(targets):
    """Look up "module:Qual.name" targets.

    Returns ([(target, owner, attr, original)], [missing targets]).
    """
    found, missing = [], []
    for target in targets:
        module_name, _, qualname = target.partition(":")
        *path, attr = qualname.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        found.append((target, owner, attr, original))
    return found, missing


def _bindings(owner, attr, original):
    """Every (namespace, name) through which the library reaches original."""
    if not isinstance(owner, types.ModuleType):
        return [(owner, attr)]
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "varopt" or name.startswith("varopt."))]
    return [(m, name) for m in modules for name, value in list(vars(m).items())
            if value is original]


@contextmanager
def instrument(tracer: Tracer, span_probes, count_probes):
    """Install span and count wrappers for resolved probes; undo on exit."""
    patches = []
    try:
        for probes, wrap in ((span_probes, tracer.span), (count_probes, tracer.count)):
            for target, owner, attr, original in probes:
                wrapper = wrap(target, original)
                for holder, name in _bindings(owner, attr, original):
                    patches.append((holder, name, original))
                    setattr(holder, name, wrapper)
        yield
    finally:
        for holder, name, original in reversed(patches):
            setattr(holder, name, original)


def count_schedule_evals(tracer: Tracer, schedule) -> None:
    """Count calls to the schedule's alpha, beta and gamma from now on."""
    for attr in ("alpha", "beta", "gamma"):
        # Schedule is a frozen dataclass; the wrapper replaces the field.
        object.__setattr__(schedule, attr,
                           tracer.count(SCHEDULE_FN[0], getattr(schedule, attr)))


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [s.end - s.start - _covered(s.start, s.end, children.get(i, ()))
            for i, s in enumerate(spans)]


def inclusive_time(spans, names) -> float:
    """Total duration of spans named in names, counting a span nested in
    another span of names only once."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            total += span.end - span.start
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Values of the span-derived LAYER_METRICS for the traced calls so far."""
    selfs = None
    out = {}
    for metric in LAYER_METRICS:
        if metric.how == "time":
            out[metric.name] = inclusive_time(tracer.spans, metric.targets)
        elif metric.how == "calls":
            out[metric.name] = sum(tracer.calls[t] for t in metric.targets)
        elif metric.how == "self":
            if selfs is None:
                selfs = self_times(tracer.spans)
            out[metric.name] = sum(t for s, t in zip(tracer.spans, selfs)
                                   if s.name in metric.targets)
    return out
