"""Span recorder for the traced benchmark run.

The tracer wraps the public entry points of each faastune layer module from
outside the package: it swaps every module-level reference to a wrapped
function (including names another module imported, such as the
``combine_times`` that ``profiles`` imports) for a wrapper that records a
span. Helpers the entry points call internally (``run_load``,
``sim_duration``, ``percentile_linear``) stay unwrapped, so their time is
self time of the entry point that called them, as the per-layer metrics
expect. CLI commands are spanned at the benchmark's own call sites (see
``workloads.run_cli``).

Spans stay in memory and are written out once, at the end of the run. Their
clock is the thread's CPU time, like every other time the benchmark takes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

LAYERS = ("sim", "traces", "profiles", "estimate", "search", "cli")


def _segments(log) -> int:
    return sum(len(segments) for segments in log.traces.values())


def _search_counts(a: dict, result) -> dict:
    n = len(a["graph"].functions())
    m = len(a["ladder"].effective())
    return {"evaluations": result.evaluations, "bound": n * (m - 1) + 1}


def _validate_counts(a: dict, result) -> dict:
    app = a["app"]
    per_request = len(app.specs) + sum(len(v) for v in app.baas_children.values())
    return {"requests": a["n_requests"], "segments": a["n_requests"] * per_request}


#: module -> {function: counter(bound arguments, result) or None}
WRAPPED = {
    "sim": {
        "generate_app": None,
        "save_app": None,
        "load_app": None,
        "profile_application": lambda a, r: {"segments": _segments(r)},
        "validate_config": _validate_counts,
    },
    "traces": {
        "write_trace_file": lambda a, r: {"segments": _segments(a["log"])},
        "parse_trace_file": lambda a, r: {"segments": _segments(r)},
        "build_call_graph": lambda a, r: {"traces": len(a["log"].traces)},
        "extract_samples": lambda a, r: {"samples": len(r)},
    },
    "profiles": {
        "select_alpha": lambda a, r: {"alpha": r},
        "build_profiles": None,
        "monotone_repair": None,
        "save_profiles": None,
        "load_profiles": None,
    },
    "estimate": {
        "estimate_time": None,
        "combine_times": None,
        "estimate_cost": None,
    },
    "search": {
        "greedy_slo": _search_counts,
        "greedy_min_cost": _search_counts,
        "greedy_min_time": _search_counts,
        "brute_force": _search_counts,
    },
}


@dataclass(slots=True)
class Span:
    name: str
    job: str
    start_ns: int
    parent: int
    end_ns: int = 0
    child_ns: int = 0
    counts: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class NullTracer:
    """Stands in for a tracer in untraced phases: records nothing."""

    job = ""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records nested spans on one thread; ``job`` tags every new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = "setup"
        self._restore: list[tuple[object, str, object]] = []

    def _start(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, self.job, time.thread_time_ns(), parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end_ns = time.thread_time_ns()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.duration_ns

    @contextmanager
    def span(self, name: str):
        span = self._start(name)
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever a faastune module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "faastune" or n.startswith("faastune.")]
        for module_name, functions in WRAPPED.items():
            owner = sys.modules[f"faastune.{module_name}"]
            for function, counter in functions.items():
                original = getattr(owner, function)
                wrapper = self._wrap(f"{module_name}.{function}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index, "name": s.name, "job": s.job, "parent": s.parent,
                    "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": s.self_ns,
                }
                if s.counts:
                    record["counts"] = s.counts
                fh.write(json.dumps(record) + "\n")


# --- per-layer metrics ---------------------------------------------------------

#: Functions that run only during set-up; their metrics are per set-up.
SETUP_ONLY = ("traces.write_trace_file", "cli.generate-app")

SEARCH_VARIANTS = ("greedy_slo", "greedy_min_cost", "greedy_min_time", "brute_force")
CLI_COMMANDS = ("generate-app", "profile", "optimize", "validate", "report")

#: name -> unit for every per-layer metric the traced run reports.
PER_LAYER_UNITS: dict[str, str] = {
    "sim.profile_application.self_s": "s/job",
    "sim.validate_config.self_s": "s/job",
    "sim.load_app.self_s": "s/job",
    "sim.segments_per_s": "1/s",
    "sim.validate_requests": "count/job",
    "traces.parse_trace_file.self_s": "s/job",
    "traces.parse_segments_per_s": "1/s",
    "traces.build_call_graph.self_s": "s/job",
    "traces.build_call_graph.traces": "count/job",
    "traces.extract_samples.self_s": "s/job",
    "traces.samples": "count/job",
    "traces.write_trace_file.self_s": "s/setup",
    "traces.write_segments_per_s": "1/s",
    "profiles.select_alpha.self_s": "s/job",
    "profiles.build_profiles.self_s": "s/job",
    "profiles.monotone_repair.self_s": "s/job",
    "profiles.save_profiles.self_s": "s/job",
    "profiles.load_profiles.self_s": "s/job",
    "profiles.alpha_chosen": "percentile",
    "estimate.estimate_time.self_s": "s/job",
    "estimate.estimate_time.calls": "count/job",
    "estimate.combine_times.self_s": "s/job",
    "estimate.combine_times.calls": "count/job",
}
for _v in SEARCH_VARIANTS:
    PER_LAYER_UNITS[f"search.{_v}.self_s"] = "s/job"
    PER_LAYER_UNITS[f"search.{_v}.evaluations"] = "count/job"
    PER_LAYER_UNITS[f"search.{_v}.evals_per_s"] = "1/s"
PER_LAYER_UNITS["search.greedy_min_cost.eval_bound_ratio"] = "x"
PER_LAYER_UNITS["search.greedy_min_time.eval_bound_ratio"] = "x"
PER_LAYER_UNITS["search.brute_force.configs_per_s"] = "1/s"
for _c in CLI_COMMANDS:
    PER_LAYER_UNITS[f"cli.{_c}.self_s"] = "s/setup" if f"cli.{_c}" in SETUP_ONLY else "s/job"
for _layer in LAYERS + ("bench",):
    PER_LAYER_UNITS[f"{_layer}.self_share_pct"] = "%"
PER_LAYER_UNITS["trace.overhead_pct"] = "%"
PER_LAYER_UNITS["trace.jobs_per_s"] = "1/s"
PER_LAYER_UNITS["trace.spans_per_job"] = "count/job"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], jobs: set[str], job_s: float, scale: float) -> dict[str, float]:
    """Derive the per-layer metrics from recorded spans.

    ``jobs`` are the ids of the traced jobs to count (complete passes only)
    and ``job_s`` their summed raw CPU time; times are multiplied and rates
    divided by the machine-speed ``scale``. Self times and counts are per
    job; functions in SETUP_ONLY are taken from the traced set-up instead.
    Counts and rates use calls that no other span of the same layer
    encloses, so a greedy_slo call nested in greedy_min_time is counted
    once, inside greedy_min_time; rates divide by those calls' inclusive
    time.
    """
    n_jobs = len(jobs)
    self_s: dict[str, float] = {}
    outer_s: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    calls: dict[str, int] = {}
    share_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for s in spans:
        in_job = s.job in jobs
        if not in_job and not (s.job == "setup" and s.name in SETUP_ONLY):
            continue
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_ns / 1e9 * scale
        if in_job:
            share_s[s.layer] += s.self_ns / 1e9
        parent = s.parent
        while parent >= 0 and spans[parent].layer != s.layer:
            parent = spans[parent].parent
        if parent >= 0:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        outer_s[s.name] = outer_s.get(s.name, 0.0) + s.duration_ns / 1e9 * scale
        total = counts.setdefault(s.name, {})
        for key, value in (s.counts or {}).items():
            total[key] = total.get(key, 0) + value

    def per(name: str, value: float) -> float:
        return value if name in SETUP_ONLY else _ratio(value, n_jobs)

    def count(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        if metric.endswith(".self_s"):
            name = metric[: -len(".self_s")]
            out[metric] = per(name, self_s.get(name, 0.0))
    sim_segments = count("sim.profile_application", "segments") + count("sim.validate_config", "segments")
    sim_s = outer_s.get("sim.profile_application", 0.0) + outer_s.get("sim.validate_config", 0.0)
    out["sim.segments_per_s"] = _ratio(sim_segments, sim_s)
    out["sim.validate_requests"] = _ratio(count("sim.validate_config", "requests"), n_jobs)
    out["traces.parse_segments_per_s"] = _ratio(
        count("traces.parse_trace_file", "segments"), outer_s.get("traces.parse_trace_file", 0.0))
    out["traces.build_call_graph.traces"] = _ratio(count("traces.build_call_graph", "traces"), n_jobs)
    out["traces.samples"] = _ratio(count("traces.extract_samples", "samples"), n_jobs)
    out["traces.write_segments_per_s"] = _ratio(
        count("traces.write_trace_file", "segments"), outer_s.get("traces.write_trace_file", 0.0))
    out["profiles.alpha_chosen"] = _ratio(
        count("profiles.select_alpha", "alpha"), calls.get("profiles.select_alpha", 0))
    for name in ("estimate.estimate_time", "estimate.combine_times"):
        out[f"{name}.calls"] = _ratio(calls.get(name, 0), n_jobs)
    for variant in SEARCH_VARIANTS:
        name = f"search.{variant}"
        evaluations = count(name, "evaluations")
        out[f"{name}.evaluations"] = _ratio(evaluations, n_jobs)
        out[f"{name}.evals_per_s"] = _ratio(evaluations, outer_s.get(name, 0.0))
    for variant in ("greedy_min_cost", "greedy_min_time"):
        name = f"search.{variant}"
        out[f"{name}.eval_bound_ratio"] = _ratio(count(name, "evaluations"), count(name, "bound"))
    out["search.brute_force.configs_per_s"] = out["search.brute_force.evals_per_s"]
    for layer, seconds in share_s.items():
        out[f"{layer}.self_share_pct"] = _ratio(seconds, job_s) * 100.0
    return out
