"""Deterministic virtual-time FaaS platform used for profiling and validation.

Applications are call graphs in which every invocation starts at one
function: it does its own work first, then triggers its call groups one
group after another, all members of a group concurrently. Compute-bound
work speeds up proportionally with memory until the vCPU share saturates;
backend-bound work ignores memory. Runs are fully reproducible from a seed
and complete in virtual time, so experiments cost milliseconds regardless
of the simulated latencies.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .errors import InvalidShape, SchemaError
from .model import (
    CallGraph,
    FunctionNode,
    GraphNode,
    MemoryLadder,
    Parallel,
    Sequence,
    SloSpec,
)
from .profiles import percentile_linear
from .traces import TraceLog, TraceSegment, compose_calls, graph_from_dict, graph_to_dict

#: Above this memory size the vCPU share allotted to a single-threaded
#: function stops growing, so compute time stops improving.
CPU_SATURATION_MB = 1792

#: Work-unit range for randomly generated compute functions. One unit takes
#: 1/memory_mb seconds below saturation, so 256..1024 units span roughly
#: 2..8 s at 128 MB and 0.14..0.57 s at the saturation point.
DEFAULT_WORK_RANGE = (256.0, 1024.0)

DEFAULT_JITTER_CV = 0.002
DEFAULT_COLD_START_PROB = 0.001
DEFAULT_COLD_START_S = 0.2

#: Backend-bound petstore functions: calls to the NoSQL store dominate and
#: are noticeably noisier than compute (these drive the injected variance).
PETSTORE_BAAS_JITTER_CV = 0.04

SHAPES = ("chain", "demo3", "demo6", "demo10", "petstore", "random")


@dataclass(frozen=True)
class SimFunctionSpec:
    """Latency model for one simulated function.

    ``compute`` kind: base duration = work / min(memory, saturation).
    ``baas_bound`` kind: base duration = baas_latency_s at any memory.
    Multiplicative lognormal jitter with the given coefficient of variation
    and an additive Bernoulli cold-start penalty sit on top of the base.
    """

    function: str
    work: float = 0.0
    kind: str = "compute"
    baas_latency_s: float | None = None
    cold_start_s: float = 0.0
    cold_start_prob: float = 0.0
    jitter_cv: float = 0.0

    def __post_init__(self):
        if self.kind not in ("compute", "baas_bound"):
            raise ValueError(f"kind must be 'compute' or 'baas_bound', got {self.kind!r}")
        if self.kind == "compute" and self.work <= 0:
            raise ValueError("compute functions need positive work")
        if self.kind == "baas_bound" and (self.baas_latency_s is None or self.baas_latency_s <= 0):
            raise ValueError("baas_bound functions need positive baas_latency_s")
        if not 0 <= self.cold_start_prob <= 1:
            raise ValueError("cold_start_prob must be in [0, 1]")
        if self.cold_start_s < 0 or self.jitter_cv < 0:
            raise ValueError("cold_start_s and jitter_cv must be non-negative")


@dataclass(frozen=True)
class SimApp:
    """A simulated application: call graph plus per-function latency specs."""

    graph: CallGraph
    specs: Mapping[str, SimFunctionSpec]
    baas_children: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    shape: str = "custom"
    seed: int = 0

    def __post_init__(self):
        functions = set(self.graph.functions())
        if set(self.specs) != functions:
            raise ValueError("specs must cover exactly the graph's functions")
        for parent in self.baas_children:
            if parent not in functions:
                raise ValueError(f"baas_children parent {parent!r} is not a function")
        # run_load starts every invocation at a single function: the root and
        # each parallel member must be a function or a sequence opening with one.
        nodes = [self.graph.root]
        for node in nodes:
            if not isinstance(node, FunctionNode):
                nodes.extend(node.children)
        if isinstance(self.graph.root, Parallel) or any(
            isinstance(node, Sequence) and not isinstance(node.children[0], FunctionNode)
            for node in nodes
        ):
            raise ValueError("graph has no single entry function, so it cannot be simulated")

    def noiseless(self) -> "SimApp":
        """Copy with jitter and cold starts disabled; latencies become exact."""
        specs = {
            name: replace(spec, jitter_cv=0.0, cold_start_prob=0.0)
            for name, spec in self.specs.items()
        }
        return replace(self, specs=specs)


def sim_duration(
    spec: SimFunctionSpec, memory_mb: int, rng: random.Random
) -> tuple[float, bool]:
    """Draw one execution duration; returns (seconds, had_cold_start)."""
    if spec.kind == "baas_bound":
        base = float(spec.baas_latency_s)
    else:
        base = spec.work / min(memory_mb, CPU_SATURATION_MB)
    duration = base
    if spec.jitter_cv > 0:
        sigma = math.sqrt(math.log(1.0 + spec.jitter_cv**2))
        mu = -0.5 * sigma * sigma  # unit-mean lognormal
        duration *= rng.lognormvariate(mu, sigma)
    cold = spec.cold_start_prob > 0 and rng.random() < spec.cold_start_prob
    if cold:
        duration += spec.cold_start_s
    return duration, cold


# --- application generation --------------------------------------------------

#: Fixed topologies as call tables: each function's ordered groups of callees.
_DEMO_CALLS = {
    "demo3": {"f1": [["f2"], ["f3"]]},
    "demo6": {"f1": [["f2", "f3"]], "f2": [["f4"], ["f5"]], "f3": [["f6"]]},
    "demo10": {
        "f1": [["f2", "f3", "f4"], ["f10"]],
        "f2": [["f5"], ["f6"]],
        "f3": [["f7", "f8"]],
        "f4": [["f9"]],
    },
}


def _random_calls(n: int, rng: random.Random) -> dict[str, list[list[str]]]:
    calls: dict[str, list[list[str]]] = {"f1": []}
    names = ["f1"]
    for i in range(2, n + 1):
        name = f"f{i}"
        groups = calls[rng.choice(names)]
        if groups and rng.random() < 0.35:
            rng.choice(groups).append(name)  # join an existing group -> parallel
        else:
            groups.append([name])  # new sequential group
        calls[name] = []
        names.append(name)
    return calls


PETSTORE_FUNCTIONS = (
    "pet-checkout",
    "pet-currency",
    "pet-payment",
    "pet-shipping",
    "pet-email",
)


def _petstore_app(seed: int) -> SimApp:
    calls = {"pet-checkout": [[name] for name in PETSTORE_FUNCTIONS[1:]]}
    graph = CallGraph(compose_calls("pet-checkout", calls))
    common = dict(
        cold_start_s=DEFAULT_COLD_START_S,
        cold_start_prob=DEFAULT_COLD_START_PROB,
        jitter_cv=DEFAULT_JITTER_CV,
    )
    specs = {
        "pet-checkout": SimFunctionSpec("pet-checkout", work=320.0, **common),
        "pet-currency": SimFunctionSpec("pet-currency", work=220.0, **common),
        "pet-email": SimFunctionSpec("pet-email", work=260.0, **common),
        "pet-payment": SimFunctionSpec(
            "pet-payment",
            kind="baas_bound",
            baas_latency_s=0.25,
            cold_start_s=DEFAULT_COLD_START_S,
            cold_start_prob=DEFAULT_COLD_START_PROB,
            jitter_cv=PETSTORE_BAAS_JITTER_CV,
        ),
        "pet-shipping": SimFunctionSpec(
            "pet-shipping",
            kind="baas_bound",
            baas_latency_s=0.30,
            cold_start_s=DEFAULT_COLD_START_S,
            cold_start_prob=DEFAULT_COLD_START_PROB,
            jitter_cv=PETSTORE_BAAS_JITTER_CV,
        ),
    }
    baas = {
        "pet-payment": ("payments-db",),
        "pet-shipping": ("shipping-db",),
    }
    return SimApp(graph=graph, specs=specs, baas_children=baas, shape="petstore", seed=seed)


def generate_app(
    n_functions: int = 3,
    shape: str = "random",
    seed: int = 0,
    jitter_cv: float = DEFAULT_JITTER_CV,
    cold_start_prob: float = DEFAULT_COLD_START_PROB,
    cold_start_s: float = DEFAULT_COLD_START_S,
) -> SimApp:
    """Create a synthetic application.

    Named shapes (``demo3``, ``demo6``, ``demo10``, ``petstore``) have fixed
    topologies and ignore ``n_functions``; ``chain`` and ``random`` build an
    ``n_functions``-sized app. Work units are drawn from the seed, so the
    same (shape, n, seed) always yields the same app.
    """
    if shape not in SHAPES:
        raise InvalidShape(f"unknown shape {shape!r}; choose from {SHAPES}")
    rng = random.Random(seed)
    if shape == "petstore":
        return _petstore_app(seed)
    if shape in _DEMO_CALLS:
        calls = _DEMO_CALLS[shape]
    elif n_functions < 1:
        raise InvalidShape("n_functions must be at least 1")
    elif shape == "chain":
        calls = {"f1": [[f"f{i}"] for i in range(2, n_functions + 1)]}
    else:
        calls = _random_calls(n_functions, rng)

    graph = CallGraph(compose_calls("f1", calls))
    specs = {
        name: SimFunctionSpec(
            function=name,
            work=rng.uniform(*DEFAULT_WORK_RANGE),
            cold_start_s=cold_start_s,
            cold_start_prob=cold_start_prob,
            jitter_cv=jitter_cv,
        )
        for name in graph.functions()
    }
    return SimApp(graph=graph, specs=specs, shape=shape, seed=seed)


# --- load execution ----------------------------------------------------------


def run_load(
    app: SimApp,
    config: Mapping[str, int],
    k_requests: int,
    rng: random.Random,
    trace_prefix: str = "req",
) -> TraceLog:
    """Issue ``k_requests`` synchronous requests and record their traces.

    Each request walks the call graph in virtual time: a function node is
    a bare call, a sequence is its leading function followed by that
    function's call groups, and a parallel node is one group. A function's segment covers its own work, each group starts when
    the previous group (or the invoker's own work) finishes, and members of
    a group share a start time. Backend children appear as ``baas``
    segments inside their function's span.
    """
    log = TraceLog()
    for request in range(k_requests):
        trace_id = f"{trace_prefix}-{request:05d}"
        segments: list[TraceSegment] = []
        counter = iter(range(10**9))

        def emit(node: GraphNode, start: float, parent_id: str | None) -> float:
            head, *groups = node.children if isinstance(node, Sequence) else (node,)
            function = head.name
            spec = app.specs[function]
            duration, cold = sim_duration(spec, config[function], rng)
            segment_id = f"{trace_id}.{next(counter):04d}"
            segments.append(
                TraceSegment(
                    trace_id=trace_id,
                    segment_id=segment_id,
                    parent_id=parent_id,
                    name=function,
                    kind="function",
                    start_time=start,
                    end_time=start + duration,
                    memory_mb=config[function],
                    cold_start=cold,
                )
            )
            backends = app.baas_children.get(function, ())
            for j, backend in enumerate(backends):
                segments.append(
                    TraceSegment(
                        trace_id=trace_id,
                        segment_id=f"{segment_id}.b{j}",
                        parent_id=segment_id,
                        name=backend,
                        kind="baas",
                        start_time=start + duration * j / len(backends),
                        end_time=start + duration * (j + 1) / len(backends),
                    )
                )
            clock = start + duration
            for group in groups:
                if isinstance(group, Parallel):
                    clock = max(emit(member, clock, segment_id) for member in group.children)
                else:
                    clock = emit(group, clock, segment_id)
            return clock

        emit(app.graph.root, 0.0, None)
        log.traces[trace_id] = segments
    return log


def profile_application(
    app: SimApp,
    ladder: MemoryLadder,
    k_per_level: int = 50,
    rng: random.Random | None = None,
) -> TraceLog:
    """Run the profiling workload: k requests at every uniform ladder level.

    Starts at the smallest (default) memory and walks the ladder upward,
    reconfiguring all functions together; returns the concatenated log.
    """
    rng = rng or random.Random(0)
    merged = TraceLog()
    for memory_mb in ladder.effective():
        config = {name: memory_mb for name in app.graph.functions()}
        level = run_load(app, config, k_per_level, rng, trace_prefix=f"m{memory_mb}")
        merged.traces.update(level.traces)
    return merged


def end_to_end_durations(log: TraceLog) -> list[float]:
    """Per-trace span from first segment start to last segment end."""
    durations = []
    for segments in log.traces.values():
        start = min(s.start_time for s in segments)
        end = max(s.end_time for s in segments)
        durations.append(end - start)
    return durations


@dataclass(frozen=True)
class ValidationReport:
    """Observed request latencies for a configuration against an SLO."""

    n_requests: int
    slo_seconds: float
    percentile: float
    conformance: float
    min_s: float
    median_s: float
    p95_s: float
    max_s: float
    at_percentile_s: float

    def to_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "slo_seconds": self.slo_seconds,
            "percentile": self.percentile,
            "conformance": self.conformance,
            "observed": {
                "min_s": self.min_s,
                "median_s": self.median_s,
                "p95_s": self.p95_s,
                "max_s": self.max_s,
                "at_percentile_s": self.at_percentile_s,
            },
        }


def validate_config(
    app: SimApp,
    config: Mapping[str, int],
    slo: SloSpec,
    n_requests: int = 100,
    rng: random.Random | None = None,
) -> ValidationReport:
    """Issue validation requests and report the fraction meeting the SLO."""
    rng = rng or random.Random(0)
    log = run_load(app, config, n_requests, rng, trace_prefix="val")
    durations = end_to_end_durations(log)
    within = sum(1 for d in durations if d <= slo.slo_seconds)
    return ValidationReport(
        n_requests=n_requests,
        slo_seconds=slo.slo_seconds,
        percentile=slo.percentile,
        conformance=within / n_requests,
        min_s=min(durations),
        median_s=percentile_linear(durations, 50),
        p95_s=percentile_linear(durations, 95),
        max_s=max(durations),
        at_percentile_s=percentile_linear(durations, slo.percentile),
    )


# --- app spec files ----------------------------------------------------------


def _spec_to_dict(spec: SimFunctionSpec) -> dict:
    data = {
        "kind": spec.kind,
        "cold_start_s": spec.cold_start_s,
        "cold_start_prob": spec.cold_start_prob,
        "jitter_cv": spec.jitter_cv,
    }
    if spec.kind == "compute":
        data["work"] = spec.work
    else:
        data["baas_latency_s"] = spec.baas_latency_s
    return data


def save_app(app: SimApp, path: str | Path) -> None:
    data = {
        "shape": app.shape,
        "seed": app.seed,
        "graph": graph_to_dict(app.graph.root),
        "functions": {name: _spec_to_dict(spec) for name, spec in app.specs.items()},
        "baas_children": {k: list(v) for k, v in app.baas_children.items()},
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_app(path: str | Path) -> SimApp:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    try:
        graph = CallGraph(graph_from_dict(data["graph"]))
        specs = {
            name: SimFunctionSpec(function=name, **fields)
            for name, fields in data["functions"].items()
        }
        baas = {k: tuple(v) for k, v in data.get("baas_children", {}).items()}
        return SimApp(
            graph=graph,
            specs=specs,
            baas_children=baas,
            shape=data.get("shape", "custom"),
            seed=int(data.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: invalid app spec: {exc}") from None
