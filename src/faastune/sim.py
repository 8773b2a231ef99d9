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

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from .errors import InvalidShape, SchemaError
from .model import (
    CallGraph,
    FunctionNode,
    GraphNode,
    MemoryLadder,
    Parallel,
    Samples,
    Sequence,
    SloSpec,
    _is_int,
    _is_number,
    check_configuration,
)
from .profiles import _percentile_of_sorted
from .traces import (
    TraceLog,
    TraceSegment,
    compose_calls,
    graph_from_dict,
    graph_to_dict,
    read_json,
    write_json,
)

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


@dataclass(frozen=True, slots=True)
class SimFunctionSpec:
    """Latency model for one simulated function.

    ``compute`` kind: base duration = work / min(memory, saturation).
    ``baas_bound`` kind: base duration = baas_latency_s at any memory.
    Multiplicative lognormal jitter with the given coefficient of variation
    and an additive Bernoulli cold-start penalty sit on top of the base.
    """

    work: float = 0.0
    kind: str = "compute"
    baas_latency_s: float | None = None
    cold_start_s: float = 0.0
    cold_start_prob: float = 0.0
    jitter_cv: float = 0.0

    def __post_init__(self):
        for name in ("work", "baas_latency_s", "cold_start_s", "cold_start_prob", "jitter_cv"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, not a boolean")
            if not _is_number(value) and not (name == "baas_latency_s" and value is None):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.kind not in ("compute", "baas_bound"):
            raise ValueError(f"kind must be 'compute' or 'baas_bound', got {self.kind!r}")
        # Chained comparisons are false for NaN, so these reject it too.
        if self.kind == "compute" and not 0 < self.work < math.inf:
            raise ValueError("compute functions need positive, finite work")
        if self.kind == "baas_bound" and (
            self.baas_latency_s is None or not 0 < self.baas_latency_s < math.inf
        ):
            raise ValueError("baas_bound functions need positive, finite baas_latency_s")
        if not 0 <= self.cold_start_prob <= 1:
            raise ValueError("cold_start_prob must be in [0, 1]")
        if not (0 <= self.cold_start_s < math.inf and 0 <= self.jitter_cv < math.inf):
            raise ValueError("cold_start_s and jitter_cv must be non-negative and finite")
        # A spec file carries only the field its kind reads, so a spec that
        # sets the other would not load back as itself.
        if self.kind == "compute" and self.baas_latency_s is not None:
            raise ValueError("a compute function takes no baas_latency_s, "
                             f"got {self.baas_latency_s!r}")
        if self.kind == "baas_bound" and self.work != 0:
            raise ValueError(f"a baas_bound function takes no work, got {self.work!r}")


#: One invocation of a request: its function, the index of the invocation
#: that called it (None for the root) and the indices of the earlier
#: invocations whose latest end is its start (empty for the root).
_Invocation = tuple[str, int | None, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class SimApp:
    """A simulated application: call graph plus per-function latency specs.
    Raises ValueError for all that :func:`load_app` refuses in an app file."""

    graph: CallGraph
    specs: Mapping[str, SimFunctionSpec]
    baas_children: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    shape: str = "custom"
    seed: int = 0
    #: The invocations of one request, built from the graph (see
    #: :func:`_invocation_plan`).
    _plan: tuple[_Invocation, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.shape, str):
            raise ValueError(f"shape must be a string, got {self.shape!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        functions = set(self.graph.functions())
        if set(self.specs) != functions:
            raise ValueError("specs must cover exactly the graph's functions")
        for parent, backends in self.baas_children.items():
            if parent not in functions:
                raise ValueError(f"baas_children parent {parent!r} is not a function")
            if not isinstance(backends, (tuple, list)) or not all(type(b) is str and b for b in backends):
                raise ValueError(f"backends of {parent!r} must be a list of non-empty strings")
        # Tuples, as load_app reads them, so an app built with lists saves
        # and loads back equal.
        object.__setattr__(self, "baas_children",
                           {parent: tuple(backends) for parent, backends in self.baas_children.items()})
        object.__setattr__(self, "_plan", _invocation_plan(self.graph.root))


def _invocation_plan(root: GraphNode) -> tuple[_Invocation, ...]:
    """The invocations of one request, in the order it emits them (preorder).

    Every invocation starts at a single function: the root and each member
    of a parallel group must be a function or a sequence opening with one
    (ValueError otherwise). An invocation does its function's own work,
    then runs its call groups one after another: a group starts when the
    previous one (or the invocation's own work) has finished and finishes
    when all its members have. An invocation that calls nothing is closed
    by its own end; one that does, by the invocations that close its last
    group's members. ``max`` returns one of its arguments exactly, so each
    start is exactly the latest end among the invocations that close the
    previous group, and the plan lists those: timing a request needs no
    recursion.
    """
    plan: list[_Invocation] = []

    def visit(node: GraphNode, parent: int | None, after: tuple[int, ...]) -> tuple[int, ...]:
        if isinstance(node, FunctionNode):
            plan.append((node.name, parent, after))
            return (len(plan) - 1,)
        head = node.children[0]
        if not isinstance(node, Sequence) or not isinstance(head, FunctionNode):
            raise ValueError("graph has no single entry function, so it cannot be simulated")
        index = len(plan)
        plan.append((head.name, parent, after))
        closing = (index,)
        for group in node.children[1:]:
            if isinstance(group, Parallel):
                after, closing = closing, ()
                for member in group.children:
                    closing += visit(member, index, after)
            else:
                closing = visit(group, index, closing)
        return closing

    visit(root, None, ())
    return tuple(plan)


# --- application generation --------------------------------------------------

#: Fixed topologies as call tables: each function's ordered groups of
#: callees. The first function listed is the entry.
_FIXED_CALLS = {
    "demo3": {"f1": [["f2"], ["f3"]]},
    "demo6": {"f1": [["f2", "f3"]], "f2": [["f4"], ["f5"]], "f3": [["f6"]]},
    "demo10": {
        "f1": [["f2", "f3", "f4"], ["f10"]],
        "f2": [["f5"], ["f6"]],
        "f3": [["f7", "f8"]],
        "f4": [["f9"]],
    },
    "petstore": {
        "pet-checkout": [["pet-currency"], ["pet-payment"], ["pet-shipping"], ["pet-email"]],
    },
}

#: Petstore's compute functions and their fixed work units; other shapes
#: draw work from the seed.
_PETSTORE_WORK = {"pet-checkout": 320.0, "pet-currency": 220.0, "pet-email": 260.0}
#: Petstore's backend-bound functions: (backend, latency in seconds).
_PETSTORE_BACKENDS = {"pet-payment": ("payments-db", 0.25), "pet-shipping": ("shipping-db", 0.30)}


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


def generate_app(
    n_functions: int = 3,
    shape: str = "random",
    seed: int = 0,
) -> SimApp:
    """Create a synthetic application.

    Named shapes (``demo3``, ``demo6``, ``demo10``, ``petstore``) have fixed
    topologies and ignore ``n_functions``; ``chain`` and ``random`` build an
    ``n_functions``-sized app. Work units are drawn from the seed, in
    execution order, except petstore's, which are fixed; so the same
    (shape, n, seed) always yields the same app. Every function gets the
    default jitter and cold starts (``DEFAULT_JITTER_CV`` and
    ``DEFAULT_COLD_START_*``; petstore's backend-bound functions jitter
    more); to simulate other noise, ``dataclasses.replace`` the specs.
    Raises InvalidShape, before anything is drawn, for an unknown shape, a
    ``seed`` that is not an integer and, for ``chain`` and ``random``, an
    ``n_functions`` that is not a positive integer.
    """
    if shape not in SHAPES:
        raise InvalidShape(f"unknown shape {shape!r}; choose from {SHAPES}")
    if shape not in _FIXED_CALLS and not (_is_int(n_functions) and n_functions >= 1):
        raise InvalidShape(f"n_functions must be an integer of at least 1, got {n_functions!r}")
    if not _is_int(seed):
        raise InvalidShape(f"seed must be an integer, got {seed!r}")
    rng = random.Random(seed)
    if shape in _FIXED_CALLS:
        calls = _FIXED_CALLS[shape]
    elif shape == "chain":
        calls = {"f1": [[f"f{i}"] for i in range(2, n_functions + 1)]}
    else:
        calls = _random_calls(n_functions, rng)

    graph = CallGraph(compose_calls(next(iter(calls)), calls))
    specs: dict[str, SimFunctionSpec] = {}
    baas: dict[str, tuple[str, ...]] = {}
    # Petstore's spec files list its functions by name.
    for name in sorted(graph.functions()) if shape == "petstore" else graph.functions():
        if name in _PETSTORE_BACKENDS:
            backend, latency_s = _PETSTORE_BACKENDS[name]
            baas[name] = (backend,)
            latency = dict(kind="baas_bound", baas_latency_s=latency_s,
                           jitter_cv=PETSTORE_BAAS_JITTER_CV)
        else:
            work = _PETSTORE_WORK[name] if shape == "petstore" else rng.uniform(*DEFAULT_WORK_RANGE)
            latency = dict(work=work, jitter_cv=DEFAULT_JITTER_CV)
        specs[name] = SimFunctionSpec(cold_start_s=DEFAULT_COLD_START_S,
                                      cold_start_prob=DEFAULT_COLD_START_PROB, **latency)
    return SimApp(graph=graph, specs=specs, baas_children=baas, shape=shape, seed=seed)


# --- load execution ----------------------------------------------------------


def _simulate(
    app: SimApp, config: Mapping[str, int], n_requests: int, rng: random.Random,
    invocations: bool = False,
) -> Iterator[float] | Iterator[tuple[list[float], list[float], list[bool], float]]:
    """Yield the finish of each of ``n_requests`` requests or, with
    ``invocations``, its (starts, durations, cold starts, finish), the lists
    indexed like the app's invocation plan. Both draw the same requests.

    A compute function's base duration is work / min(memory, saturation); a
    backend-bound one's is its backend latency at any memory. Jitter
    multiplies the base by one unit-mean lognormal draw, and a function
    that can start cold then draws once more and, when cold, adds its
    penalty. Each request draws its invocations in plan order and starts
    each one at the latest end of the invocations its plan entry lists
    (the root at 0). Every invocation ends by the time its invoker
    finishes, so the request's finish is its latest end (ValueError, once drawn, if not finite).
    A request count that is not an int, or is a bool, raises ValueError, and
    a configuration :func:`check_configuration` refuses raises its error,
    both before anything is drawn.
    """
    if not _is_int(n_requests):
        raise ValueError(f"the request count must be an integer, got {n_requests!r}")
    check_configuration(app.graph, config)
    table = []
    for name, _, after in app._plan:
        spec = app.specs[name]
        memory_mb = config[name]
        if spec.kind == "baas_bound":
            base = float(spec.baas_latency_s)
        else:
            base = spec.work / min(memory_mb, CPU_SATURATION_MB)
        mu = sigma = None
        if spec.jitter_cv > 0:
            sigma = math.sqrt(math.log(1.0 + spec.jitter_cv**2))
            mu = -0.5 * sigma * sigma  # unit-mean lognormal
        # ``ends`` below holds the request's start (0) before the
        # invocations' ends, so plan index k reads ends[k + 1]. An entry
        # that waits on one end keeps it as a plain index.
        after = tuple(k + 1 for k in after) or (0,)
        table.append((base, mu, sigma, spec.cold_start_prob, spec.cold_start_s,
                      after[0] if len(after) == 1 else after))
    rand, log, exp, nv_magic = rng.random, math.log, math.exp, random.NV_MAGICCONST
    for _ in range(n_requests):
        if invocations:
            starts: list[float] = []
            durations: list[float] = []
            colds: list[bool] = []
        ends = [0.0]
        for base, mu, sigma, cold_prob, cold_s, after in table:
            duration = base
            if sigma is not None:
                # rng.lognormvariate(mu, sigma) inline: the Kinderman-Monahan
                # loop of random.Random.normalvariate, operation for
                # operation, so the draw and the generator state are its own.
                while True:
                    u1 = rand()
                    u2 = 1.0 - rand()
                    z = nv_magic * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                duration *= exp(mu + z * sigma)
            cold = cold_prob > 0 and rand() < cold_prob
            if cold:
                duration += cold_s
            start = ends[after] if type(after) is int else max(map(ends.__getitem__, after))
            if invocations:
                starts.append(start)
                durations.append(duration)
                colds.append(cold)
            ends.append(start + duration)
        finish = max(ends)
        if not finish < math.inf:
            raise ValueError("simulated request latencies must be finite")
        yield (starts, durations, colds, finish) if invocations else finish


def run_load(
    app: SimApp,
    config: Mapping[str, int],
    k_requests: int,
    rng: random.Random,
) -> TraceLog:
    """Issue ``k_requests`` synchronous requests and record their traces.

    Each request walks the call graph in virtual time: a function node is
    a bare call, a sequence is its leading function followed by that
    function's call groups, and a parallel node is one group. A function's
    segment covers its own work, each group starts when the previous group
    (or the invoker's own work) finishes, and members of a group share a
    start time. Backend children appear as ``baas`` segments that split
    their function's span evenly: call j of n starts at ``start + duration
    * (j / n)``, and the last ends with the function. Trace ids are
    ``req-00000``, ``req-00001``, ...
    """
    return TraceLog(_load_traces(app, config, k_requests, rng, "req"))


def _load_traces(
    app: SimApp, config: Mapping[str, int], k_requests: int, rng: random.Random, trace_prefix: str
) -> dict[str, list[TraceSegment]]:
    """The traces of :func:`run_load` by trace id, before the log checks them."""
    new = TraceSegment.__new__  # TraceSegment(...) and its checks, minus type.__call__
    # Per plan entry, once per call: its segment id's suffix, function,
    # calling entry, memory size, and each backend call's id suffix, name
    # and share of the span before its start and end (None: the span's end).
    entries = []
    for i, (name, parent, _) in enumerate(app._plan):
        suffix = ".%04d" % i
        backends = app.baas_children.get(name, ())
        n = len(backends)
        # ``j / n`` is at most 1, so no boundary passes the function's end
        # or overflows; the last call ends with it.
        calls = [(suffix + ".b%d" % j, backend, j / n, None if j == n - 1 else (j + 1) / n)
                 for j, backend in enumerate(backends)]
        # ``_simulate`` refuses a configuration without ``name`` before any
        # segment is built.
        entries.append((suffix, name, parent, config.get(name), calls))
    traces: dict[str, list[TraceSegment]] = {}
    requests = _simulate(app, config, k_requests, rng, invocations=True)
    for request, (starts, durations, colds, _) in enumerate(requests):
        trace_id = f"{trace_prefix}-{request:05d}"
        ids: list[str] = []
        segments: list[TraceSegment] = []
        for (suffix, name, parent, memory_mb, calls), start, duration, cold in zip(
            entries, starts, durations, colds
        ):
            segment_id = trace_id + suffix
            ids.append(segment_id)
            end = start + duration
            # TraceSegment's fields in order: trace, segment, name, kind,
            # start, end, parent, memory, cold start.
            segments.append(new(
                TraceSegment, trace_id, segment_id, name, "function", start, end,
                None if parent is None else ids[parent], memory_mb, cold,
            ))
            for call_suffix, backend, before, until in calls:
                segments.append(new(
                    TraceSegment, trace_id, trace_id + call_suffix, backend, "baas",
                    start + duration * before, end if until is None else start + duration * until,
                    segment_id,
                ))
        traces[trace_id] = segments
    return traces


def profile_application(
    app: SimApp,
    ladder: MemoryLadder,
    k_per_level: int,
    rng: random.Random,
) -> TraceLog:
    """Run the profiling workload: k requests at every uniform ladder level.

    Starts at the smallest (default) memory and walks the ladder upward,
    reconfiguring all functions together; returns the concatenated log.
    :func:`profile_samples` draws the same sample table
    :func:`~faastune.traces.extract_samples` reads off this log, without
    the log.
    """
    traces: dict[str, list[TraceSegment]] = {}
    for memory_mb in ladder.effective():
        config = {name: memory_mb for name in app.graph.functions()}
        traces.update(_load_traces(app, config, k_per_level, rng, f"m{memory_mb}"))
    return TraceLog(traces)


def profile_samples(
    app: SimApp,
    ladder: MemoryLadder,
    k_per_level: int,
    rng: random.Random,
) -> Samples:
    """``extract_samples(profile_application(...))``, drawn without a trace.

    The same rungs, requests and random draws in the same order, row k of
    each column at a rung being request k there, each duration read as
    ``(start + duration) - start``, as it is read off a segment. A rung with
    no request has no cells, as in a trace. On a valid app both paths fail
    only where the walker does: ValueError on a request whose finish is not
    finite.
    """
    names = [name for name, _, _ in app._plan]
    samples: Samples = {}
    for memory_mb in ladder.effective():
        config = {name: memory_mb for name in app.graph.functions()}
        rows = [[(start + duration) - start for start, duration in zip(starts, durations)]
                for starts, durations, _, _ in _simulate(app, config, k_per_level, rng,
                                                         invocations=True)]
        # The walker gives a row per request; the table keeps a column per function.
        cells = {name: list(column) for name, column in zip(names, zip(*rows))}
        if cells:
            samples[memory_mb] = cells
    return samples


@dataclass(frozen=True, slots=True)
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
    n_requests: int,
    rng: random.Random,
) -> ValidationReport:
    """Issue validation requests and report the fraction meeting the SLO.

    Each request's latency is its finish; every statistic is read from
    one sorted list of them, and a request meets the SLO when its latency
    is at most ``slo_seconds``.
    """
    finishes = sorted(_simulate(app, config, n_requests, rng))
    if not finishes:
        raise ValueError(f"n_requests must be at least 1, got {n_requests!r}")
    return ValidationReport(
        n_requests=n_requests,
        slo_seconds=slo.slo_seconds,
        percentile=slo.percentile,
        conformance=bisect_right(finishes, slo.slo_seconds) / n_requests,
        min_s=finishes[0],
        median_s=_percentile_of_sorted(finishes, 50),
        p95_s=_percentile_of_sorted(finishes, 95),
        max_s=finishes[-1],
        at_percentile_s=_percentile_of_sorted(finishes, slo.percentile),
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
    write_json(path, data)


def load_app(path: str | Path) -> SimApp:
    data = read_json(path)
    try:
        graph = CallGraph(graph_from_dict(data["graph"]))
        specs = {name: SimFunctionSpec(**fields) for name, fields in data["functions"].items()}
        optional = {key: data[key] for key in ("baas_children", "shape", "seed") if key in data}
        return SimApp(graph=graph, specs=specs, **optional)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: invalid app spec: {exc}") from None
