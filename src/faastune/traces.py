"""Parse trace logs into call graphs and execution samples.

The trace file format is newline-delimited JSON, one segment per line.
Segments form an invocation tree per trace via ``parent_id``; backend
services (``kind: baas``) are kept by the parser but dropped when the call
graph is built, since only functions can be resized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from .errors import (
    DuplicateFunction,
    EmptyAfterFiltering,
    InconsistentTopology,
    MissingMemoryAnnotation,
    MultipleRoots,
    OrphanSegment,
    ParseError,
    SchemaError,
    UnreachableSegment,
)
from .model import (
    CallGraph,
    ExecutionSample,
    FunctionNode,
    GraphNode,
    Parallel,
    Sequence,
)

SEGMENT_KINDS = ("function", "baas")


@dataclass(frozen=True)
class TraceSegment:
    """One timed span from a distributed trace."""

    trace_id: str
    segment_id: str
    name: str
    kind: str
    start_time: float
    end_time: float
    parent_id: str | None = None
    memory_mb: int | None = None
    cold_start: bool | None = None

    def __post_init__(self):
        if not self.trace_id or not self.segment_id or not self.name:
            raise ValueError("trace_id, segment_id and name must be non-empty")
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"kind must be one of {SEGMENT_KINDS}, got {self.kind!r}")
        if not -math.inf < self.start_time <= self.end_time < math.inf:
            raise ValueError(
                "start_time and end_time must be finite, end_time not before start_time"
            )
        if self.memory_mb is not None and self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive when present")

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time


@dataclass
class TraceLog:
    """Segments grouped by trace, in file/emission order."""

    traces: dict[str, list[TraceSegment]] = field(default_factory=dict)

    def all_segments(self) -> Iterator[TraceSegment]:
        for segments in self.traces.values():
            yield from segments

    def __len__(self) -> int:
        return len(self.traces)


_REQUIRED_KEYS = ("trace_id", "segment_id", "name", "kind", "start_time", "end_time")
_OPTIONAL_KEYS = ("parent_id", "memory_mb", "cold_start")


def _segment_from_record(record: dict) -> TraceSegment:
    unknown = set(record) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in record]
    if missing:
        raise ValueError(f"missing keys: {missing}")
    memory_mb = record.get("memory_mb")
    return TraceSegment(
        trace_id=str(record["trace_id"]),
        segment_id=str(record["segment_id"]),
        name=str(record["name"]),
        kind=record["kind"],
        start_time=float(record["start_time"]),
        end_time=float(record["end_time"]),
        parent_id=record.get("parent_id"),
        memory_mb=int(memory_mb) if memory_mb is not None else None,
        cold_start=record.get("cold_start"),
    )


def _segment_to_record(segment: TraceSegment) -> dict:
    record = {
        "trace_id": segment.trace_id,
        "segment_id": segment.segment_id,
        "parent_id": segment.parent_id,
        "name": segment.name,
        "kind": segment.kind,
        "start_time": segment.start_time,
        "end_time": segment.end_time,
    }
    if segment.parent_id is None:
        del record["parent_id"]
    if segment.memory_mb is not None:
        record["memory_mb"] = segment.memory_mb
    if segment.cold_start is not None:
        record["cold_start"] = segment.cold_start
    return record


def parse_trace_file(source: str | Path | IO[str]) -> TraceLog:
    """Parse newline-delimited segment records into a :class:`TraceLog`.

    Referential integrity is enforced per trace: parent ids must resolve
    (:class:`OrphanSegment`), segment ids must be unique, exactly one
    segment per trace may lack a parent (:class:`MultipleRoots`) and every
    segment must reach it through its parents (:class:`UnreachableSegment`,
    which catches cycles). Malformed lines raise :class:`ParseError` with
    their line number.
    """
    if hasattr(source, "read"):
        log = _parse_lines(iter(source))  # type: ignore[arg-type]
    else:
        with open(source) as fh:
            log = _parse_lines(fh)

    for trace_id, segments in log.traces.items():
        children: dict[str | None, list[str]] = {}
        for s in segments:
            children.setdefault(s.parent_id, []).append(s.segment_id)
        roots = children.get(None, [])
        reached = list(roots)
        for segment_id in reached:
            reached.extend(children.get(segment_id, ()))
        if len(roots) == 1 and len(reached) == len(segments):
            continue
        ids = {s.segment_id for s in segments}
        for s in segments:
            if s.parent_id is not None and s.parent_id not in ids:
                raise OrphanSegment(s.segment_id)
        if len(roots) > 1:
            raise MultipleRoots(trace_id)
        if not roots:
            raise ParseError(0, f"trace {trace_id!r} has no root segment")
        raise UnreachableSegment(min(ids.difference(reached)))
    return log


def _parse_lines(lines: Iterable[str]) -> TraceLog:
    log = TraceLog()
    seen: set[tuple[str, str]] = set()
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
            if not isinstance(record, dict):
                raise ValueError("record must be a JSON object")
            segment = _segment_from_record(record)
        except (json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
            raise ParseError(line_no, str(exc)) from None
        key = (segment.trace_id, segment.segment_id)
        if key in seen:
            raise ParseError(line_no, f"duplicate segment_id {segment.segment_id!r}")
        seen.add(key)
        log.traces.setdefault(segment.trace_id, []).append(segment)
    return log


def write_trace_file(log: TraceLog, target: str | Path | IO[str]) -> None:
    """Write a :class:`TraceLog` in the newline-delimited format, losslessly."""
    if hasattr(target, "write"):
        _write_lines(log, target)  # type: ignore[arg-type]
    else:
        with open(target, "w") as fh:
            _write_lines(log, fh)


def _write_lines(log: TraceLog, fh: IO[str]) -> None:
    for segment in log.all_segments():
        fh.write(json.dumps(_segment_to_record(segment)))
        fh.write("\n")


def extract_samples(log: TraceLog) -> list[ExecutionSample]:
    """One sample per function segment; backend-service segments are skipped.

    Function segments must carry ``memory_mb``
    (:class:`MissingMemoryAnnotation` otherwise). Samples come out in trace
    order, so per-cell sample lists stay aligned by request.
    """
    samples: list[ExecutionSample] = []
    for segment in log.all_segments():
        if segment.kind != "function":
            continue
        if segment.memory_mb is None:
            raise MissingMemoryAnnotation(segment.segment_id)
        samples.append(
            ExecutionSample(
                function=segment.name,
                memory_mb=segment.memory_mb,
                duration_s=segment.duration_s,
                cold_start=bool(segment.cold_start),
            )
        )
    return samples


def _intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    # Half-open [start, end): touching endpoints do not overlap.
    return a[0] < b[1] and b[0] < a[1]


@dataclass
class _TraceShape:
    trace_id: str
    root: str
    parent_of: dict[str, str | None]
    intervals: dict[str, tuple[float, float]]


def _trace_shape(trace_id: str, segments: list[TraceSegment]) -> _TraceShape | None:
    by_id = {s.segment_id: s for s in segments}
    functions = [s for s in segments if s.kind == "function"]
    if not functions:
        return None
    names_seen: set[str] = set()
    for s in functions:
        if s.name in names_seen:
            raise DuplicateFunction(s.name)
        names_seen.add(s.name)
    parent_of: dict[str, str | None] = {}
    intervals: dict[str, tuple[float, float]] = {}
    root: str | None = None
    for s in functions:
        intervals[s.name] = (s.start_time, s.end_time)
        if s.parent_id is None:
            if root is not None:
                raise MultipleRoots(trace_id)
            root = s.name
            parent_of[s.name] = None
            continue
        parent = by_id.get(s.parent_id)
        if parent is None:
            raise OrphanSegment(s.segment_id)
        if parent.kind != "function":
            raise InconsistentTopology(
                f"trace {trace_id!r}: function {s.name!r} is invoked by "
                f"backend service {parent.name!r}, which cannot be modeled"
            )
        parent_of[s.name] = parent.name
    if root is None:
        raise InconsistentTopology(
            f"trace {trace_id!r}: root segment is not a function"
        )
    return _TraceShape(trace_id, root, parent_of, intervals)


def _parallel_groups(
    siblings: list[str],
    shapes: list[_TraceShape],
    mean_start: dict[str, float],
) -> list[list[str]]:
    """Cluster siblings into concurrently-executed groups.

    A pair runs in parallel iff its intervals overlap in a strict majority
    of traces (ties are sequential: a sequential estimate can only
    overestimate, never miss the SLO). Groups are the connected components
    of that relation, ordered by earliest mean start time.
    """
    n_traces = len(shapes)
    adjacent: dict[str, set[str]] = {name: set() for name in siblings}
    for i, a in enumerate(siblings):
        for b in siblings[i + 1 :]:
            votes = sum(
                1
                for shape in shapes
                if _intervals_overlap(shape.intervals[a], shape.intervals[b])
            )
            if votes * 2 > n_traces:
                adjacent[a].add(b)
                adjacent[b].add(a)
    groups: list[list[str]] = []
    unvisited = set(siblings)
    for name in siblings:
        if name not in unvisited:
            continue
        component = []
        stack = [name]
        unvisited.discard(name)
        while stack:
            current = stack.pop()
            component.append(current)
            for other in adjacent[current]:
                if other in unvisited:
                    unvisited.discard(other)
                    stack.append(other)
        groups.append(sorted(component, key=lambda m: (mean_start[m], m)))
    groups.sort(key=lambda g: (min(mean_start[m] for m in g), g[0]))
    return groups


def compose_calls(root: str, calls: Mapping[str, list[list[str]]]) -> GraphNode:
    """The graph of an invocation structure: ``root`` runs, then each group of
    the functions it calls (``calls[root]``, in order); a lone call stands as
    itself and concurrent calls form a parallel group. The node nests a
    sequence per calling function; wrapping it in a :class:`CallGraph`
    splices that nesting into canonical form."""
    head = FunctionNode(root)
    groups = calls.get(root)
    if not groups:
        return head
    nodes = [[compose_calls(m, calls) for m in g] for g in groups]
    return Sequence((head, *(g[0] if len(g) == 1 else Parallel(tuple(g)) for g in nodes)))


def build_call_graph(log: TraceLog) -> CallGraph:
    """Reconstruct the application call graph from one or more traces.

    Backend-service segments are dropped. All traces must agree on which
    function invokes which (:class:`InconsistentTopology` otherwise);
    parallel-versus-sequence classification of siblings is decided by
    majority vote over the traces' interval overlaps, and sequential
    siblings are ordered by mean start time. As in :func:`parse_trace_file`,
    a second parentless function segment raises :class:`MultipleRoots`, a
    function segment whose parent is not in its trace raises
    :class:`OrphanSegment` and one that never reaches the root (a cycle)
    raises :class:`UnreachableSegment`, so a log built in memory cannot
    lose functions either.
    """
    shapes: list[_TraceShape] = []
    for trace_id, segments in log.traces.items():
        shape = _trace_shape(trace_id, segments)
        if shape is not None:
            shapes.append(shape)
    if not shapes:
        raise EmptyAfterFiltering("no function segments in any trace")

    reference = shapes[0]
    for shape in shapes[1:]:
        if shape.parent_of != reference.parent_of or shape.root != reference.root:
            raise InconsistentTopology(
                "traces imply different invocation structures"
            )

    children: dict[str, list[str]] = {}
    for name, parent in reference.parent_of.items():
        if parent is not None:
            children.setdefault(parent, []).append(name)
    mean_start = {
        name: sum(s.intervals[name][0] for s in shapes) / len(shapes)
        for name in reference.parent_of
    }

    calls = {name: _parallel_groups(kids, shapes, mean_start) for name, kids in children.items()}
    graph = CallGraph(compose_calls(reference.root, calls))
    lost = set(reference.parent_of).difference(graph.functions())
    if lost:
        segments = log.traces[reference.trace_id]
        raise UnreachableSegment(min(s.segment_id for s in segments if s.name in lost))
    return graph


# --- declarative graph files -------------------------------------------------

_NODE_KINDS = ("function", "sequence", "parallel")


def graph_from_dict(data: object) -> GraphNode:
    """Build a graph node from the declarative JSON structure."""
    if not isinstance(data, dict):
        raise SchemaError(f"graph node must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in _NODE_KINDS:
        raise SchemaError(f"node kind must be one of {_NODE_KINDS}, got {kind!r}")
    if kind == "function":
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError("function node needs a non-empty 'name'")
        if "children" in data:
            raise SchemaError("function nodes cannot have children")
        return FunctionNode(name)
    children = data.get("children")
    if not isinstance(children, list) or not children:
        raise SchemaError(f"{kind} node needs a non-empty 'children' array")
    parsed = tuple(graph_from_dict(c) for c in children)
    return Sequence(parsed) if kind == "sequence" else Parallel(parsed)


def graph_to_dict(node: GraphNode) -> dict:
    if isinstance(node, FunctionNode):
        return {"kind": "function", "name": node.name}
    kind = "sequence" if isinstance(node, Sequence) else "parallel"
    return {"kind": kind, "children": [graph_to_dict(c) for c in node.children]}


def load_manual_graph(path: str | Path) -> CallGraph:
    """Load a user-written declarative call graph (in canonical form)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    return CallGraph(graph_from_dict(data))
