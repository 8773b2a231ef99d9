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
from types import MappingProxyType
from typing import IO, Iterable, Mapping, NamedTuple

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
    FunctionNode,
    GraphNode,
    Parallel,
    Samples,
    Sequence,
)

SEGMENT_KINDS = ("function", "baas")


class _SegmentFields(NamedTuple):
    trace_id: str
    segment_id: str
    name: str
    kind: str
    start_time: float
    end_time: float
    parent_id: str | None = None
    memory_mb: int | None = None
    cold_start: bool | None = None


def _mistyped(key: str, value: object, expected: str) -> ValueError:
    return ValueError(f"{key} must be {expected}, got {value!r}")


class TraceSegment(_SegmentFields):
    """One timed span from a distributed trace.

    A checked tuple: the parser and the simulator build one per span, so
    construction stays cheap, but every field is validated as it is built.
    Each field holds the type ``docs/file-formats.md`` documents for its
    key, so every segment writes a line that parses back to itself: ids and
    names are strings, ``parent_id`` a string or None, times ints or floats
    (not bools) stored as floats, ``memory_mb`` an int (not a bool) or
    None, and ``cold_start`` a bool or None.
    """

    __slots__ = ()

    def __new__(
        cls,
        trace_id: str,
        segment_id: str,
        name: str,
        kind: str,
        start_time: float,
        end_time: float,
        parent_id: str | None = None,
        memory_mb: int | None = None,
        cold_start: bool | None = None,
    ):
        # The types first, in key order, then the values.
        if type(trace_id) is not str:
            raise _mistyped("trace_id", trace_id, "a string")
        if type(segment_id) is not str:
            raise _mistyped("segment_id", segment_id, "a string")
        if type(name) is not str:
            raise _mistyped("name", name, "a string")
        if type(start_time) is not float:
            if type(start_time) is not int:
                raise _mistyped("start_time", start_time, "a number")
            start_time = float(start_time)
        if type(end_time) is not float:
            if type(end_time) is not int:
                raise _mistyped("end_time", end_time, "a number")
            end_time = float(end_time)
        if parent_id is not None and type(parent_id) is not str:
            raise _mistyped("parent_id", parent_id, "a string or null")
        if memory_mb is not None and type(memory_mb) is not int:
            raise _mistyped("memory_mb", memory_mb, "an integer or null")
        if cold_start is not None and type(cold_start) is not bool:
            raise _mistyped("cold_start", cold_start, "a boolean or null")
        if not trace_id or not segment_id or not name:
            raise ValueError("trace_id, segment_id and name must be non-empty")
        if kind not in SEGMENT_KINDS:
            raise ValueError(f"kind must be one of {SEGMENT_KINDS}, got {kind!r}")
        if not -math.inf < start_time <= end_time < math.inf:
            raise ValueError(
                "start_time and end_time must be finite, end_time not before start_time"
            )
        if memory_mb is not None and memory_mb <= 0:
            raise ValueError("memory_mb must be positive when present")
        return tuple.__new__(
            cls,
            (trace_id, segment_id, name, kind, start_time, end_time, parent_id, memory_mb, cold_start),
        )

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``; route both through the checks.
        return cls(*iterable)


@dataclass(frozen=True, slots=True)
class TraceLog:
    """Segments grouped by trace, in file/emission order. Each trace must
    be one tree (:func:`_check_tree`) when built; ``traces`` is read-only."""

    traces: Mapping[str, tuple[TraceSegment, ...]] = field(default_factory=dict)

    def __post_init__(self):
        traces = {trace_id: tuple(segments) for trace_id, segments in self.traces.items()}
        for trace_id, segments in traces.items():
            _check_tree(trace_id, segments)
        object.__setattr__(self, "traces", MappingProxyType(traces))

    def __reduce__(self):  # a mapping proxy does not pickle; the dict it shows does
        return TraceLog, (dict(self.traces),)


_KNOWN_KEY_SET = frozenset(_SegmentFields._fields)


#: ``TraceSegment(...)`` with its checks, minus ``type.__call__``: a tuple
#: has no ``__init__`` to run after ``__new__``.
_new_segment = TraceSegment.__new__


def _bad_keys(record: dict) -> str:
    """Why the keys of ``record`` are not the fields of a segment: unknown
    keys first, then missing ones."""
    keys = record.keys()
    if not keys <= _KNOWN_KEY_SET:
        return f"unknown keys: {sorted(keys - _KNOWN_KEY_SET)}"
    required = (k for k in _SegmentFields._fields if k not in _SegmentFields._field_defaults)
    return f"missing keys: {[k for k in required if k not in record]}"


def parse_trace_file(source: str | Path | IO[str]) -> TraceLog:
    """Parse newline-delimited segment records into a :class:`TraceLog`.

    Malformed lines and segment ids repeated within a trace raise
    :class:`ParseError` with their line number; each trace must then form
    one tree, as every :class:`TraceLog` does. A path is read once, as
    UTF-8, and a line that is not UTF-8 is a :class:`ParseError` too.
    """
    if hasattr(source, "read"):
        traces = _parse_lines(iter(source))  # type: ignore[arg-type]
    else:
        # Bytes that are not UTF-8 are read as lone surrogates, which
        # :func:`_parse_lines` reports at their line.
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            traces = _parse_lines(fh)
    return TraceLog(traces)


def _check_tree(trace_id: str, segments: tuple[TraceSegment, ...]) -> None:
    """Check that the segments of one trace form one tree.

    Each segment must carry ``trace_id``, ids must be unique and the trace
    must have a root segment (:class:`ParseError` at line 0 otherwise),
    parent ids must resolve (:class:`OrphanSegment`), exactly one segment
    may lack a parent (:class:`MultipleRoots`) and every segment must reach
    it through its parents (:class:`UnreachableSegment`, catching cycles).
    Of a repeated id and a segment of another trace, the first in list
    order is reported.
    """
    parent_of: dict[str, str | None] = {}
    roots = 0
    parents_first = True  # every parent is listed before its children
    for segment_trace, segment_id, _, _, _, _, parent_id, _, _ in segments:
        if segment_trace != trace_id:
            raise ParseError(0, f"trace {trace_id!r} holds segment {segment_id!r} of trace {segment_trace!r}")
        if segment_id in parent_of:
            raise ParseError(0, f"trace {trace_id!r} repeats segment_id {segment_id!r}")
        if parent_id is None:
            roots += 1
        elif parent_id not in parent_of:
            parents_first = False
        parent_of[segment_id] = parent_id
    if roots == 1 and parents_first:
        return  # each parent path runs up the list to the one root
    children: dict[str | None, list[str]] = {}
    for segment_id, parent_id in parent_of.items():
        if parent_id is not None and parent_id not in parent_of:
            raise OrphanSegment(segment_id)
        children.setdefault(parent_id, []).append(segment_id)
    if roots > 1:
        raise MultipleRoots(trace_id)
    if not roots:
        raise ParseError(0, f"trace {trace_id!r} has no root segment")
    reached = children[None]
    for segment_id in reached:
        reached.extend(children.get(segment_id, ()))
    if len(reached) != len(segments):
        raise UnreachableSegment(min(parent_of.keys() - reached))


#: Decodes one line per call; :func:`json.loads` would add two whitespace
#: scans and two Python-level calls around the same C scanner.
_DECODER = json.JSONDecoder()


def _parse_lines(lines: Iterable[str]) -> dict[str, tuple[TraceSegment, ...]]:
    """Each trace's segments, in line order.

    Each non-blank line is decoded and checked on its own. A line holding
    a lone surrogate, as a file read with ``surrogateescape`` holds for each
    byte that is not UTF-8, is an error with the codec's message for that
    line alone. Within one call, equal trace ids, names and kinds share one
    string object, and a parent id that names a segment already read is
    that segment's own id object.
    """
    traces: dict[str, dict[str, TraceSegment]] = {}
    shared = {kind: kind for kind in SEGMENT_KINDS}
    share = shared.setdefault
    raw_decode = _DECODER.raw_decode
    for line_no, line in enumerate(lines, start=1):
        # Decode the stripped line: JSON error columns count from its start,
        # and no JSON whitespace is left around the value.
        text = line.strip()
        if not text:
            continue
        try:
            if not text.isascii():
                line.removesuffix("\n").encode("utf-8", "surrogateescape").decode("utf-8")
            try:
                record, end = raw_decode(text)
            except ValueError:
                end = -1
            if end != len(text):
                # Not one whole JSON value: ``json.loads`` raises the message
                # reported ("Extra data", "Unexpected UTF-8 BOM", ...).
                record = json.loads(text)
            if type(record) is not dict:
                raise ValueError("record must be a JSON object")
            # The keys ``docs/file-formats.md`` documents: with every required
            # key present, the record holds no other key iff its size counts
            # only optional keys. ``TraceSegment`` checks the values' types.
            try:
                trace_id = record["trace_id"]
                segment_id = record["segment_id"]
                name = record["name"]
                kind = record["kind"]
                start_time = record["start_time"]
                end_time = record["end_time"]
            except KeyError:
                raise ValueError(_bad_keys(record)) from None
            optional = ("parent_id" in record) + ("memory_mb" in record) + ("cold_start" in record)
            if len(record) != 6 + optional:
                raise ValueError(_bad_keys(record))
            parent_id = record.get("parent_id")
            if type(kind) is str:
                kind = share(kind, kind)
            try:
                trace_id = share(trace_id, trace_id)
                name = share(name, name)
                segments = traces.get(trace_id)
                if segments is None:
                    segments = traces[trace_id] = {}
                elif parent_id is not None:
                    parent = segments.get(parent_id)
                    if parent is not None:
                        parent_id = parent[1]
            except TypeError:
                pass  # an unhashable id or name, which the segment's check reports
            segment = _new_segment(
                TraceSegment, trace_id, segment_id, name, kind, start_time, end_time,
                parent_id, record.get("memory_mb"), record.get("cold_start"),
            )
        # ValueError includes UnicodeError, from a line that is not UTF-8;
        # OverflowError: an integer time too large for a float;
        # RecursionError: arrays or objects nested too deep to decode.
        except (ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(line_no, str(exc)) from None
        if segment_id in segments:
            raise ParseError(line_no, f"duplicate segment_id {segment_id!r}")
        segments[segment_id] = segment
    return {trace_id: tuple(segments.values()) for trace_id, segments in traces.items()}


def write_trace_file(log: TraceLog, target: str | Path | IO[str]) -> None:
    """Write a :class:`TraceLog` in the newline-delimited format, losslessly."""
    if hasattr(target, "write"):
        _write_lines(log, target)  # type: ignore[arg-type]
    else:
        with open(target, "w", encoding="utf-8") as fh:
            _write_lines(log, fh)


#: The end of a line after ``memory_mb``, by ``cold_start``.
_COLD_START_ENDS = {None: "}\n", True: ', "cold_start": true}\n', False: ', "cold_start": false}\n'}


def _write_lines(log: TraceLog, fh: IO[str]) -> None:
    """Write each segment as the line ``json.dumps`` writes for its record:
    keys in field order, ``parent_id``, ``memory_mb`` and ``cold_start``
    left out when None, default separators. Strings go through the
    encoder ``json.dumps`` uses, floats and ints through their ``repr``,
    as ``json`` writes them; a :class:`TraceSegment` holds nothing else.
    One string is written per trace.
    """
    quote = json.encoder.encode_basestring_ascii
    # ', "name": <name>, "kind": <kind>, "start_time": ' by (name, kind), and
    # the line's end by (memory_mb, cold_start): each quoted once per call.
    middles: dict[tuple[str, str], str] = {}
    ends: dict[tuple[int | None, bool | None], str] = {}
    for trace_id, segments in log.traces.items():
        head = '{"trace_id": ' + quote(trace_id) + ', "segment_id": '
        quoted_ids: dict[str, str] = {}
        lines = []
        for _, segment_id, name, kind, start_time, end_time, parent_id, memory_mb, cold_start in segments:
            quoted_id = quoted_ids[segment_id] = quote(segment_id)
            middle = middles.get((name, kind))
            if middle is None:
                middle = middles[name, kind] = (
                    ', "name": ' + quote(name) + ', "kind": ' + quote(kind) + ', "start_time": '
                )
            end = ends.get((memory_mb, cold_start))
            if end is None:
                memory = "" if memory_mb is None else ', "memory_mb": ' + int.__repr__(memory_mb)
                end = ends[memory_mb, cold_start] = memory + _COLD_START_ENDS[cold_start]
            if parent_id is None:
                lines.append(f'{head}{quoted_id}{middle}{start_time!r}, "end_time": {end_time!r}{end}')
            else:
                # A parent listed before its child was quoted already.
                parent = quoted_ids.get(parent_id) or quote(parent_id)
                lines.append(f'{head}{quoted_id}, "parent_id": {parent}{middle}{start_time!r}, '
                             f'"end_time": {end_time!r}{end}')
        fh.write("".join(lines))


def extract_samples(log: TraceLog) -> Samples:
    """The duration of every function segment, as a
    :data:`~faastune.model.Samples` table; backend-service segments are
    skipped.

    Function segments must carry ``memory_mb``
    (:class:`MissingMemoryAnnotation` otherwise). Each column is filled in
    trace order, whatever order a trace lists its segments in, so in a
    profiling log, where each trace calls every function once at one memory
    size, row k of every column at a memory size is the k-th trace there.
    A segment whose finite ends lie too far apart for their difference to
    be a float raises ValueError naming it and its trace. The first fault in
    trace order is raised; in one segment, a missing ``memory_mb`` comes first.
    """
    samples: Samples = {}
    for trace_id, segments in log.traces.items():
        for _, segment_id, name, kind, start_time, end_time, _, memory_mb, _ in segments:
            if kind != "function":
                continue
            if memory_mb is None:
                raise MissingMemoryAnnotation(segment_id)
            duration = end_time - start_time
            if duration == math.inf:  # finite ends: never NaN, inf only on overflow
                raise ValueError(f"trace {trace_id!r}: segment {segment_id!r} is too long to measure")
            by_function = samples.get(memory_mb)
            if by_function is None:
                by_function = samples[memory_mb] = {}
            column = by_function.get(name)
            if column is None:
                column = by_function[name] = []
            column.append(duration)
    return samples


def _trace_shape(
    trace_id: str, segments: tuple[TraceSegment, ...]
) -> tuple[dict[str, str | None], dict[str, float], dict[str, float]] | None:
    """A checked trace's parent, start and end of each function, all three
    by name; None when it holds no function segment."""
    by_id = {s[1]: s for s in segments}
    parent_of: dict[str, str | None] = {}
    starts: dict[str, float] = {}
    ends: dict[str, float] = {}
    for _, _, name, kind, start_time, end_time, parent_id, _, _ in segments:
        if kind != "function":
            continue
        if name in starts:
            raise DuplicateFunction(name)
        starts[name] = start_time
        ends[name] = end_time
        if parent_id is None:
            parent_of[name] = None
            continue
        parent = by_id[parent_id]
        if parent[3] != "function":
            raise InconsistentTopology(
                f"trace {trace_id!r}: function {name!r} is invoked by "
                f"backend service {parent[2]!r}, which cannot be modeled"
            )
        parent_of[name] = parent[2]
    return (parent_of, starts, ends) if starts else None


def _parallel_groups(
    siblings: list[str],
    starts: list[dict[str, float]],
    ends: list[dict[str, float]],
    mean_start: dict[str, float],
) -> list[list[str]]:
    """Cluster siblings into concurrently-executed groups.

    A pair runs in parallel iff its intervals overlap in a strict majority
    of traces (ties are sequential: a sequential estimate can only
    overestimate, never miss the SLO); ``starts[t]`` and ``ends[t]`` hold
    trace ``t``'s start and end of each function by name. Groups are the
    connected components of that relation, ordered by earliest mean start
    time.
    """
    votes: dict[tuple[str, str], int] = {}
    for trace_starts, trace_ends in zip(starts, ends):
        # Sweep this trace's siblings in (start, end) order. A later sibling
        # overlaps [start, end) iff it starts before ``end`` (it cannot end
        # at or before ``start``: in this order that takes two empty spans at
        # one instant, and then it starts at ``end``), and once one starts at
        # or after ``end``, every later one does too.
        ordered = sorted(zip(map(trace_starts.__getitem__, siblings),
                             map(trace_ends.__getitem__, siblings), siblings))
        for i, (_, end, a) in enumerate(ordered):
            for other_start, _, b in ordered[i + 1 :]:
                if other_start >= end:
                    break
                pair = (a, b) if a < b else (b, a)
                votes[pair] = votes.get(pair, 0) + 1
    adjacent: dict[str, set[str]] = {name: set() for name in siblings}
    for (a, b), count in votes.items():
        if count * 2 > len(starts):
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
    groups.sort(key=lambda g: (mean_start[g[0]], g[0]))  # each group is in that order
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

    Each trace is one tree, as in every :class:`TraceLog`. Backend-service
    segments are dropped, and a trace with only backend segments is skipped
    (:class:`EmptyAfterFiltering` when every trace is).
    All traces must agree on which function invokes which
    (:class:`InconsistentTopology` otherwise); parallel-versus-sequence
    classification of siblings is decided by majority vote over the traces'
    interval overlaps, and sequential siblings are ordered by mean start
    time.
    """
    shapes = [s for s in map(_trace_shape, log.traces, log.traces.values()) if s is not None]
    if not shapes:
        raise EmptyAfterFiltering("no function segments in any trace")

    parent_of = shapes[0][0]
    if any(other != parent_of for other, _, _ in shapes[1:]):
        raise InconsistentTopology("traces imply different invocation structures")
    starts = [trace_starts for _, trace_starts, _ in shapes]
    ends = [trace_ends for _, _, trace_ends in shapes]

    # Exactly one function has no parent: a checked trace has one root and
    # no function under a backend.
    children: dict[str, list[str]] = {}
    for name, parent in parent_of.items():
        if parent is None:
            root = name
        else:
            children.setdefault(parent, []).append(name)
    # Each name's starts are summed in trace order, so each mean does not
    # depend on how they were gathered.
    mean_start = {
        name: sum([trace_starts[name] for trace_starts in starts]) / len(starts)
        for name in parent_of
    }

    calls = {name: _parallel_groups(kids, starts, ends, mean_start) for name, kids in children.items()}
    return CallGraph(compose_calls(root, calls))


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
        try:
            node = FunctionNode(data.get("name"))
        except ValueError:
            raise SchemaError("function node needs a non-empty 'name'") from None
        if "children" in data:
            raise SchemaError("function nodes cannot have children")
        return node
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
    return CallGraph(graph_from_dict(read_json(path)))


def read_json(path: str | Path) -> object:
    """The JSON value stored at ``path``.

    Raises :class:`SchemaError`, naming the file, when the text does not
    decode: malformed JSON, bytes that are not UTF-8 (both ``ValueError``)
    or arrays and objects nested too deep for the decoder.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


def write_json(path: str | Path, data: object) -> None:
    """Write ``data`` with two-space indentation, sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
