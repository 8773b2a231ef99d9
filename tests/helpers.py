"""Shared fixtures-in-code: profile builders, random instances and
independent oracles the implementation is checked against."""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Iterable, Sequence as Seq

from faastune import (
    CallGraph,
    FunctionNode,
    FunctionProfile,
    MemoryLadder,
    Parallel,
    Sequence,
    SimApp,
    SloSpec,
    TraceLog,
    estimate_time,
    generate_app,
)
from faastune.errors import (
    InsufficientSamples,
    MissingCell,
    MultipleRoots,
    OrphanSegment,
    ParseError,
    UnreachableSegment,
)
from faastune.estimate import GraphEvaluator
from faastune.model import DEFAULT_MEMORY_MB, ExecutionSample
from faastune.profiles import DEFAULT_ALPHA_CANDIDATES, HOLDOUT_FRACTION
from faastune.traces import TraceSegment


def make_profile(name: str, reps: dict[int, float], alpha: float = 95.0) -> FunctionProfile:
    return FunctionProfile(function=name, alpha=alpha, representatives=dict(reps))


def random_monotone_profile(
    name: str, rungs: tuple[int, ...], rng: random.Random
) -> FunctionProfile:
    value = rng.uniform(1.0, 10.0)
    reps = {}
    for m in rungs:
        reps[m] = value
        value *= rng.uniform(0.3, 1.0)  # never increases with memory
    return make_profile(name, reps)


def random_instance(rng: random.Random):
    """A small random (graph, profiles, ladder, slo) search instance.

    The SLO is drawn to straddle the feasible/infeasible boundary so both
    outcomes occur across a corpus.
    """
    n = rng.randint(1, 4)
    graph = generate_app(n_functions=n, shape="random", seed=rng.randrange(2**31)).graph
    rungs = tuple(sorted(rng.sample(DEFAULT_MEMORY_MB, rng.randint(2, 4))))
    ladder = MemoryLadder(values=rungs, cap_mb=None)
    profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
    all_max = estimate_time(graph, {f: rungs[-1] for f in graph.functions()}, profiles)
    all_min = estimate_time(graph, {f: rungs[0] for f in graph.functions()}, profiles)
    slo = SloSpec(rng.uniform(0.5 * all_max, max(1.1 * all_min, 0.6 * all_max)))
    return graph, profiles, ladder, slo


def noiseless(app: SimApp) -> SimApp:
    """Copy of ``app`` with jitter and cold starts disabled; latencies become exact."""
    specs = {
        name: dataclasses.replace(spec, jitter_cv=0.0, cold_start_prob=0.0)
        for name, spec in app.specs.items()
    }
    return dataclasses.replace(app, specs=specs)


def schedule_end_to_end(graph: CallGraph, times: dict[str, float]) -> float:
    """Independent latency oracle: propagate start/finish instants through
    the schedule instead of composing durations."""

    def finish(node, t0: float) -> float:
        if isinstance(node, FunctionNode):
            return t0 + times[node.name]
        if isinstance(node, Sequence):
            t = t0
            for child in node.children:
                t = finish(child, t)
            return t
        return max(finish(child, t0) for child in node.children)

    return finish(graph.root, 0.0)


def end_to_end_durations(log: TraceLog) -> list[float]:
    """Per-trace span from first segment start to last segment end."""
    durations = []
    for segments in log.traces.values():
        start = min(s.start_time for s in segments)
        end = max(s.end_time for s in segments)
        durations.append(end - start)
    return durations


def reference_greedy(graph: CallGraph, profiles, ladder: MemoryLadder, slo: SloSpec):
    """Naive greedy oracle: ``(config or None, steps)``.

    Until the schedule oracle's estimate fits the SLO, scan every function
    still in play for the largest current representative (ties to the
    smaller name) and move it one rung up; a function picked at the top
    rung leaves play. Each pick is one step, as each heap pop is one of
    ``greedy_slo``'s iterations.
    """
    rungs = ladder.effective()
    rung = dict.fromkeys(graph.functions(), 0)
    in_play = set(rung)
    steps = 0

    def current(name):
        return profiles[name].representative(rungs[rung[name]])

    while schedule_end_to_end(graph, {f: current(f) for f in rung}) > slo.slo_seconds:
        if not in_play:
            return None, steps
        name = min(in_play, key=lambda f: (-current(f), f))
        steps += 1
        if rung[name] == len(rungs) - 1:
            in_play.remove(name)
        else:
            rung[name] += 1
    return {f: rungs[i] for f, i in rung.items()}, steps


def messy_tree(rng: random.Random, names: list[str]):
    """Random graph over exactly ``names``, allowing single-child sequences
    and nested same-kind groups; used to exercise normalization."""
    if len(names) == 1:
        node = FunctionNode(names[0])
        for _ in range(rng.randint(0, 2)):
            node = Sequence((node,))  # redundant wrappers on purpose
        return node
    k = rng.randint(1, min(3, len(names)))
    cuts = sorted(rng.sample(range(1, len(names)), k - 1)) if k > 1 else []
    parts, prev = [], 0
    for cut in cuts + [len(names)]:
        parts.append(names[prev:cut])
        prev = cut
    children = tuple(messy_tree(rng, part) for part in parts)
    if len(children) >= 2 and rng.random() < 0.4:
        return Parallel(children)
    return Sequence(children)


def reference_parallel_groups(
    siblings: list[str],
    intervals: list[dict[str, tuple[float, float]]],
    mean_start: dict[str, float],
) -> list[list[str]]:
    """Naive oracle for sibling grouping: a pair runs in parallel iff its
    half-open ``[start, end)`` intervals overlap in a strict majority of the
    traces (``intervals`` holds one name -> (start, end) dict per trace),
    counted pair by pair. Groups are the connected components (union-find),
    each ordered by (mean start, name), and ordered by (earliest mean start,
    first member)."""
    leader = {name: name for name in siblings}

    def find(name: str) -> str:
        while leader[name] != name:
            name = leader[name]
        return name

    for i, a in enumerate(siblings):
        for b in siblings[i + 1 :]:
            votes = sum(1 for t in intervals if t[a][0] < t[b][1] and t[b][0] < t[a][1])
            if 2 * votes > len(intervals):
                leader[find(a)] = find(b)
    components: dict[str, list[str]] = {}
    for name in siblings:
        components.setdefault(find(name), []).append(name)
    groups = [sorted(c, key=lambda m: (mean_start[m], m)) for c in components.values()]
    return sorted(groups, key=lambda g: (min(mean_start[m] for m in g), g[0]))


# --- trace parsing, as written before the parser shared strings -------------

_REQUIRED_KEYS = ("trace_id", "segment_id", "name", "kind", "start_time", "end_time")
_REQUIRED_KEY_SET = frozenset(_REQUIRED_KEYS)
_KNOWN_KEY_SET = _REQUIRED_KEY_SET | {"parent_id", "memory_mb", "cold_start"}
_new_segment = TraceSegment.__new__


def _mistyped(key: str, value: object, expected: str) -> ValueError:
    return ValueError(f"{key} must be {expected}, got {value!r}")


def reference_segment_from_record(record: dict) -> TraceSegment:
    """The segment a decoded line describes. ValueError on unknown or
    missing keys and on values whose JSON type is not the one
    ``docs/file-formats.md`` documents (``json`` decodes to exactly str,
    int, float, bool or None, and a bool is never a number)."""
    keys = record.keys()
    if not keys <= _KNOWN_KEY_SET:
        raise ValueError(f"unknown keys: {sorted(keys - _KNOWN_KEY_SET)}")
    if not keys >= _REQUIRED_KEY_SET:
        raise ValueError(f"missing keys: {[k for k in _REQUIRED_KEYS if k not in record]}")
    trace_id = record["trace_id"]
    if type(trace_id) is not str:
        raise _mistyped("trace_id", trace_id, "a string")
    segment_id = record["segment_id"]
    if type(segment_id) is not str:
        raise _mistyped("segment_id", segment_id, "a string")
    name = record["name"]
    if type(name) is not str:
        raise _mistyped("name", name, "a string")
    start_time = record["start_time"]
    if type(start_time) is not float:
        if type(start_time) is not int:
            raise _mistyped("start_time", start_time, "a number")
        start_time = float(start_time)
    end_time = record["end_time"]
    if type(end_time) is not float:
        if type(end_time) is not int:
            raise _mistyped("end_time", end_time, "a number")
        end_time = float(end_time)
    parent_id = record.get("parent_id")
    if parent_id is not None and type(parent_id) is not str:
        raise _mistyped("parent_id", parent_id, "a string or null")
    memory_mb = record.get("memory_mb")
    if memory_mb is not None and type(memory_mb) is not int:
        raise _mistyped("memory_mb", memory_mb, "an integer or null")
    cold_start = record.get("cold_start")
    if cold_start is not None and type(cold_start) is not bool:
        raise _mistyped("cold_start", cold_start, "a boolean or null")
    return _new_segment(
        TraceSegment, trace_id, segment_id, name, record["kind"], start_time, end_time,
        parent_id, memory_mb, cold_start,
    )


_DECODER = json.JSONDecoder()


def reference_parse_lines(lines: Iterable[str]) -> dict[str, list[TraceSegment]]:
    """Oracle for the trace parser's line loop: each line decoded, checked
    and bucketed by trace on its own, with a global set of
    ``(trace_id, segment_id)`` pairs catching repeats."""
    buckets: dict[str, list[TraceSegment]] = {}
    seen: set[tuple[str, str]] = set()
    raw_decode = _DECODER.raw_decode
    for line_no, line in enumerate(lines, start=1):
        # Decode the stripped line: JSON error columns count from its start,
        # and no JSON whitespace is left around the value.
        text = line.strip()
        if not text:
            continue
        try:
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
            segment = reference_segment_from_record(record)
        # OverflowError: an integer time too large for a float;
        # RecursionError: arrays or objects nested too deep to decode.
        except (ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(line_no, str(exc)) from None
        trace_id = segment.trace_id
        key = (trace_id, segment.segment_id)
        if key in seen:
            raise ParseError(line_no, f"duplicate segment_id {segment.segment_id!r}")
        seen.add(key)
        bucket = buckets.get(trace_id)
        if bucket is None:
            buckets[trace_id] = [segment]
        else:
            bucket.append(segment)
    return buckets


def reference_check_tree(trace_id: str, segments: tuple[TraceSegment, ...]) -> None:
    """Oracle for the tree check every :class:`TraceLog` runs on each trace:
    children lists walked breadth-first from the root."""
    by_id: dict[str, TraceSegment] = {}
    children: dict[str | None, list[str]] = {}
    for s in segments:
        segment_id = s.segment_id
        if s.trace_id != trace_id:
            raise ParseError(0, f"trace {trace_id!r} holds segment {segment_id!r} of trace {s.trace_id!r}")
        by_id[segment_id] = s
        children.setdefault(s.parent_id, []).append(segment_id)
    if len(by_id) != len(segments):
        seen: set[str] = set()
        for s in segments:
            if s.segment_id in seen:
                raise ParseError(0, f"trace {trace_id!r} repeats segment_id {s.segment_id!r}")
            seen.add(s.segment_id)
    roots = children.get(None, [])
    reached = list(roots)
    for segment_id in reached:
        reached.extend(children.get(segment_id, ()))
    if len(roots) == 1 and len(reached) == len(segments):
        return
    for s in segments:
        if s.parent_id is not None and s.parent_id not in by_id:
            raise OrphanSegment(s.segment_id)
    if len(roots) > 1:
        raise MultipleRoots(trace_id)
    if not roots:
        raise ParseError(0, f"trace {trace_id!r} has no root segment")
    raise UnreachableSegment(min(by_id.keys() - reached))


# --- profile fitting, as written before fit durations were sorted once -------


def _reference_percentile(values: Iterable[float], pct: float) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("cannot take a percentile of no values")
    if not 0 <= pct <= 100:
        raise ValueError("pct must be in [0, 100]")
    rank = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return xs[lo]
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def _reference_group_cells(
    samples: Iterable[ExecutionSample], rungs: Seq[int]
) -> dict[str, dict[int, list[ExecutionSample]]]:
    rung_set = set(rungs)
    cells: dict[str, dict[int, list[ExecutionSample]]] = {}
    for s in samples:
        function, memory_mb, _, _ = s
        if memory_mb not in rung_set:
            continue  # off-ladder observations are not modeled
        by_memory = cells.get(function)
        if by_memory is None:
            cells[function] = {memory_mb: [s]}
            continue
        cell = by_memory.get(memory_mb)
        if cell is None:
            by_memory[memory_mb] = [s]
        else:
            cell.append(s)
    return cells


def reference_build_profiles(
    samples: Iterable[ExecutionSample],
    ladder: MemoryLadder,
    alpha: float,
) -> dict[str, FunctionProfile]:
    """Oracle for :func:`faastune.profiles.build_profiles`."""
    rungs = ladder.effective()
    cells = _reference_group_cells(samples, rungs)
    profiles: dict[str, FunctionProfile] = {}
    for function in sorted(cells):
        by_memory = cells[function]
        representatives: dict[int, float] = {}
        counts: dict[int, int] = {}
        for memory_mb in rungs:
            cell = by_memory.get(memory_mb)
            if not cell:
                raise MissingCell(function, memory_mb)
            durations = [s.duration_s for s in cell]
            representatives[memory_mb] = _reference_percentile(durations, alpha)
            counts[memory_mb] = len(cell)
        profiles[function] = FunctionProfile(
            function=function,
            alpha=alpha,
            representatives=representatives,
            sample_counts=counts,
        )
    return profiles


def reference_select_alpha(
    samples: Iterable[ExecutionSample],
    ladder: MemoryLadder,
    graph: CallGraph,
    seed: int = 0,
) -> float:
    """Oracle for :func:`faastune.profiles.select_alpha`: every candidate
    alpha re-gathers and re-sorts each cell's fit durations."""
    rungs = ladder.effective()
    functions = graph.functions()
    cells = _reference_group_cells(samples, rungs)
    for function in functions:
        if function not in cells:
            raise InsufficientSamples(f"no samples for function {function!r}")

    counts: dict[int, int] = {}
    for memory_mb in rungs:
        sizes = set()
        for function in functions:
            cell = cells[function].get(memory_mb)
            if not cell:
                raise MissingCell(function, memory_mb)
            sizes.add(len(cell))
        if len(sizes) != 1:
            raise InsufficientSamples(
                f"cells at {memory_mb} MB are not request-aligned across functions"
            )
        n = sizes.pop()
        if n < 4:
            raise InsufficientSamples(
                f"need at least 4 samples per cell, got {n} at {memory_mb} MB"
            )
        counts[memory_mb] = n

    rng = random.Random(seed)
    splits: dict[int, tuple[list[int], list[int]]] = {}
    for memory_mb in rungs:
        indices = list(range(counts[memory_mb]))
        rng.shuffle(indices)
        n_holdout = min(counts[memory_mb] - 1, max(1, round(HOLDOUT_FRACTION * counts[memory_mb])))
        splits[memory_mb] = (sorted(indices[n_holdout:]), sorted(indices[:n_holdout]))

    evaluator = GraphEvaluator(graph)
    # Each holdout request's end-to-end latency does not depend on alpha.
    observed = {
        memory_mb: [
            evaluator.evaluate({f: cells[f][memory_mb][i].duration_s for f in functions})
            for i in splits[memory_mb][1]
        ]
        for memory_mb in rungs
    }
    best_alpha = DEFAULT_ALPHA_CANDIDATES[0]
    best_mse = math.inf
    for alpha in DEFAULT_ALPHA_CANDIDATES:
        total = 0.0
        for memory_mb in rungs:
            fit_idx = splits[memory_mb][0]
            fitted = {
                f: _reference_percentile(
                    [cells[f][memory_mb][i].duration_s for i in fit_idx], alpha
                )
                for f in functions
            }
            estimated = evaluator.evaluate(fitted)
            target = _reference_percentile(observed[memory_mb], alpha)
            total += (estimated - target) ** 2
        mse = total / len(rungs)
        if mse < best_mse:
            best_mse = mse
            best_alpha = alpha
    return best_alpha
