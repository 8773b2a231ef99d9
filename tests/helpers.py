"""Shared fixtures-in-code: profile builders, random instances and
independent oracles the implementation is checked against."""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import operator
import os
import random
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence as Seq

import faastune
from faastune import (
    CallGraph,
    CostModel,
    FunctionNode,
    FunctionProfile,
    MemoryLadder,
    Objective,
    Parallel,
    Sequence,
    SimApp,
    SloSpec,
    TraceLog,
    brute_force,
    configuration_cost,
    estimate_time,
    generate_app,
    greedy_min_cost,
    greedy_min_time,
    greedy_slo,
)
from faastune.errors import (
    InsufficientSamples,
    MissingCell,
    MissingProfile,
    MultipleRoots,
    OrphanSegment,
    ParseError,
    ProfileNotMonotone,
    SearchSpaceTooLarge,
    UnreachableSegment,
)
from faastune.estimate import GraphEvaluator, from_scaled, time_shift, to_scaled
from faastune.model import DEFAULT_MEMORY_MB, Samples
from faastune.search import (
    BRUTE_FORCE_LIMIT,
    SearchResult,
    _found,
    _representatives,
)
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


#: sha256 over every record :func:`pinned_records` yields, as computed by the
#: reference implementation. Any change to a configuration, an estimate, a
#: cost or an iteration or evaluation count changes it.
PINNED_RECORDS_SHA256 = "cd8a2a45d3b801b55700486aca17ca7ae7d98622a0d7148dbb24d5efcf1bb06d"


def pinned_records():
    """The three greedy searches on random and chain graphs at N = 100, 250
    and 400 (SLO 1.2x, 1.5x and 2.0x the all-max estimate), then the
    acceptance corpus with every brute-force objective as well."""
    ladder = MemoryLadder()
    rungs = ladder.effective()
    rng = random.Random(20261018)
    for n in (100, 250, 400):
        for shape in ("random", "chain"):
            graph = generate_app(n_functions=n, shape=shape, seed=rng.randrange(2**31)).graph
            profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
            all_max = estimate_time(graph, dict.fromkeys(graph.functions(), rungs[-1]), profiles)
            for multiplier in (1.2, 1.5, 2.0):
                slo = SloSpec(all_max * multiplier)
                for search_fn in (greedy_slo, greedy_min_cost, greedy_min_time):
                    yield search_fn(graph, profiles, ladder, slo).to_record()
    rng = random.Random(20260809)  # the acceptance corpus
    for _ in range(500):
        instance = random_instance(rng)
        for search_fn in (greedy_slo, greedy_min_cost, greedy_min_time):
            yield search_fn(*instance).to_record()
        for objective in Objective:
            yield brute_force(*instance, objective).to_record()


def pinned_records_digest() -> str:
    """sha256 of :func:`pinned_records`, one sorted-key JSON line each."""
    digest = hashlib.sha256()
    for record in pinned_records():
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


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


def exact_composition(node, times: Mapping[str, float]) -> Fraction:
    """The exact series-parallel latency of ``node``, in rationals: a
    sequence's children summed and a parallel group's maximum, unrounded."""
    if isinstance(node, FunctionNode):
        return Fraction(times[node.name])
    values = [exact_composition(child, times) for child in node.children]
    return sum(values) if isinstance(node, Sequence) else max(values)


def rounded_once(value: Fraction) -> float:
    """``value`` rounded to the nearest float, or inf beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def end_to_end_durations(log: TraceLog) -> list[float]:
    """Per-trace span from first segment start to last segment end."""
    durations = []
    for segments in log.traces.values():
        start = min(s.start_time for s in segments)
        end = max(s.end_time for s in segments)
        durations.append(end - start)
    return durations


def log_segments(log: TraceLog) -> list[TraceSegment]:
    """Every segment of ``log``, trace by trace, each trace in its order."""
    return [s for segments in log.traces.values() for s in segments]


def package_env() -> dict[str, str]:
    """The environment with the directory holding ``faastune`` first on
    PYTHONPATH, for running the package in a subprocess."""
    path = [str(Path(faastune.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


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


def segment_to_record(segment: TraceSegment) -> dict:
    """The record of one written line, for ``json.dumps``: the segment's
    fields in order, with ``parent_id``, ``memory_mb`` and ``cold_start``
    left out when None. Oracle for the trace writer."""
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
# The references read flat (function, memory_mb, duration_s) rows, as
# profiling samples were before they became columns.

SampleRow = tuple[str, int, float]


def sample_table(rows: Iterable[SampleRow]) -> Samples:
    """The :data:`~faastune.model.Samples` table of ``rows``: each cell's
    column in row order, a cell from its first row on."""
    table: Samples = {}
    for function, memory_mb, duration_s in rows:
        table.setdefault(memory_mb, {}).setdefault(function, []).append(duration_s)
    return table


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
    samples: Iterable[SampleRow], rungs: Seq[int]
) -> dict[str, dict[int, list[SampleRow]]]:
    rung_set = set(rungs)
    cells: dict[str, dict[int, list[SampleRow]]] = {}
    for s in samples:
        function, memory_mb, _ = s
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
    samples: Iterable[SampleRow],
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
            durations = [duration_s for _, _, duration_s in cell]
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
    samples: Iterable[SampleRow],
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
            evaluator.evaluate({f: cells[f][memory_mb][i][2] for f in functions})
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
                    [cells[f][memory_mb][i][2] for i in fit_idx], alpha
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


class FreshEvaluator:
    """The reference walks' evaluator: every change composes the whole graph
    anew from durations in seconds (:meth:`GraphEvaluator.evaluate`), so no
    reference shares the package's incremental update."""

    def __init__(self, graph: CallGraph):
        self._evaluator = GraphEvaluator(graph)
        self._times: dict[str, float] = {}

    def evaluate(self, times: Mapping[str, float]) -> float:
        self._times = dict(times)
        return self._evaluator.evaluate(self._times)

    def set(self, function: str, seconds: float) -> float:
        self._times[function] = seconds
        return self._evaluator.evaluate(self._times)


# --- the heap engine the greedy searches walked before the sorted order ----------
# A copy of the max-heap trajectory and the three greedy searches built on
# it, kept as references: every search's record must equal theirs. Only the
# evaluator differs: it composes the whole graph on every change.


def _heap_representatives(
    functions: tuple[str, ...],
    profiles: Mapping[str, FunctionProfile],
    rungs: tuple[int, ...],
) -> dict[str, list[float]]:
    """Each function's representatives, indexed by rung position."""
    table: dict[str, list[float]] = {}
    for name in functions:
        profile = profiles.get(name)
        if profile is None:
            raise MissingProfile(name)
        try:
            table[name] = [profile.representatives[memory_mb] for memory_mb in rungs]
        except KeyError:  # raise MissingProfile for the first rung it lacks
            table[name] = [profile.representative(memory_mb) for memory_mb in rungs]
    return table


class HeapTrajectory:
    """The greedy bump order, which depends only on the representatives.

    Functions start at the lowest rung. Each pop takes the function with
    the largest current representative from a max-heap (ties break on the
    function name) and moves it one rung up; a function popped at the top
    rung leaves the heap for good. The walk assumes more memory never makes
    a function slower, so it raises :class:`ProfileNotMonotone` for the
    first function, in execution order, whose representatives increase
    along the ladder. :meth:`restart` can hand in
    ``keep(function, rung, estimate)`` to judge every move: a rejected move
    is undone and its function leaves the heap too. ``estimate`` follows
    every kept move.
    """

    def __init__(
        self,
        graph: CallGraph,
        profiles: Mapping[str, FunctionProfile],
        rungs: tuple[int, ...],
    ):
        self.seconds = _heap_representatives(graph.functions(), profiles, rungs)
        for name, reps in self.seconds.items():
            if any(map(operator.gt, reps[1:], reps)):
                raise ProfileNotMonotone(name)
        self._evaluator = FreshEvaluator(graph)
        self._set = self._evaluator.set
        self.rung = dict.fromkeys(self.seconds, 0)
        self.iterations = 0
        self.evaluations = 0
        self.restart(None)

    def restart(self, keep: Callable[[str, int, float], bool] | None) -> None:
        """Evaluate the current rungs and put every function back on the
        heap, as a fresh trajectory starting there would; from then on
        ``keep``, when given, judges every move."""
        seconds = self.seconds
        self.estimate = self._evaluator.evaluate(
            {name: seconds[name][index] for name, index in self.rung.items()}
        )
        self.evaluations += 1
        self._heap = [(-seconds[name][index], name) for name, index in self.rung.items()]
        heapq.heapify(self._heap)
        self._keep = keep

    def reach(self, slo_seconds: float) -> bool:
        """Bump until the estimate fits ``slo_seconds``; False if the heap
        empties first."""
        while not self.estimate <= slo_seconds:
            if self.bump() is None:
                return False
        return True

    def bump(self) -> str | None:
        """Pop until one function moves up a rung and return its name; None
        once the heap is empty."""
        heap = self._heap
        while heap:
            # Entries are distinct (-seconds, name) pairs, so replacing the
            # top in place pops in the same order as a pop and a push.
            name = heap[0][1]
            self.iterations += 1
            index = self.rung[name] + 1
            row = self.seconds[name]
            if index < len(row):
                seconds = row[index]
                estimate = self._set(name, seconds)
                self.evaluations += 1
                if self._keep is None or self._keep(name, index, estimate):
                    self.rung[name] = index
                    self.estimate = estimate
                    heapq.heapreplace(heap, (-seconds, name))
                    return name
                self._set(name, row[index - 1])
            heapq.heappop(heap)
        return None


def heap_greedy_slo(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel = CostModel(),
) -> SearchResult:
    """Find a feasible configuration by bumping the slowest function first.

    Walks the greedy bump order (all functions at the smallest ladder size,
    then the slowest function one rung up per pop, ties on the function
    name) until the estimate fits the SLO. Returns an empty result when the
    heap drains without success, which means even the all-maximum
    configuration is infeasible, since the greedy search takes only
    profiles whose representatives never increase with memory. Performs at
    most N*(M-1)+1 latency estimations.
    """
    rungs = ladder.effective()
    walk = HeapTrajectory(graph, profiles, rungs)
    if not walk.reach(slo.slo_seconds):
        return SearchResult("greedy", None, None, None, walk.iterations, walk.evaluations)
    config = {name: rungs[index] for name, index in walk.rung.items()}
    return SearchResult(
        "greedy", config, walk.estimate, configuration_cost(config, profiles, cost_model),
        walk.iterations, walk.evaluations,
    )


def heap_greedy_min_cost(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel = CostModel(),
) -> SearchResult:
    """Feasible-first search, then keep bumping only where it pays off.

    Walks the ``greedy_slo`` bump order to the SLO, then continues that walk
    from the feasible configuration with every function back on the heap
    (counted as one more estimation): each pop considers one more rung for
    the slowest function and accepts it iff

        |new_cost - old_cost| / old_cost  <=  |old_time - new_time| / old_time

    at the application level, and the result still meets the SLO. Costs
    are exact integers (:meth:`CostModel.cost_units`), so each trial's cost
    is the current one plus one cell's change. A function whose bump fails
    the test is frozen at its current size and never revisited. The
    cheapest feasible configuration seen anywhere along the way (including
    the starting point) is returned, so the cost never exceeds the plain
    greedy result's.
    """
    rungs = ladder.effective()
    walk = HeapTrajectory(graph, profiles, rungs)
    if not walk.reach(slo.slo_seconds):
        return SearchResult(
            "greedy-min-cost", None, None, None, walk.iterations, walk.evaluations
        )

    def relative(delta: float, reference: float) -> float:
        if reference == 0:
            return 0.0 if delta == 0 else math.inf
        return abs(delta) / abs(reference)

    def keep(name: str, index: int, trial_time: float) -> bool:
        nonlocal cost
        trial_units = cost_model.cost_units(walk.seconds[name][index], rungs[index])
        trial_cost = cost + trial_units - units[name]
        worth_it = relative(trial_cost - cost, cost) <= relative(
            walk.estimate - trial_time, walk.estimate
        )
        if trial_time > slo.slo_seconds or not worth_it:
            return False
        units[name] = trial_units
        cost = trial_cost
        return True

    units = {
        name: cost_model.cost_units(walk.seconds[name][index], rungs[index])
        for name, index in walk.rung.items()
    }
    cost = sum(units.values())
    walk.restart(keep)
    best_rung, best_cost, best_time = dict(walk.rung), cost, walk.estimate
    while walk.bump() is not None:
        if cost < best_cost or (cost == best_cost and walk.estimate < best_time):
            best_rung, best_cost, best_time = dict(walk.rung), cost, walk.estimate

    config = {name: rungs[index] for name, index in best_rung.items()}
    return SearchResult(
        "greedy-min-cost", config, best_time, configuration_cost(config, profiles, cost_model),
        walk.iterations, walk.evaluations,
    )


def heap_greedy_min_time(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel = CostModel(),
) -> SearchResult:
    """The lowest latency the greedy search can reach, in one pass.

    The greedy bump order does not depend on the SLO, so every SLO the
    greedy search can meet is met at some point of one fixed trajectory,
    and the tightest such SLO is that trajectory's minimum estimate. This
    walks the whole trajectory (until the heap is empty; exactly
    N*(M-1)+1 latency estimations) and returns the first configuration
    that reaches the minimum, or an empty result when the minimum exceeds
    the SLO. ``iterations`` counts heap pops.
    """
    rungs = ladder.effective()
    walk = HeapTrajectory(graph, profiles, rungs)
    bumps: list[str] = []
    best_time = math.inf
    best_step = 0
    while True:
        if walk.estimate < best_time:
            best_time = walk.estimate
            best_step = len(bumps)
        name = walk.bump()
        if name is None:
            break
        bumps.append(name)
    if not best_time <= slo.slo_seconds:
        return SearchResult(
            "greedy-min-time", None, None, None, walk.iterations, walk.evaluations
        )

    rung = dict.fromkeys(walk.rung, 0)
    for name in bumps[:best_step]:
        rung[name] += 1
    config = {name: rungs[index] for name, index in rung.items()}
    return SearchResult(
        "greedy-min-time", config, best_time, configuration_cost(config, profiles, cost_model),
        walk.iterations, walk.evaluations,
    )


# --- the sorted-order engine each greedy search walked before trajectories ------
# A copy of the bump order and its walk, with the three greedy searches
# built on them, kept as references: every trajectory-backed search's record
# must equal theirs. Each call sorts and walks its own order; nothing is
# shared between calls. ``_representatives`` and ``_found`` are the
# module's own, unchanged; costs are summed here from
# ``CostModel.cost_units``, so the reference shares no pricing with the
# searches it checks; the evaluator composes the whole graph on every
# change.


class BumpOrder:
    """The greedy bump order of one instance, set up for a walk.

    Cell ``i`` is function ``names[i]`` at rung position ``i % M``; cells
    are numbered by function name, then rung. Taking cell ``i`` moves its
    function one rung up, to representative ``up[i]``, or moves nothing
    when ``up[i]`` is None (the top rung). ``order`` lists the cells by
    descending representative; a stable sort keeps ties in name, then rung
    order. Rows never increase along the ladder, so that is the order in
    which a max-heap of each function's current representative (ties on the
    name) pops them, and a function's cells come in rung order: a walk of
    ``order`` is the greedy search, all functions at the lowest rung, then
    the slowest one up one rung per step. ``evaluator`` holds the
    all-minimum configuration, whose estimate is ``estimate``; ``seconds``
    holds each function's representatives, in execution order.

    Raises :class:`ProfileNotMonotone` for the first function, in execution
    order, whose representatives increase along the ladder.
    """

    __slots__ = ("seconds", "order", "names", "up", "evaluator", "estimate")

    def __init__(
        self,
        graph: CallGraph,
        profiles: Mapping[str, FunctionProfile],
        rungs: tuple[int, ...],
    ):
        seconds = _representatives(graph.functions(), profiles, rungs)
        by_name = sorted(seconds)
        per_row = len(rungs)
        flat = list(chain.from_iterable(map(seconds.__getitem__, by_name)))
        # Past a row's top rung ``up`` is -inf for the monotone check, then None.
        up: list = flat[1:]
        up.append(-math.inf)
        up[per_row - 1::per_row] = [-math.inf] * len(by_name)
        if any(map(operator.gt, up, flat)):
            raise ProfileNotMonotone(
                next(name for name, row in seconds.items() if any(map(operator.gt, row[1:], row)))
            )
        up[per_row - 1::per_row] = [None] * len(by_name)
        self.seconds = seconds
        self.order = sorted(range(len(flat)), key=flat.__getitem__, reverse=True)
        self.names = list(chain.from_iterable(map(repeat, by_name, repeat(per_row))))
        self.up = up
        self.evaluator = FreshEvaluator(graph)
        self.estimate = self.evaluator.evaluate({name: row[0] for name, row in seconds.items()})


def walk_to(walk: BumpOrder, stop: float) -> tuple[int, int, float, int]:
    """Take ``walk.order`` from the start until an estimate is within
    ``stop``, or to its end. Returns the cells taken, the estimations made
    (the all-minimum one included), the first lowest estimate and the
    number of cells taken when it was reached."""
    best_time = walk.estimate
    if best_time <= stop:
        return 0, 1, best_time, 0
    best = 0
    estimations = 1
    names, up, set_seconds = walk.names, walk.up, walk.evaluator.set
    for taken, cell in enumerate(walk.order, 1):
        seconds = up[cell]
        if seconds is not None:
            estimate = set_seconds(names[cell], seconds)
            estimations += 1
            # Every earlier estimate exceeds ``stop``, so one within it is a
            # new minimum; strict ``<`` keeps the first minimum.
            if estimate < best_time:
                best_time, best = estimate, taken
                if estimate <= stop:
                    return taken, estimations, estimate, taken
    return len(walk.order), estimations, best_time, best


def _walk_rungs_after(walk: BumpOrder, taken: int, per_row: int) -> dict[str, int]:
    """Each function's rung position, in execution order, once the first
    ``taken`` cells of ``walk.order`` are taken from the all-minimum
    configuration; ``per_row`` is the number of rungs."""
    rung = dict.fromkeys(walk.seconds, 0)
    names, up = walk.names, walk.up
    for cell in walk.order[:taken]:
        if up[cell] is not None:
            rung[names[cell]] = cell % per_row + 1
    return rung


def _walk_units(
    rung: Mapping[str, int], walk: BumpOrder, rungs: tuple[int, ...], cost_model: CostModel
) -> dict[str, int]:
    """Each function's :meth:`CostModel.cost_units` at its rung position."""
    return {name: cost_model.cost_units(walk.seconds[name][index], rungs[index])
            for name, index in rung.items()}


def _walk_greedy(
    algorithm: str,
    stop: float,
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel,
) -> SearchResult:
    """The configuration where :func:`walk_to` to ``stop`` first reaches its
    lowest estimate, or an empty result when that estimate misses the SLO;
    ``iterations`` counts the cells taken."""
    rungs = ladder.effective()
    walk = BumpOrder(graph, profiles, rungs)
    taken, estimations, best_time, best = walk_to(walk, stop)
    if not best_time <= slo.slo_seconds:
        return SearchResult(algorithm, None, None, None, taken, estimations)
    rung = _walk_rungs_after(walk, best, len(rungs))
    units = sum(_walk_units(rung, walk, rungs, cost_model).values())
    return _found(algorithm, rung, best_time, units, rungs, cost_model, taken, estimations)


def walk_greedy_slo(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel = CostModel(),
) -> SearchResult:
    """Find a feasible configuration by bumping the slowest function first.

    Walks the greedy bump order (all functions at the smallest ladder size,
    then the slowest function one rung up per step, ties on the function
    name) until the estimate fits the SLO. Returns an empty result when the
    order runs out first, which means even the all-maximum configuration is
    infeasible, since the greedy search takes only profiles whose
    representatives never increase with memory. ``iterations`` counts the
    cells taken, top-rung cells included; performs at most N*(M-1)+1
    latency estimations.
    """
    return _walk_greedy("greedy", slo.slo_seconds, graph, profiles, ladder, slo, cost_model)


def walk_greedy_min_cost(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel = CostModel(),
) -> SearchResult:
    """Feasible-first search, then keep bumping only where it pays off.

    Walks the ``greedy_slo`` bump order to the SLO, counts the feasible
    configuration as one more estimation (without estimating it again) and
    walks the order again from there with every function back in it, as if a fresh walk started
    at that configuration: it skips each function's cells below its rung
    and takes its current one, so a function already at the top rung is
    stepped over once more. Each step considers one more rung for its
    function and accepts it iff

        |new_cost - old_cost| / old_cost  <=  |old_time - new_time| / old_time

    at the application level, and the result still meets the SLO. Costs
    are exact integers (:meth:`CostModel.cost_units`), so each trial's cost
    is the current one plus one cell's change. A function whose bump fails
    the test is frozen at its current size and never revisited. The
    cheapest feasible configuration seen anywhere along the way (including
    the starting point) is returned, so the cost never exceeds the plain
    greedy result's.
    """
    rungs = ladder.effective()
    slo_seconds = slo.slo_seconds
    walk = BumpOrder(graph, profiles, rungs)
    taken, estimations, time, _ = walk_to(walk, slo_seconds)
    if not time <= slo_seconds:
        return SearchResult("greedy-min-cost", None, None, None, taken, estimations)
    per_row = len(rungs)
    seconds, names, up = walk.seconds, walk.names, walk.up
    rung = _walk_rungs_after(walk, taken, per_row)
    units = _walk_units(rung, walk, rungs, cost_model)
    cost = sum(units.values())
    # The first ``taken`` cells all lie below their function's rung but for
    # the ``taken - moved`` top-rung ones, which the second walk steps over
    # once more; every later cell is its function's current one until the
    # function is frozen. The feasible point counts as one more estimation,
    # though the evaluator already holds it.
    moved = estimations - 1
    iterations = 2 * taken - moved
    evaluations = estimations + 1
    cost_units = cost_model.cost_units
    set_seconds = walk.evaluator.set
    frozen: set[str] = set()
    kept: list[tuple[str, int]] = []
    best, best_cost, best_time = 0, cost, time
    for cell in walk.order[taken:]:
        name = names[cell]
        if name in frozen:
            continue
        iterations += 1
        trial_seconds = up[cell]
        if trial_seconds is None:
            continue
        trial_time = set_seconds(name, trial_seconds)
        evaluations += 1
        index = cell % per_row + 1
        trial_units = cost_units(trial_seconds, rungs[index])
        delta = trial_units - units[name]
        cost_step = abs(delta) / cost if cost else (0.0 if delta == 0 else math.inf)
        gain = time - trial_time
        time_step = abs(gain) / abs(time) if time else (0.0 if gain == 0 else math.inf)
        if trial_time > slo_seconds or not cost_step <= time_step:
            set_seconds(name, seconds[name][index - 1])
            frozen.add(name)
            continue
        units[name] = trial_units
        cost += delta
        time = trial_time
        kept.append((name, index))
        if cost < best_cost or (cost == best_cost and time < best_time):
            best, best_cost, best_time = len(kept), cost, time

    rung.update(kept[:best])
    return _found(
        "greedy-min-cost", rung, best_time, best_cost, rungs, cost_model, iterations, evaluations
    )


def walk_greedy_min_time(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel = CostModel(),
) -> SearchResult:
    """The lowest latency the greedy search can reach, in one pass.

    The greedy bump order does not depend on the SLO, so every SLO the
    greedy search can meet is met at some point of one fixed trajectory,
    and the tightest such SLO is that trajectory's minimum estimate. This
    walks the whole order (N*M cells, exactly N*(M-1)+1 latency
    estimations) and returns the first configuration that reaches the
    minimum, or an empty result when the minimum exceeds the SLO.
    ``iterations`` counts the cells.
    """
    return _walk_greedy("greedy-min-time", -math.inf, graph, profiles, ladder, slo, cost_model)


# --- the single-objective brute force the one-scan oracle replaced ----------------


def reference_brute_force(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    objective: Objective = Objective.FEASIBLE,
    cost_model: CostModel = CostModel(),
) -> SearchResult:
    """Exhaustively scan all M^N configurations for one objective, every
    configuration through :meth:`GraphEvaluator.set_scaled`: the loop
    ``brute_force`` ran before one scan answered every objective, kept as
    the reference its records must equal."""
    objective = Objective(objective)
    functions = tuple(sorted(graph.functions()))
    rungs = ladder.effective()
    seconds = _representatives(functions, profiles, rungs)

    combinations = len(rungs) ** len(functions)
    if combinations > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLarge(combinations, BRUTE_FORCE_LIMIT)

    shift = time_shift(chain.from_iterable(seconds.values()))
    rows = [to_scaled(seconds[name], shift) for name in functions]
    cost_units = cost_model.cost_units
    units = [list(map(cost_units, seconds[name], rungs)) for name in functions]
    index = [0] * len(functions)
    evaluator = GraphEvaluator(graph)
    set_scaled = evaluator.set_scaled
    total = evaluator.evaluate_scaled({name: row[0] for name, row in zip(functions, rows)})
    total_cost = sum(row[0] for row in units)
    by_cost = objective is Objective.MIN_COST
    by_time = objective is Objective.MIN_TIME
    slo_seconds = slo.slo_seconds
    fits, misses, lowest = -1, math.inf, math.inf

    best_index: list[int] | None = None
    best_total = 0
    best_units = 0
    best_metric = math.inf
    top = len(rungs) - 1
    last = len(functions) - 1
    for step in range(combinations):
        if step:
            position = last
            while index[position] == top:  # roll over to the lowest rung
                index[position] = 0
                total_cost += units[position][0] - units[position][top]
                total = set_scaled(functions[position], rows[position][0])
                position -= 1
            rung = index[position] + 1
            index[position] = rung
            total_cost += units[position][rung] - units[position][rung - 1]
            total = set_scaled(functions[position], rows[position][rung])
        if total > fits:
            if total >= misses:
                continue
            if from_scaled(total, shift) > slo_seconds:
                misses = total
                continue
            fits = total
        if by_cost:
            metric = total_cost
        elif by_time:
            if total >= lowest:  # the rounded estimate cannot be lower either
                continue
            lowest = total
            metric = from_scaled(total, shift)
        else:
            metric = 0.0 if best_index is None else math.inf  # first feasible wins
        if metric < best_metric:
            best_metric = metric
            best_index = list(index)
            best_total = total
            best_units = total_cost

    algorithm = f"brute-force-{objective.value}"
    if best_index is None:
        return SearchResult(algorithm, None, None, None, combinations, combinations)
    return _found(
        algorithm, dict(zip(functions, best_index)), from_scaled(best_total, shift), best_units,
        rungs, cost_model, combinations, combinations,
    )
