"""Build per-function latency profiles from a sample table.

A profile reduces each (function, memory) sample distribution to a single
representative: its alpha-th percentile. The choice percentile alpha can be
fixed or picked automatically by holdout validation against observed
end-to-end latencies.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InsufficientSamples, MissingCell
from .estimate import GraphEvaluator, from_scaled, time_shift, to_scaled
from .model import CallGraph, FunctionProfile, MemoryLadder, Samples

#: The choice percentiles :func:`select_alpha` picks from, ascending.
DEFAULT_ALPHA_CANDIDATES = (50.0, 75.0, 90.0, 99.0)

#: Share of each cell's requests :func:`select_alpha` holds out for scoring.
HOLDOUT_FRACTION = 0.3


def percentile_linear(values: Iterable[float], pct: float) -> float:
    """Percentile with linear interpolation between closest order statistics.

    rank = pct/100 * (n-1); the result interpolates between the floor and
    ceil order statistics. This is the single percentile definition used
    everywhere in the package so results are bit-reproducible.
    """
    return _percentile_of_sorted(sorted(values), pct)


def _percentile_of_sorted(xs: list[float], pct: float) -> float:
    """:func:`percentile_linear` of ``xs``, which is in ascending order."""
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


def build_profiles(
    samples: Samples,
    ladder: MemoryLadder,
    alpha: float,
) -> dict[str, FunctionProfile]:
    """Profile every function that has samples on the ladder.

    Every (function, effective-ladder-memory) cell needs at least one
    sample; otherwise :class:`MissingCell` is raised. Samples at other
    memory sizes are not modeled.
    """
    rungs = ladder.effective()
    cells = [samples.get(memory_mb, {}) for memory_mb in rungs]
    profiles: dict[str, FunctionProfile] = {}
    for function in sorted(set().union(*cells)):
        representatives: dict[int, float] = {}
        counts: dict[int, int] = {}
        for memory_mb, by_function in zip(rungs, cells):
            durations = by_function.get(function)
            if not durations:
                raise MissingCell(function, memory_mb)
            representatives[memory_mb] = percentile_linear(durations, alpha)
            counts[memory_mb] = len(durations)
        profiles[function] = FunctionProfile(
            function=function,
            alpha=alpha,
            representatives=representatives,
            sample_counts=counts,
        )
    return profiles


def monotone_repair(profile: FunctionProfile) -> FunctionProfile:
    """Clamp representatives to their running minimum up the ladder.

    More memory never helps less under the repaired profile, which is what
    the greedy search assumes when it trades memory for time. The original
    values are not kept. Idempotent.
    """
    repaired: dict[int, float] = {}
    best = math.inf
    for m in profile.memories():
        best = min(best, profile.representatives[m])
        repaired[m] = best
    return replace(profile, representatives=repaired)


def select_alpha(
    samples: Samples,
    ladder: MemoryLadder,
    graph: CallGraph,
    seed: int = 0,
) -> float:
    """Pick the choice percentile that best predicts end-to-end latency.

    The candidates are :data:`DEFAULT_ALPHA_CANDIDATES`. The requests of
    every ladder level are split once, by ``seed``, into a fit part and a
    holdout part holding :data:`HOLDOUT_FRACTION` of them. Row k of every
    column at a level is request k, so each holdout request's end-to-end
    latency is its row's actual durations composed over the graph. The
    candidate whose fitted uniform-memory estimates have the lowest mean
    squared error against the alpha-th percentile of the holdout end-to-end
    latencies wins; ties go to the smaller alpha. A candidate whose squared
    error overflows the float range scores inf.

    Requires, at every ladder level, a column of at least 4 samples for
    each function of ``graph``, all of one length, as profiling runs
    produce; raises :class:`InsufficientSamples` or :class:`MissingCell`
    otherwise.
    """
    rungs = ladder.effective()
    functions = graph.functions()
    cells = [samples.get(memory_mb, {}) for memory_mb in rungs]
    sampled = set().union(*cells)
    for function in functions:
        if function not in sampled:
            raise InsufficientSamples(f"no samples for function {function!r}")

    rng = random.Random(seed)
    evaluator = GraphEvaluator(graph)
    width = len(functions)
    # Neither each holdout request's end-to-end latency nor any candidate's
    # fitted estimate needs the other candidates: both are composed once per
    # rung, from durations scaled by one shift (any shift that makes every
    # duration an integer gives the same rounded latencies).
    observed: list[list[float]] = []
    estimated: list[list[float]] = []  # per rung, per candidate
    for memory_mb, by_function in zip(rungs, cells):
        column: dict[str, list[float]] = {}
        for function in functions:
            durations = by_function.get(function)
            if not durations:
                raise MissingCell(function, memory_mb)
            column[function] = durations
        sizes = set(map(len, column.values()))
        if len(sizes) != 1:
            raise InsufficientSamples(
                f"cells at {memory_mb} MB are not request-aligned across functions"
            )
        n = sizes.pop()
        if n < 4:
            raise InsufficientSamples(
                f"need at least 4 samples per cell, got {n} at {memory_mb} MB"
            )
        indices = list(range(n))
        rng.shuffle(indices)
        n_holdout = min(n - 1, max(1, round(HOLDOUT_FRACTION * n)))
        fit_idx = sorted(indices[n_holdout:])
        fits = [sorted(map(column[f].__getitem__, fit_idx)) for f in functions]
        # One row of durations per holdout request, then one per candidate.
        held = [column[f][i] for i in sorted(indices[:n_holdout]) for f in functions]
        fitted = [_percentile_of_sorted(xs, alpha) for alpha in DEFAULT_ALPHA_CANDIDATES
                  for xs in fits]
        shift = time_shift(chain(held, fitted))
        latencies = [
            from_scaled(evaluator.evaluate_scaled(dict(zip(functions, row))), shift)
            for row in zip(*[iter(to_scaled(chain(held, fitted), shift))] * width)
        ]
        observed.append(sorted(latencies[:n_holdout]))
        estimated.append(latencies[n_holdout:])
    best_alpha = DEFAULT_ALPHA_CANDIDATES[0]
    best_mse = math.inf
    for candidate, alpha in enumerate(DEFAULT_ALPHA_CANDIDATES):
        total = 0.0
        for rung_estimated, rung_observed in zip(estimated, observed):
            target = _percentile_of_sorted(rung_observed, alpha)
            try:
                total += (rung_estimated[candidate] - target) ** 2
            except OverflowError:  # the squared error is beyond the float range
                total = math.inf
        mse = total / len(rungs)
        if mse < best_mse:
            best_mse = mse
            best_alpha = alpha
    return best_alpha


PROFILE_COLUMNS = ("function", "memory_mb", "alpha", "representative_s", "sample_count")

#: The numeric columns of a profile table, in :data:`PROFILE_COLUMNS` order:
#: how :func:`load_profiles` reads each, the values it takes and that rule
#: in words. ``alpha`` has the range ``profile --alpha`` enforces.
_NUMBER_COLUMNS = (
    ("memory_mb", int, lambda value: value > 0, "a positive integer"),
    ("alpha", float, lambda value: 0 <= value <= 100, "a number in [0, 100]"),
    ("representative_s", float, lambda value: 0 <= value < math.inf, "finite and non-negative"),
    ("sample_count", int, lambda value: value >= 0, "a non-negative integer"),
)


def save_profiles(profiles: Mapping[str, FunctionProfile], path: str | Path) -> None:
    """Write profiles as a CSV table, one row per (function, memory).

    Raises ValueError, before the file is opened, for a profile keyed by a
    name that is not its ``function``.
    """
    for function, profile in profiles.items():
        if profile.function != function:
            raise ValueError(f"profile of {profile.function!r} is keyed {function!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_COLUMNS)
        for function in sorted(profiles):
            p = profiles[function]
            for memory_mb in p.memories():
                writer.writerow(
                    [
                        function,
                        memory_mb,
                        p.alpha,
                        repr(p.representatives[memory_mb]),
                        p.sample_count(memory_mb),
                    ]
                )


def load_profiles(path: str | Path) -> dict[str, FunctionProfile]:
    """Read profiles written by :func:`save_profiles` (samples are not kept).

    The header must name every column of :data:`PROFILE_COLUMNS`, each
    once; other columns are ignored. Blank lines are skipped. A row with
    fewer or more fields than the header, an empty function name, a
    ``memory_mb`` that is not a positive integer, an ``alpha`` outside
    [0, 100], a ``representative_s`` that is negative or not finite, a
    ``sample_count`` that is not a non-negative integer, a repeated
    (function, memory) row or an alpha that differs between a function's
    rows raises ValueError naming the file and the line.
    """
    rows: dict[str, dict[int, tuple[float, int]]] = {}
    alphas: dict[str, float] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = set(PROFILE_COLUMNS) - set(header)
            if missing:
                raise ValueError(f"{path}: line {reader.line_num}: profile file missing "
                                 f"columns: {sorted(missing)}")
            if len(set(header)) < len(header):
                repeated = sorted({name for name in header if header.count(name) > 1})
                raise ValueError(f"{path}: line {reader.line_num}: columns named twice: {repeated}")
            width = len(header)
            at_function = header.index("function")
            numbers = [(header.index(name), *rule) for name, *rule in _NUMBER_COLUMNS]
            for row in reader:
                if not row:
                    continue  # a blank line
                if len(row) != width:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: missing fields" if len(row) < width else
                        f"{path}: line {reader.line_num}: {len(row)} fields, the header names {width}"
                    )
                function = row[at_function]
                if not function:
                    raise ValueError(f"{path}: line {reader.line_num}: empty function name")
                values = []
                for at, convert, valid, rule in numbers:
                    try:
                        value = convert(row[at])
                        ok = valid(value)
                    except ValueError:
                        ok = False
                    if not ok:
                        raise ValueError(f"{path}: line {reader.line_num}: {header[at]} must "
                                         f"be {rule}, got {row[at]!r}")
                    values.append(value)
                memory_mb, alpha, representative, sample_count = values
                if alphas.setdefault(function, alpha) != alpha:
                    raise ValueError(f"{path}: line {reader.line_num}: inconsistent alpha "
                                     f"for function {function!r}")
                by_memory = rows.setdefault(function, {})
                if memory_mb in by_memory:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: duplicate row for "
                        f"{function!r} at {memory_mb} MB"
                    )
                by_memory[memory_mb] = (representative, sample_count)
        # csv.Error: for one, a field longer than csv.field_size_limit().
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    profiles: dict[str, FunctionProfile] = {}
    for function, by_memory in rows.items():
        profiles[function] = FunctionProfile(
            function=function,
            alpha=alphas[function],
            representatives={m: rep for m, (rep, _) in by_memory.items()},
            sample_counts={m: n for m, (_, n) in by_memory.items()},
        )
    return profiles
