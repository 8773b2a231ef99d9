"""Build per-function latency profiles from execution samples.

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
from pathlib import Path
from typing import Iterable, Mapping, Sequence as Seq

from .errors import InsufficientSamples, MissingCell
from .estimate import GraphEvaluator
from .model import CallGraph, ExecutionSample, FunctionProfile, MemoryLadder

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


def _group_cells(
    samples: Iterable[ExecutionSample], rungs: Seq[int]
) -> dict[str, dict[int, list[ExecutionSample]]]:
    rung_set = set(rungs)
    cells: dict[str, dict[int, list[ExecutionSample]]] = {}
    for s in samples:
        if s.memory_mb not in rung_set:
            continue  # off-ladder observations are not modeled
        cells.setdefault(s.function, {}).setdefault(s.memory_mb, []).append(s)
    return cells


def build_profiles(
    samples: Iterable[ExecutionSample],
    ladder: MemoryLadder,
    alpha: float,
) -> dict[str, FunctionProfile]:
    """Profile every function that appears in ``samples`` across the ladder.

    Every (function, effective-ladder-memory) cell needs at least one
    sample; otherwise :class:`MissingCell` is raised.
    """
    rungs = ladder.effective()
    cells = _group_cells(samples, rungs)
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
            representatives[memory_mb] = percentile_linear(durations, alpha)
            counts[memory_mb] = len(cell)
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
    samples: Iterable[ExecutionSample],
    ladder: MemoryLadder,
    graph: CallGraph,
    seed: int = 0,
) -> float:
    """Pick the choice percentile that best predicts end-to-end latency.

    The candidates are :data:`DEFAULT_ALPHA_CANDIDATES`. The requests of
    every ladder level are split once, by ``seed``, into a fit part and a
    holdout part holding :data:`HOLDOUT_FRACTION` of them (same request
    indices across functions, so the holdout end-to-end latencies can be
    reconstructed by composing each request's actual durations over the
    graph). The candidate whose fitted uniform-memory estimates have the
    lowest mean squared error against the alpha-th percentile of the
    holdout end-to-end latencies wins; ties go to the smaller alpha.

    Requires cells aligned by request order with at least 4 samples each,
    as produced by profiling runs; raises :class:`InsufficientSamples`
    otherwise.
    """
    rungs = ladder.effective()
    functions = graph.functions()
    cells = _group_cells(samples, rungs)
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
    best_alpha = DEFAULT_ALPHA_CANDIDATES[0]
    best_mse = math.inf
    for alpha in DEFAULT_ALPHA_CANDIDATES:
        total = 0.0
        for memory_mb in rungs:
            fit_idx, holdout_idx = splits[memory_mb]
            fitted = {
                f: percentile_linear(
                    [cells[f][memory_mb][i].duration_s for i in fit_idx], alpha
                )
                for f in functions
            }
            estimated = evaluator.evaluate(fitted)
            observed = [
                evaluator.evaluate({f: cells[f][memory_mb][i].duration_s for f in functions})
                for i in holdout_idx
            ]
            target = percentile_linear(observed, alpha)
            total += (estimated - target) ** 2
        mse = total / len(rungs)
        if mse < best_mse:
            best_mse = mse
            best_alpha = alpha
    return best_alpha


PROFILE_COLUMNS = ("function", "memory_mb", "alpha", "representative_s", "sample_count")


def save_profiles(profiles: Mapping[str, FunctionProfile], path: str | Path) -> None:
    """Write profiles as a CSV table, one row per (function, memory)."""
    with open(path, "w", newline="") as fh:
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
    """Read profiles written by :func:`save_profiles` (samples are not kept)."""
    rows: dict[str, dict[int, tuple[float, int]]] = {}
    alphas: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(PROFILE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"profile file missing columns: {sorted(missing)}")
        for row in reader:
            if None in row.values():
                raise ValueError(f"{path}: line {reader.line_num}: missing fields")
            function = row["function"]
            alpha = float(row["alpha"])
            if alphas.setdefault(function, alpha) != alpha:
                raise ValueError(f"inconsistent alpha for function {function!r}")
            representative = float(row["representative_s"])
            if not 0 <= representative < math.inf:
                raise ValueError(
                    f"{path}: line {reader.line_num}: representative_s must be "
                    f"finite and non-negative, got {row['representative_s']!r}"
                )
            by_memory = rows.setdefault(function, {})
            memory_mb = int(row["memory_mb"])
            if memory_mb in by_memory:
                raise ValueError(
                    f"{path}: line {reader.line_num}: duplicate row for "
                    f"{function!r} at {memory_mb} MB"
                )
            by_memory[memory_mb] = (representative, int(row["sample_count"]))
    profiles: dict[str, FunctionProfile] = {}
    for function, by_memory in rows.items():
        profiles[function] = FunctionProfile(
            function=function,
            alpha=alphas[function],
            representatives={m: rep for m, (rep, _) in by_memory.items()},
            sample_counts={m: n for m, (_, n) in by_memory.items()},
        )
    return profiles
