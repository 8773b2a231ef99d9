"""Shared fixtures-in-code: profile builders, random instances and
independent oracles the implementation is checked against."""

from __future__ import annotations

import random

from faastune import (
    CallGraph,
    FunctionNode,
    FunctionProfile,
    MemoryLadder,
    Parallel,
    Sequence,
    SloSpec,
    estimate_time,
    generate_app,
)
from faastune.model import DEFAULT_MEMORY_MB


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
