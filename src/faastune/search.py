"""Search the memory-configuration space for SLO-feasible assignments.

Three greedy variants share one engine: a max-heap over the functions'
current representative execution times. The slowest function gets more
memory first, one ladder rung at a time, until the estimated end-to-end
latency fits the SLO. On top of that, ``greedy_min_cost`` keeps trading
memory for time only while the relative cost increase does not exceed the
relative time gain, and ``greedy_min_time`` walks the whole bump order,
whose minimum estimate is the tightest SLO the greedy can satisfy.
``brute_force`` scans every combination and is the optimality oracle for
small instances. All of them evaluate the graph with one
:class:`~faastune.estimate.GraphEvaluator`.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import (
    MissingProfile,
    ProfileNotMonotone,
    SearchSpaceTooLarge,
)
from .estimate import GraphEvaluator
from .model import (
    CallGraph,
    CostModel,
    FunctionProfile,
    MemoryLadder,
    Objective,
    SloSpec,
    configuration_cost,
)

#: ``brute_force`` refuses to start beyond this many combinations, which
#: keeps an exhaustive scan to minutes.
BRUTE_FORCE_LIMIT = 10_000_000


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    ``config`` is None when no configuration satisfies the SLO (that is an
    outcome, not an error). ``iterations`` counts algorithm steps (heap
    pops or scanned combinations) and ``evaluations`` counts end-to-end
    latency estimations.
    """

    algorithm: str
    config: dict[str, int] | None
    estimated_time_s: float | None
    estimated_cost_usd: float | None
    iterations: int
    evaluations: int
    elapsed_s: float

    @property
    def found(self) -> bool:
        return self.config is not None

    def to_record(self) -> dict:
        # elapsed_s deliberately excluded: artifacts must be reproducible
        # byte-for-byte; wall time goes in a sidecar file.
        return {
            "algorithm": self.algorithm,
            "config": dict(sorted(self.config.items())) if self.config else None,
            "estimated_time_s": self.estimated_time_s,
            "estimated_cost_usd": self.estimated_cost_usd,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
        }


def _result(
    algorithm: str,
    started: float,
    iterations: int,
    evaluations: int,
    config: dict[str, int] | None = None,
    estimated_time_s: float | None = None,
    estimated_cost_usd: float | None = None,
) -> SearchResult:
    """A search outcome timed from ``started``; empty unless ``config`` is given."""
    return SearchResult(
        algorithm=algorithm,
        config=config,
        estimated_time_s=estimated_time_s,
        estimated_cost_usd=estimated_cost_usd,
        iterations=iterations,
        evaluations=evaluations,
        elapsed_s=time.perf_counter() - started,
    )


def _representatives(
    functions: tuple[str, ...],
    profiles: Mapping[str, FunctionProfile],
    rungs: tuple[int, ...],
    allow_non_monotone: bool,
) -> dict[str, list[float]]:
    """Each function's representatives, indexed by rung position."""
    table: dict[str, list[float]] = {}
    for name in functions:
        profile = profiles.get(name)
        if profile is None:
            raise MissingProfile(name)
        reps = [profile.representative(memory_mb) for memory_mb in rungs]
        if not allow_non_monotone and any(b > a for a, b in zip(reps, reps[1:])):
            raise ProfileNotMonotone(name)
        table[name] = reps
    return table


class _Trajectory:
    """The greedy bump order, which depends only on the representatives.

    Functions start at the lowest rung, or at the rung indices in
    ``start``. Each pop takes the function with the largest current
    representative from a max-heap (ties break on the function name) and
    moves it one rung up; a function popped at the top rung leaves the heap
    for good. ``keep(function, rung, estimate)``, when given, judges every
    move: a rejected move is undone and its function leaves the heap too.
    ``estimate`` follows every kept move.
    """

    def __init__(
        self,
        graph: CallGraph,
        profiles: Mapping[str, FunctionProfile],
        rungs: tuple[int, ...],
        allow_non_monotone: bool,
        start: Mapping[str, int] | None = None,
        keep: Callable[[str, int, float], bool] | None = None,
    ):
        seconds = _representatives(graph.functions(), profiles, rungs, allow_non_monotone)
        self.seconds = seconds
        self._evaluator = GraphEvaluator(graph)
        self.rung = dict.fromkeys(seconds, 0)
        self.rung.update(start or {})
        self.estimate = self._evaluator.evaluate(
            {name: seconds[name][index] for name, index in self.rung.items()}
        )
        self.iterations = 0
        self.evaluations = 1
        self._heap = [(-seconds[name][index], name) for name, index in self.rung.items()]
        heapq.heapify(self._heap)
        self._keep = keep

    def bump(self) -> str | None:
        """Pop until one function moves up a rung and return its name; None
        once the heap is empty."""
        while self._heap:
            _, name = heapq.heappop(self._heap)
            self.iterations += 1
            index = self.rung[name] + 1
            if index < len(self.seconds[name]):
                seconds = self.seconds[name][index]
                estimate = self._evaluator.set(name, seconds)
                self.evaluations += 1
                if self._keep is not None and not self._keep(name, index, estimate):
                    self._evaluator.set(name, self.seconds[name][index - 1])
                    continue
                self.rung[name] = index
                self.estimate = estimate
                heapq.heappush(self._heap, (-seconds, name))
                return name
        return None


def greedy_slo(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel | None = None,
    allow_non_monotone: bool = False,
) -> SearchResult:
    """Find a feasible configuration by bumping the slowest function first.

    Walks the greedy bump order (all functions at the smallest ladder size,
    then the slowest function one rung up per pop, ties on the function
    name) until the estimate fits the SLO. Returns an empty result when the
    heap drains without success, which on monotone profiles means even the
    all-maximum configuration is infeasible. Performs at most N*(M-1)+1
    latency estimations.
    """
    started = time.perf_counter()
    rungs = ladder.effective()
    walk = _Trajectory(graph, profiles, rungs, allow_non_monotone)
    while not walk.estimate <= slo.slo_seconds:
        if walk.bump() is None:
            return _result("greedy", started, walk.iterations, walk.evaluations)
    config = {name: rungs[index] for name, index in walk.rung.items()}
    return _result(
        "greedy", started, walk.iterations, walk.evaluations, config, walk.estimate,
        configuration_cost(config, profiles, cost_model or CostModel()),
    )


def greedy_min_cost(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel | None = None,
    allow_non_monotone: bool = False,
) -> SearchResult:
    """Feasible-first search, then keep bumping only where it pays off.

    Starting from the ``greedy_slo`` configuration, each pop considers one
    more rung for the slowest function and accepts it iff

        |new_cost - old_cost| / old_cost  <=  |old_time - new_time| / old_time

    at the application level, and the result still meets the SLO. Costs
    are exact integers (:meth:`CostModel.cost_units`), so each trial's cost
    is the current one plus one cell's change. A function whose bump fails
    the test is frozen at its current size and never revisited. The
    cheapest feasible configuration seen anywhere along the way (including
    the starting point) is returned, so the cost never exceeds the plain
    greedy result's.
    """
    started = time.perf_counter()
    cost_model = cost_model or CostModel()
    base = greedy_slo(
        graph, profiles, ladder, slo, cost_model, allow_non_monotone=allow_non_monotone
    )
    if not base.found:
        return _result("greedy-min-cost", started, base.iterations, base.evaluations)

    rungs = ladder.effective()

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

    walk = _Trajectory(  # greedy_slo has checked monotonicity already
        graph, profiles, rungs, allow_non_monotone=True,
        start={name: rungs.index(memory) for name, memory in base.config.items()}, keep=keep,
    )
    units = {
        name: cost_model.cost_units(walk.seconds[name][index], rungs[index])
        for name, index in walk.rung.items()
    }
    cost = sum(units.values())
    best_rung, best_cost, best_time = dict(walk.rung), cost, walk.estimate
    while walk.bump() is not None:
        if cost < best_cost or (cost == best_cost and walk.estimate < best_time):
            best_rung, best_cost, best_time = dict(walk.rung), cost, walk.estimate

    config = {name: rungs[index] for name, index in best_rung.items()}
    return _result(
        "greedy-min-cost", started, base.iterations + walk.iterations,
        base.evaluations + walk.evaluations, config, best_time,
        configuration_cost(config, profiles, cost_model),
    )


def greedy_min_time(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel | None = None,
    allow_non_monotone: bool = False,
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
    started = time.perf_counter()
    rungs = ladder.effective()
    walk = _Trajectory(graph, profiles, rungs, allow_non_monotone)
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
        return _result("greedy-min-time", started, walk.iterations, walk.evaluations)

    rung = dict.fromkeys(walk.rung, 0)
    for name in bumps[:best_step]:
        rung[name] += 1
    config = {name: rungs[index] for name, index in rung.items()}
    return _result(
        "greedy-min-time", started, walk.iterations, walk.evaluations, config, best_time,
        configuration_cost(config, profiles, cost_model or CostModel()),
    )


def brute_force(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    objective: Objective = Objective.FEASIBLE,
    cost_model: CostModel | None = None,
) -> SearchResult:
    """Exhaustively scan all M^N configurations for the global optimum.

    Functions are ordered by name and the ladder ascends, and the scan
    turns the configuration like an odometer (the last function fastest),
    re-evaluating only the functions whose rung changed. Ties therefore
    resolve to the lexicographically smallest memory vector. Always scans
    the full space (the evaluation count is exactly M^N); raises
    :class:`SearchSpaceTooLarge` before scanning when M^N exceeds
    :data:`BRUTE_FORCE_LIMIT`.
    """
    started = time.perf_counter()
    cost_model = cost_model or CostModel()
    functions = tuple(sorted(graph.functions()))
    rungs = ladder.effective()
    seconds = _representatives(functions, profiles, rungs, allow_non_monotone=True)

    combinations = len(rungs) ** len(functions)
    if combinations > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLarge(combinations, BRUTE_FORCE_LIMIT)

    units = {
        name: [cost_model.cost_units(s, m) for s, m in zip(seconds[name], rungs)]
        for name in functions
    }
    index = [0] * len(functions)
    evaluator = GraphEvaluator(graph)
    total_time = evaluator.evaluate({name: seconds[name][0] for name in functions})
    total_cost = sum(units[name][0] for name in functions)

    def turn(position: int, rung: int) -> float:
        nonlocal total_cost
        name = functions[position]
        total_cost += units[name][rung] - units[name][index[position]]
        index[position] = rung
        return evaluator.set(name, seconds[name][rung])

    best_index: list[int] | None = None
    best_time = math.inf
    best_metric = math.inf
    top = len(rungs) - 1
    for step in range(combinations):
        if step:
            position = len(functions) - 1
            while index[position] == top:
                total_time = turn(position, 0)
                position -= 1
            total_time = turn(position, index[position] + 1)
        if total_time > slo.slo_seconds:
            continue
        if objective is Objective.MIN_COST:
            metric = total_cost
        elif objective is Objective.MIN_TIME:
            metric = total_time
        else:
            metric = 0.0 if best_index is None else math.inf  # first feasible wins
        if metric < best_metric:
            best_metric = metric
            best_index = list(index)
            best_time = total_time

    algorithm = f"brute-force-{objective.value}"
    if best_index is None:
        return _result(algorithm, started, combinations, combinations)
    config = {name: rungs[i] for name, i in zip(functions, best_index)}
    return _result(
        algorithm, started, combinations, combinations, config, best_time,
        configuration_cost(config, profiles, cost_model),
    )
