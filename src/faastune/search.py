"""Search the memory-configuration space for SLO-feasible assignments.

Three greedy variants share one engine: a max-heap over the functions'
current representative execution times. The slowest function gets more
memory first, one ladder rung at a time, until the estimated end-to-end
latency fits the SLO. On top of that, ``greedy_min_cost`` continues its own
feasible walk, trading memory for time only while the relative cost
increase does not exceed the relative time gain, and ``greedy_min_time``
walks the whole bump order, whose minimum estimate is the tightest SLO the
greedy can satisfy; all three raise ``ProfileNotMonotone`` on a profile
that gets slower with more memory. ``brute_force`` takes any table, scans
every combination and is the optimality oracle for small instances. All
of them evaluate the graph with one :class:`~faastune.estimate.GraphEvaluator`.
"""

from __future__ import annotations

import heapq
import math
import operator
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
    latency estimations. It holds no wall time, so equal searches give
    equal results; ``optimize`` times its call into a sidecar file.
    """

    algorithm: str
    config: dict[str, int] | None
    estimated_time_s: float | None
    estimated_cost_usd: float | None
    iterations: int
    evaluations: int

    @property
    def found(self) -> bool:
        return self.config is not None

    def to_record(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "config": dict(sorted(self.config.items())) if self.config else None,
            "estimated_time_s": self.estimated_time_s,
            "estimated_cost_usd": self.estimated_cost_usd,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
        }


def _representatives(
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


class _Trajectory:
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
        self.seconds = _representatives(graph.functions(), profiles, rungs)
        for name, reps in self.seconds.items():
            if any(map(operator.gt, reps[1:], reps)):
                raise ProfileNotMonotone(name)
        self._evaluator = GraphEvaluator(graph)
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


def greedy_slo(
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
    walk = _Trajectory(graph, profiles, rungs)
    if not walk.reach(slo.slo_seconds):
        return SearchResult("greedy", None, None, None, walk.iterations, walk.evaluations)
    config = {name: rungs[index] for name, index in walk.rung.items()}
    return SearchResult(
        "greedy", config, walk.estimate, configuration_cost(config, profiles, cost_model),
        walk.iterations, walk.evaluations,
    )


def greedy_min_cost(
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
    walk = _Trajectory(graph, profiles, rungs)
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


def greedy_min_time(
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
    walk = _Trajectory(graph, profiles, rungs)
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


def brute_force(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    objective: Objective = Objective.FEASIBLE,
    cost_model: CostModel = CostModel(),
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
    functions = tuple(sorted(graph.functions()))
    rungs = ladder.effective()
    seconds = _representatives(functions, profiles, rungs)

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
        return SearchResult(algorithm, None, None, None, combinations, combinations)
    config = {name: rungs[i] for name, i in zip(functions, best_index)}
    return SearchResult(
        algorithm, config, best_time, configuration_cost(config, profiles, cost_model),
        combinations, combinations,
    )
