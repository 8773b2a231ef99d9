"""Search the memory-configuration space for SLO-feasible assignments.

The three greedy variants share one trajectory, the greedy bump order
walked from the all-minimum configuration: each step moves the function
with the largest current representative (ties on the function name) one
rung up. Representatives never increase with memory, so that order is the
list of all (function, rung) cells sorted by descending representative,
then name, then rung. It depends on neither the SLO nor the objective, so
an instance's trajectory is walked once, to its end, and kept as its
records (the estimates lower than every earlier one). ``greedy_slo`` takes
the first record within the SLO, which is where a walk stopping there
would stop, and ``greedy_min_time`` the last one, the tightest SLO the
greedy can satisfy. ``greedy_min_cost`` starts where ``greedy_slo`` stops,
then walks on with its own evaluator, trading memory for time only while
the relative cost increase does not exceed the relative time gain. All
three raise ``ProfileNotMonotone`` on a profile that gets slower with more
memory. ``brute_force`` takes any table, scans every combination and is
the optimality oracle for small instances; one scan answers all three
objectives for an SLO and a cost model, and it never walks the greedy
trajectory.

A one-slot memo keeps the last instance searched, keyed on the graph
object, the rungs and each function's profile object (profiles are
read-only values): its trajectory, once a greedy search has walked it,
and brute force's answers per SLO and cost model. So the three greedy
searches and a sweep of SLOs over the same graph and profile objects
share one walk and one table of representatives, each point a search
stops at is priced once, a lone ``greedy_slo`` walks the whole order, and
a second brute-force objective on the same instance, SLO and cost model
is a lookup. The slot keeps only records and answers: no evaluator stays
reachable once a search returns.

Every search evaluates the graph with
:class:`~faastune.estimate.GraphEvaluator` on the table scaled to exact
integers by one shift, and rounds an estimate only when its exact value
falls, since rounding never reverses an order; records, the SLO test,
min-cost's ratio test and brute force's objectives compare the rounded
value, so a result's ``estimated_time_s`` is the value that was tested,
and :func:`~faastune.estimate.estimate_time` of its configuration gives
it bit for bit.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping

from .errors import (
    MissingProfile,
    ProfileNotMonotone,
    SearchSpaceTooLarge,
)
from .estimate import GraphEvaluator, from_scaled, time_shift, to_scaled
from .model import (
    CallGraph,
    CostModel,
    FunctionProfile,
    MemoryLadder,
    Objective,
    SloSpec,
)

#: ``brute_force`` refuses to start beyond this many combinations, which
#: keeps an exhaustive scan to minutes.
BRUTE_FORCE_LIMIT = 10_000_000


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    ``config`` is None when no configuration satisfies the SLO (that is an
    outcome, not an error). ``iterations`` counts algorithm steps (cells
    of the bump order taken, or scanned combinations) and ``evaluations``
    counts end-to-end latency estimations. It holds no wall time, so equal
    searches give equal results; ``optimize`` times its call into a sidecar
    file.
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
) -> dict[str, tuple[float, ...]]:
    """Each function's representatives, indexed by rung position.

    Raises :class:`MissingProfile` for the first function (then rung) it
    lacks.
    """
    if len(rungs) > 1:
        fetch = operator.itemgetter(*rungs)
    else:  # itemgetter of one key returns the bare value, not a 1-tuple
        def fetch(representatives, memory_mb=rungs[0]):
            return (representatives[memory_mb],)
    table: dict[str, tuple[float, ...]] = {}
    for name in functions:
        profile = profiles.get(name)
        if profile is None:
            raise MissingProfile(name)
        try:
            table[name] = fetch(profile.representatives)
        except KeyError:  # raise MissingProfile for the first rung it lacks
            table[name] = tuple(profile.representative(memory_mb) for memory_mb in rungs)
    return table


def _bump_order(
    seconds: dict[str, tuple[float, ...]],
) -> tuple[list[int], list[str], list[int | None], int, dict[str, tuple[int, ...]]]:
    """The greedy bump order of one table of representatives, as
    ``(order, names, up, shift, scaled)``.

    ``scaled`` holds each function's representatives scaled to exact
    integers by one common ``2**shift`` (:func:`~faastune.estimate.time_shift`).
    Cell ``i`` is function ``names[i]`` at rung position ``i % M``; cells
    are numbered by function name, then rung. Taking cell ``i`` moves its
    function one rung up, to scaled representative ``up[i]``, or moves
    nothing when ``up[i]`` is None (the top rung). ``order`` lists the cells
    by descending representative; a stable sort keeps ties in name, then
    rung order. Rows never increase along the ladder, so that is the order
    in which a max-heap of each function's current representative (ties on
    the name) pops them, and a function's cells come in rung order: a walk
    of ``order`` is the greedy search, all functions at the lowest rung,
    then the slowest one up one rung per step.

    Raises :class:`ProfileNotMonotone` for the first function, in execution
    order, whose representatives increase along the ladder.
    """
    by_name = sorted(seconds)
    per_row = len(seconds[by_name[0]])
    flat = list(chain.from_iterable(map(seconds.__getitem__, by_name)))
    # Past a row's top rung ``up`` is -inf for the monotone check, then None.
    up: list = flat[1:]
    up.append(-math.inf)
    up[per_row - 1::per_row] = [-math.inf] * len(by_name)
    if any(map(operator.gt, up, flat)):
        raise ProfileNotMonotone(
            next(name for name, row in seconds.items() if any(map(operator.gt, row[1:], row)))
        )
    shift = time_shift(flat)
    exact = to_scaled(flat, shift)
    up = exact[1:]
    up.append(None)
    up[per_row - 1::per_row] = [None] * len(by_name)
    scaled = dict(zip(by_name, zip(*[iter(exact)] * per_row)))
    order = sorted(range(len(flat)), key=flat.__getitem__, reverse=True)
    names = list(chain.from_iterable(map(repeat, by_name, repeat(per_row))))
    return order, names, up, shift, scaled


class _Trajectory:
    """The greedy trajectory of one instance, walked once to its end.

    The walk takes :func:`_bump_order`'s ``order`` from the all-minimum
    configuration with one :class:`~faastune.estimate.GraphEvaluator` on
    the scaled table, which makes N*(M-1)+1 exact estimations and depends on
    no SLO. Only its records are kept: the all-minimum estimate and every
    later estimate that, rounded, is lower than all before it, as three
    parallel lists (``estimates``, rounded and strictly decreasing;
    ``estimations``, the estimations made when each was reached, the
    all-minimum one included; ``taken``, the cells taken by then). Rounding
    never reverses an order, so an estimate is rounded only when its exact
    value falls below every earlier one. ``seconds`` holds each function's
    representatives, in execution order, and ``scaled`` each row scaled by
    ``2**shift``, as ``up`` is. ``points`` memoizes :func:`_point`
    and is all that changes after construction; no evaluator stays
    reachable.
    """

    __slots__ = ("seconds", "scaled", "shift", "order", "names", "up", "estimates",
                 "estimations", "taken", "points")

    def __init__(self, graph: CallGraph, seconds: dict[str, tuple[float, ...]]):
        order, names, up, shift, scaled = _bump_order(seconds)
        evaluator = GraphEvaluator(graph)
        lowest = evaluator.evaluate_scaled({name: row[0] for name, row in scaled.items()})
        best = from_scaled(lowest, shift)
        estimates, estimations, taken_at = [best], [1], [0]
        made = 1
        set_scaled = evaluator.set_scaled
        for taken, cell in enumerate(order, 1):
            value = up[cell]
            if value is not None:
                exact = set_scaled(names[cell], value)
                made += 1
                if exact < lowest:
                    lowest = exact
                    estimate = from_scaled(exact, shift)
                    if estimate < best:  # strict: a record is the first of its value
                        best = estimate
                        estimates.append(estimate)
                        estimations.append(made)
                        taken_at.append(taken)
        self.seconds = seconds
        self.scaled = scaled
        self.shift = shift
        self.order = order
        self.names = names
        self.up = up
        self.estimates = estimates
        self.estimations = estimations
        self.taken = taken_at
        self.points = {}

    def reach(self, stop: float) -> tuple[int, int, float, int]:
        """A walk of ``order`` from the start until an estimate is within
        ``stop``, or to its end: the cells taken, the estimations made (the
        all-minimum one included), the first lowest estimate and the number
        of cells taken when it was reached.

        While every estimate so far exceeds ``stop``, one within it is a new
        minimum, so the walk stops at the first record within ``stop``."""
        estimates, taken = self.estimates, self.taken
        record = bisect_left(estimates, -stop, key=operator.neg)
        if record < len(estimates):
            return taken[record], self.estimations[record], estimates[record], taken[record]
        # N*M cells, of which the N top-rung ones estimate nothing
        cells = len(self.order)
        return cells, cells - len(self.seconds) + 1, estimates[-1], taken[-1]


#: The last instance searched, as (graph, rungs, each function's profile
#: object in execution order, its greedy trajectory or None, brute force's
#: answers per (slo_seconds, cost model)). A new instance, or the first
#: trajectory of one, replaces the slot whole; only the answers dict grows
#: in place, one complete entry at a time, so concurrent searches read a
#: consistent slot.
_last: tuple[
    CallGraph, tuple[int, ...], tuple[FunctionProfile, ...], _Trajectory | None, dict
] | None = None


def _slot(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    rungs: tuple[int, ...],
) -> tuple | None:
    """The memo slot if it holds this instance: the same graph object, equal
    rungs and the same profile object for every function, else None.

    A profile never changes once built, and the slot keeps the old profiles
    alive, so the same objects hold the same floats."""
    last = _last
    if (
        last is not None
        and last[0] is graph
        and last[1] == rungs
        and all(map(operator.is_, map(profiles.get, graph.functions()), last[2]))
    ):
        return last
    return None


def _trajectory(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    rungs: tuple[int, ...],
) -> _Trajectory:
    """The greedy trajectory of this instance, walked anew unless the memo
    slot holds one of it. The table of representatives is built only when
    the walk is."""
    global _last
    slot = _slot(graph, profiles, rungs)
    if slot is not None and slot[3] is not None:
        return slot[3]
    functions = graph.functions()
    trajectory = _Trajectory(graph, _representatives(functions, profiles, rungs))
    _last = (graph, rungs, tuple(map(profiles.get, functions)), trajectory,
             {} if slot is None else slot[4])
    return trajectory


def _rungs_after(trajectory: _Trajectory, taken: int, per_row: int) -> dict[str, int]:
    """Each function's rung position, in execution order, once the first
    ``taken`` cells of ``trajectory.order`` are taken from the all-minimum
    configuration; ``per_row`` is the number of rungs."""
    rung = dict.fromkeys(trajectory.seconds, 0)
    names, up = trajectory.names, trajectory.up
    for cell in trajectory.order[:taken]:
        if up[cell] is not None:
            rung[names[cell]] = cell % per_row + 1
    return rung


def _units(
    rung: Mapping[str, int],
    seconds: Mapping[str, tuple[float, ...]],
    rungs: tuple[int, ...],
    cost_model: CostModel,
) -> dict[str, int]:
    """Each function's :meth:`CostModel.cost_units` at its rung position."""
    cost_units = cost_model.cost_units
    return {name: cost_units(seconds[name][index], rungs[index]) for name, index in rung.items()}


def _point(
    trajectory: _Trajectory,
    taken: int,
    rungs: tuple[int, ...],
    cost_model: CostModel,
) -> tuple[dict[str, int], dict[str, int], int]:
    """The point a walk of ``trajectory`` reaches with ``taken`` cells:
    :func:`_rungs_after`, :func:`_units` there and their sum, memoized on
    the trajectory per ``(taken, cost_model)``. The dicts are shared, so
    callers copy before they change them."""
    key = (taken, cost_model)
    point = trajectory.points.get(key)
    if point is None:
        rung = _rungs_after(trajectory, taken, len(rungs))
        units = _units(rung, trajectory.seconds, rungs, cost_model)
        point = trajectory.points[key] = (rung, units, sum(units.values()))
    return point


def _found(
    algorithm: str,
    rung: Mapping[str, int],
    estimate: float,
    units: int,
    rungs: tuple[int, ...],
    cost_model: CostModel,
    iterations: int,
    evaluations: int,
) -> SearchResult:
    """The result for the rung positions ``rung``, which cost ``units``."""
    config = {name: rungs[index] for name, index in rung.items()}
    return SearchResult(
        algorithm, config, estimate, cost_model.usd(units), iterations, evaluations
    )


def _greedy(
    algorithm: str,
    stop: float,
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel,
) -> SearchResult:
    """The configuration where a walk to ``stop`` (:meth:`_Trajectory.reach`)
    first reaches its lowest estimate, or an empty result when that
    estimate misses the SLO; ``iterations`` counts the cells taken."""
    rungs = ladder.effective()
    trajectory = _trajectory(graph, profiles, rungs)
    taken, estimations, best_time, best = trajectory.reach(stop)
    if not best_time <= slo.slo_seconds:
        return SearchResult(algorithm, None, None, None, taken, estimations)
    rung, _, units = _point(trajectory, best, rungs, cost_model)
    return _found(algorithm, rung, best_time, units, rungs, cost_model, taken, estimations)


def greedy_slo(
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
    return _greedy("greedy", slo.slo_seconds, graph, profiles, ladder, slo, cost_model)


def greedy_min_cost(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    ladder: MemoryLadder,
    slo: SloSpec,
    cost_model: CostModel = CostModel(),
) -> SearchResult:
    """Feasible-first search, then keep bumping only where it pays off.

    Walks the ``greedy_slo`` bump order to the SLO, estimates the feasible
    configuration once more and walks the order again from there with every
    function back in it, as if a fresh walk started at that configuration:
    it skips each function's cells below its rung and takes its current
    one, so a function already at the top rung is stepped over once more.
    Each step considers one more rung for its function and accepts it iff

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
    trajectory = _trajectory(graph, profiles, rungs)
    taken, estimations, time, _ = trajectory.reach(slo_seconds)
    if not time <= slo_seconds:
        return SearchResult("greedy-min-cost", None, None, None, taken, estimations)
    per_row = len(rungs)
    seconds, scaled, shift = trajectory.seconds, trajectory.scaled, trajectory.shift
    names, up = trajectory.names, trajectory.up
    rung, units, cost = _point(trajectory, taken, rungs, cost_model)
    rung, units = dict(rung), dict(units)
    # The first ``taken`` cells all lie below their function's rung but for
    # the ``taken - moved`` top-rung ones, which the second walk steps over
    # once more; every later cell is its function's current one until the
    # function is frozen. Evaluating the feasible point gives the walk's
    # exact estimate, which rounds to ``time``, and counts as one more
    # estimation.
    moved = estimations - 1
    iterations = 2 * taken - moved
    evaluations = estimations + 1
    cost_units = cost_model.cost_units
    evaluator = GraphEvaluator(graph)
    exact = evaluator.evaluate_scaled({name: scaled[name][index] for name, index in rung.items()})
    set_scaled = evaluator.set_scaled
    frozen: set[str] = set()
    kept: list[tuple[str, int]] = []
    best, best_cost, best_time = 0, cost, time
    for cell in trajectory.order[taken:]:
        name = names[cell]
        if name in frozen:
            continue
        iterations += 1
        trial = up[cell]
        if trial is None:
            continue
        trial_exact = set_scaled(name, trial)
        evaluations += 1
        # The rounded estimate moves only when the exact one does.
        trial_time = time if trial_exact == exact else from_scaled(trial_exact, shift)
        index = cell % per_row + 1
        trial_units = cost_units(seconds[name][index], rungs[index])
        delta = trial_units - units[name]
        cost_step = abs(delta) / cost if cost else (0.0 if delta == 0 else math.inf)
        gain = time - trial_time
        time_step = abs(gain) / abs(time) if time else (0.0 if gain == 0 else math.inf)
        if trial_time > slo_seconds or not cost_step <= time_step:
            set_scaled(name, scaled[name][index - 1])
            frozen.add(name)
            continue
        units[name] = trial_units
        cost += delta
        exact, time = trial_exact, trial_time
        kept.append((name, index))
        if cost < best_cost or (cost == best_cost and time < best_time):
            best, best_cost, best_time = len(kept), cost, time

    rung.update(kept[:best])
    return _found(
        "greedy-min-cost", rung, best_time, best_cost, rungs, cost_model, iterations, evaluations
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
    walks the whole order (N*M cells, exactly N*(M-1)+1 latency
    estimations) and returns the first configuration that reaches the
    minimum, or an empty result when the minimum exceeds the SLO.
    ``iterations`` counts the cells.
    """
    return _greedy("greedy-min-time", -math.inf, graph, profiles, ladder, slo, cost_model)


def _scan(
    graph: CallGraph,
    seconds: dict[str, tuple[float, ...]],
    rungs: tuple[int, ...],
    slo_seconds: float,
    cost_model: CostModel,
) -> dict[Objective, tuple[dict[str, int], float, int] | None]:
    """Brute force's answer for every objective from one scan of the M^N
    configurations of ``seconds``, whose rows are in function-name order:
    the first configuration that meets the SLO, the cheapest (the earlier
    on a tie) and the fastest by rounded estimate (an exact total that
    rounds to the same value does not replace the earlier one), each as its
    rung positions, its estimate and its cost units, or None when no
    configuration meets the SLO.

    The scan turns the configuration like an odometer, the last function
    fastest. The first N-1 functions move through
    :meth:`~faastune.estimate.GraphEvaluator.set_scaled`; the last one
    stays at its lowest rung in the evaluator, and after each turn of the
    others :meth:`~faastune.estimate.GraphEvaluator.max_plus` prices all of
    its rungs, one add and one max each. A turn is skipped whole when its
    lowest estimate is known to miss the SLO, or when, with a feasible
    configuration found, none of its rungs could be cheaper or faster than
    the answers so far.
    """
    functions = tuple(seconds)
    shift = time_shift(chain.from_iterable(seconds.values()))
    rows = [to_scaled(seconds[name], shift) for name in functions]
    cost_units = cost_model.cost_units
    units = [list(map(cost_units, seconds[name], rungs)) for name in functions]
    evaluator = GraphEvaluator(graph)
    evaluator.evaluate_scaled({name: row[0] for name, row in zip(functions, rows)})
    set_scaled, max_plus = evaluator.set_scaled, evaluator.max_plus
    *turned, last = functions
    last_cells = list(zip(range(len(rungs)), rows[-1], units[-1]))
    least, least_units = min(rows[-1]), min(units[-1])
    index = [0] * len(turned)
    turned_cost = sum(row[0] for row in units[:-1])
    # Rounding never reverses an order, so the exact estimates that meet the
    # SLO once rounded are those up to some threshold: ``fits`` is the
    # largest known to, ``misses`` the smallest known not to, and only an
    # estimate between them is rounded for the test. For min-time, only one
    # below every feasible one so far (``lowest``) is rounded.
    fits, misses, lowest = -1, math.inf, math.inf
    first = cheapest = fastest = None
    best_cost = best_time = math.inf
    top = len(rungs) - 1
    for step in range(len(rungs) ** len(turned)):
        if step:
            position = len(turned) - 1
            while index[position] == top:  # roll over to the lowest rung
                index[position] = 0
                turned_cost += units[position][0] - units[position][top]
                set_scaled(turned[position], rows[position][0])
                position -= 1
            rung = index[position] + 1
            index[position] = rung
            turned_cost += units[position][rung] - units[position][rung - 1]
            set_scaled(turned[position], rows[position][rung])
        a, b = max_plus(last)
        if b is None:
            b = -1  # below every total: scaled durations are non-negative
        low = least + a
        if low < b:
            low = b
        if low >= misses or (
            first is not None and low >= lowest and turned_cost + least_units >= best_cost
        ):
            continue  # every rung misses the SLO, or none beats an answer
        for rung, value, cell_units in last_cells:
            total = value + a
            if total < b:
                total = b
            if total > fits:
                if total >= misses:
                    continue
                if from_scaled(total, shift) > slo_seconds:
                    misses = total
                    continue
                fits = total
            cost = turned_cost + cell_units
            if first is None:
                first = ((*index, rung), total, cost)
            if cost < best_cost:
                best_cost = cost
                cheapest = ((*index, rung), total, cost)
            if total < lowest:
                lowest = total
                estimate = from_scaled(total, shift)
                if estimate < best_time:
                    best_time = estimate
                    fastest = ((*index, rung), total, cost)
    answers = {}
    for objective, answer in ((Objective.FEASIBLE, first), (Objective.MIN_COST, cheapest),
                              (Objective.MIN_TIME, fastest)):
        if answer is not None:
            positions, total, cost = answer
            answer = (dict(zip(functions, positions)), from_scaled(total, shift), cost)
        answers[objective] = answer
    return answers


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
    resolve to the lexicographically smallest memory vector. One scan per
    instance, SLO and cost model answers every objective, and the memo
    slot keeps the answers, so asking for another objective scans nothing;
    every call still counts the full space (iterations and evaluations are
    exactly M^N). Raises :class:`MissingProfile`, then
    :class:`SearchSpaceTooLarge` when M^N exceeds
    :data:`BRUTE_FORCE_LIMIT`, before scanning. ``objective`` may be given
    by value, and an unknown one raises ValueError before anything else.
    """
    global _last
    objective = Objective(objective)
    rungs = ladder.effective()
    combinations = len(rungs) ** len(graph.functions())
    key = (slo.slo_seconds, cost_model)
    slot = _slot(graph, profiles, rungs)
    answers = None if slot is None else slot[4].get(key)
    if answers is None:
        seconds = _representatives(tuple(sorted(graph.functions())), profiles, rungs)
        if combinations > BRUTE_FORCE_LIMIT:
            raise SearchSpaceTooLarge(combinations, BRUTE_FORCE_LIMIT)
        answers = _scan(graph, seconds, rungs, slo.slo_seconds, cost_model)
        if slot is None:
            profile_objects = tuple(map(profiles.get, graph.functions()))
            _last = (graph, rungs, profile_objects, None, {key: answers})
        else:
            slot[4][key] = answers
    algorithm = f"brute-force-{objective.value}"
    answer = answers[objective]
    if answer is None:
        return SearchResult(algorithm, None, None, None, combinations, combinations)
    rung, estimate, units = answer
    return _found(algorithm, rung, estimate, units, rungs, cost_model, combinations, combinations)
