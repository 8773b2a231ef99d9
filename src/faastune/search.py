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
then walks on from there, trading memory for time only while the relative
cost increase does not exceed the relative time gain. All
three raise ``ProfileNotMonotone`` on a profile that gets slower with more
memory. ``brute_force`` takes any table, scans every combination and is
the optimality oracle for small instances; one scan answers all three
objectives for an SLO and a cost model, and it never walks the greedy
trajectory.

Each search runs on a plan of its instance: the table of representatives,
built and scaled once, the trajectory once a greedy search has walked it,
brute force's answers per SLO and cost model, and the evaluators its walks
lend each other. A one-plan memo keeps the last instance's plan, keyed on
the graph object, the rungs and each function's profile object (profiles
are read-only values), so the searches and a sweep of SLOs over the same
objects share one table, one walk and one evaluator, and a second
brute-force objective is a lookup. Every walk (the trajectory, min-cost's
second phase and brute force's scan) borrows a free evaluator from the
plan (:meth:`_Plan.borrow`), builds one only when none is free, composes
its start point in full and hands the evaluator back when done. The
trajectory's records and points and brute force's answers hold no
evaluator, and neither does any result.

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


@dataclass(frozen=True, slots=True)
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


def _bump_order(plan: _Plan) -> tuple[list[int], list[str], list[int | None]]:
    """The greedy bump order of ``plan``'s table, as ``(order, names, up)``.

    Cell ``i`` is function ``names[i]`` at rung position ``i % M``, whose
    scaled representative is ``plan.flat[i]``. Taking cell ``i`` moves its
    function one rung up, to scaled representative ``up[i]``, or moves
    nothing when ``up[i]`` is None (the top rung). ``order`` lists the cells
    by descending representative; a stable sort keeps ties in name, then
    rung order. Rows never increase along the ladder, so that is the order
    in which a max-heap of each function's current representative (ties on
    the name) pops them, and a function's cells come in rung order: a walk
    of ``order`` is the greedy search, all functions at the lowest rung,
    then the slowest one up one rung per step. Scaling is exact, so the
    integers keep every order and tie of the floats, and the monotone check
    compares them.

    Raises :class:`ProfileNotMonotone` for the first function, in execution
    order, whose representatives increase along the ladder.
    """
    flat, by_name, per_row = plan.flat, plan.by_name, len(plan.rungs)
    # Past a row's top rung ``up`` is -1 for the monotone check, since scaled
    # durations are non-negative, then None.
    up: list = flat[1:]
    up.append(-1)
    up[per_row - 1::per_row] = [-1] * len(by_name)
    if any(map(operator.gt, up, flat)):
        raise ProfileNotMonotone(
            next(name for name, row in plan.seconds.items() if any(map(operator.gt, row[1:], row)))
        )
    up[per_row - 1::per_row] = [None] * len(by_name)
    # Sorted on the floats, which compare faster than multi-digit integers;
    # scaling is exact, so both give the same order.
    cells = list(chain.from_iterable(map(plan.seconds.__getitem__, by_name)))
    order = sorted(range(len(cells)), key=cells.__getitem__, reverse=True)
    names = list(chain.from_iterable(map(repeat, by_name, repeat(per_row))))
    return order, names, up


class _Trajectory:
    """The greedy trajectory of one plan, walked once to its end.

    The walk takes :func:`_bump_order`'s ``order`` from the all-minimum
    configuration with one :class:`~faastune.estimate.GraphEvaluator` on
    the plan's scaled table, which makes N*(M-1)+1 exact estimations and
    depends on no SLO. Only its records are kept: the all-minimum estimate
    and every later estimate that, rounded, is lower than all before it, as
    three parallel lists (``estimates``, rounded and strictly decreasing;
    ``estimations``, the estimations made when each was reached, the
    all-minimum one included; ``taken``, the cells taken by then). Rounding
    never reverses an order, so an estimate is rounded only when its exact
    value falls below every earlier one. ``points`` memoizes :func:`_point`
    and is all that changes after construction. The walk borrows its
    evaluator from the plan and hands it back; the trajectory keeps none.
    """

    __slots__ = ("order", "names", "up", "estimates", "estimations", "taken", "points")

    def __init__(self, plan: _Plan):
        order, names, up = _bump_order(plan)
        shift = plan.shift
        evaluator, lowest = plan.borrow({name: row[0] for name, row in plan.scaled.items()})
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
        plan.evaluators.append(evaluator)
        self.order = order
        self.names = names
        self.up = up
        self.estimates = estimates
        self.estimations = estimations
        self.taken = taken_at
        self.points = {}


class _Plan:
    """Everything the searches share on one instance.

    The key is the graph object, the rungs and each function's profile
    object in execution order: a profile never changes once built, and the
    plan keeps its profiles alive, so the same objects hold the same
    floats. ``seconds`` is the table of representatives, in execution order
    (:func:`_representatives`, which raises :class:`MissingProfile`).
    ``flat`` holds its cells, by function name (``by_name``) then rung,
    scaled to exact integers by one common ``2**shift``
    (:func:`~faastune.estimate.time_shift`), and ``scaled`` the same cells
    as one row per name. ``trajectory`` is the greedy trajectory, walked on
    first use by :meth:`reach`, and ``answers`` holds brute force's answers
    per ``(slo_seconds, cost_model)``. Both are set or grown one complete
    value at a time, so concurrent searches read a consistent plan.
    ``evaluators`` holds the free evaluators of the graph (:meth:`borrow`).
    """

    __slots__ = ("graph", "rungs", "profiles", "seconds", "by_name", "shift", "flat", "scaled",
                 "trajectory", "answers", "evaluators")

    def __init__(
        self,
        graph: CallGraph,
        profiles: Mapping[str, FunctionProfile],
        rungs: tuple[int, ...],
    ):
        functions = graph.functions()
        seconds = _representatives(functions, profiles, rungs)
        by_name = sorted(seconds)
        cells = list(chain.from_iterable(map(seconds.__getitem__, by_name)))
        shift = time_shift(cells)
        flat = to_scaled(cells, shift)
        self.graph = graph
        self.rungs = rungs
        self.profiles = tuple(map(profiles.get, functions))
        self.seconds = seconds
        self.by_name = by_name
        self.shift = shift
        self.flat = flat
        self.scaled = dict(zip(by_name, zip(*[iter(flat)] * len(rungs))))
        self.trajectory = None
        self.answers = {}
        self.evaluators = []

    def borrow(self, scaled: Mapping[str, int]) -> tuple[GraphEvaluator, int]:
        """A free evaluator of the plan's graph, composed at ``scaled``, and
        the root's exact value there; one is built only when none is free.
        :meth:`~faastune.estimate.GraphEvaluator.evaluate_scaled` assigns
        every function and recomposes every group, so nothing of an earlier
        walk survives. The walk hands the evaluator back with
        ``evaluators.append`` when done (a walk that raises drops it).
        ``list.pop`` and ``list.append`` are single atomic steps, so
        concurrent walks never share an evaluator."""
        try:
            evaluator = self.evaluators.pop()
        except IndexError:
            evaluator = GraphEvaluator(self.graph)
        return evaluator, evaluator.evaluate_scaled(scaled)

    def reach(self, stop: float) -> tuple[int, int, float, int]:
        """A walk of the trajectory's ``order`` from the start until an
        estimate is within ``stop``, or to its end: the cells taken, the
        estimations made (the all-minimum one included), the first lowest
        estimate and the number of cells taken when it was reached.

        While every estimate so far exceeds ``stop``, one within it is a new
        minimum, so the walk stops at the first record within ``stop``."""
        trajectory = self.trajectory
        if trajectory is None:
            trajectory = self.trajectory = _Trajectory(self)
        estimates, taken = trajectory.estimates, trajectory.taken
        record = bisect_left(estimates, -stop, key=operator.neg)
        if record < len(estimates):
            return taken[record], trajectory.estimations[record], estimates[record], taken[record]
        # N*M cells, of which the N top-rung ones estimate nothing
        cells = len(self.flat)
        return cells, cells - len(self.by_name) + 1, estimates[-1], taken[-1]


#: The plan of the last instance searched. A new instance's plan replaces it
#: whole, once its table has built.
_last: _Plan | None = None


def _plan(
    graph: CallGraph,
    profiles: Mapping[str, FunctionProfile],
    rungs: tuple[int, ...],
) -> _Plan:
    """The memo's plan if it holds this instance (the same graph object,
    equal rungs and the same profile object for every function), else a new
    plan, which then replaces the memo."""
    global _last
    plan = _last
    if (
        plan is not None
        and plan.graph is graph
        and plan.rungs == rungs
        and all(map(operator.is_, map(profiles.get, graph.functions()), plan.profiles))
    ):
        return plan
    plan = _last = _Plan(graph, profiles, rungs)
    return plan


def _rungs_after(plan: _Plan, taken: int) -> dict[str, int]:
    """Each function's rung position, in execution order, once the first
    ``taken`` cells of the walked trajectory's ``order`` are taken from the
    all-minimum configuration."""
    rung = dict.fromkeys(plan.seconds, 0)
    trajectory, per_row = plan.trajectory, len(plan.rungs)
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
    plan: _Plan, taken: int, cost_model: CostModel
) -> tuple[dict[str, int], dict[str, int], int]:
    """The point a walk of ``plan``'s trajectory reaches with ``taken``
    cells: :func:`_rungs_after`, :func:`_units` there and their sum,
    memoized on the trajectory per ``(taken, cost_model)``. The dicts are
    shared, so callers copy before they change them."""
    key = (taken, cost_model)
    points = plan.trajectory.points
    point = points.get(key)
    if point is None:
        rung = _rungs_after(plan, taken)
        units = _units(rung, plan.seconds, plan.rungs, cost_model)
        point = points[key] = (rung, units, sum(units.values()))
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
    """The configuration where a walk to ``stop`` (:meth:`_Plan.reach`)
    first reaches its lowest estimate, or an empty result when that
    estimate misses the SLO; ``iterations`` counts the cells taken."""
    rungs = ladder.effective()
    plan = _plan(graph, profiles, rungs)
    taken, estimations, best_time, best = plan.reach(stop)
    if not best_time <= slo.slo_seconds:
        return SearchResult(algorithm, None, None, None, taken, estimations)
    rung, _, units = _point(plan, best, cost_model)
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
    configuration once more, on an evaluator borrowed from the plan
    (:meth:`_Plan.borrow`: the one the trajectory walked, when no other
    walk holds it), and walks the order again from there with every
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
    plan = _plan(graph, profiles, rungs)
    taken, estimations, time, _ = plan.reach(slo_seconds)
    if not time <= slo_seconds:
        return SearchResult("greedy-min-cost", None, None, None, taken, estimations)
    per_row = len(rungs)
    seconds, scaled, shift = plan.seconds, plan.scaled, plan.shift
    trajectory = plan.trajectory
    names, up = trajectory.names, trajectory.up
    rung, units, cost = _point(plan, taken, cost_model)
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
    evaluator, exact = plan.borrow({name: scaled[name][index] for name, index in rung.items()})
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
    plan.evaluators.append(evaluator)

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
    plan: _Plan, slo_seconds: float, cost_model: CostModel
) -> dict[Objective, tuple[dict[str, int], float, int] | None]:
    """Brute force's answer for every objective from one scan of the M^N
    configurations of ``plan``'s table, functions in name order: the first
    configuration that meets the SLO, the cheapest (the earlier on a tie)
    and the fastest by rounded estimate (an exact total that rounds to the
    same value does not replace the earlier one), each as its rung
    positions, its estimate and its cost units, or None when no
    configuration meets the SLO.

    The scan runs on an evaluator borrowed from the plan
    (:meth:`_Plan.borrow`) and turns the configuration like an odometer, the
    last function fastest. The first N-1 functions move through
    :meth:`~faastune.estimate.GraphEvaluator.set_scaled`; the last one
    stays at its lowest rung in the evaluator, and after each turn of the
    others :meth:`~faastune.estimate.GraphEvaluator.max_plus` prices all of
    its rungs, one add and one max each. A turn is skipped whole when its
    lowest estimate is known to miss the SLO, or when, with a feasible
    configuration found, none of its rungs could be cheaper or faster than
    the answers so far.
    """
    functions, seconds, rungs, shift = plan.by_name, plan.seconds, plan.rungs, plan.shift
    rows = list(plan.scaled.values())
    cost_units = cost_model.cost_units
    units = [list(map(cost_units, seconds[name], rungs)) for name in functions]
    evaluator, _ = plan.borrow({name: row[0] for name, row in plan.scaled.items()})
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
    plan.evaluators.append(evaluator)
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
    instance, SLO and cost model answers every objective, and the memo's
    plan keeps the answers, so asking for another objective scans nothing;
    every call still counts the full space (iterations and evaluations are
    exactly M^N). Raises :class:`MissingProfile` for the first function
    without a profile in execution order, as the greedy searches do, then
    :class:`SearchSpaceTooLarge` when M^N exceeds
    :data:`BRUTE_FORCE_LIMIT`, before scanning. ``objective`` may be given
    by value, and an unknown one raises ValueError before anything else.
    """
    objective = Objective(objective)
    rungs = ladder.effective()
    plan = _plan(graph, profiles, rungs)
    combinations = len(rungs) ** len(plan.by_name)
    key = (slo.slo_seconds, cost_model)
    answers = plan.answers.get(key)
    if answers is None:
        if combinations > BRUTE_FORCE_LIMIT:
            raise SearchSpaceTooLarge(combinations, BRUTE_FORCE_LIMIT)
        answers = plan.answers[key] = _scan(plan, slo.slo_seconds, cost_model)
    algorithm = f"brute-force-{objective.value}"
    answer = answers[objective]
    if answer is None:
        return SearchResult(algorithm, None, None, None, combinations, combinations)
    rung, estimate, units = answer
    return _found(algorithm, rung, estimate, units, rungs, cost_model, combinations, combinations)
