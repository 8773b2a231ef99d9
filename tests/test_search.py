import ast
import dataclasses
import functools
import gc
import itertools
import math
import operator
import pathlib
import random
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from faastune import (
    CallGraph,
    CostModel,
    FunctionNode,
    MemoryLadder,
    Objective,
    Sequence,
    SloSpec,
    brute_force,
    configuration_cost,
    estimate_cost,
    estimate_time,
    generate_app,
    greedy_min_cost,
    greedy_min_time,
    greedy_slo,
)
from faastune import search
from faastune.errors import MissingProfile, ProfileNotMonotone, SearchSpaceTooLarge
from faastune.model import DEFAULT_MEMORY_MB
from helpers import (
    PINNED_RECORDS_SHA256,
    exact_composition,
    heap_greedy_min_cost,
    heap_greedy_min_time,
    heap_greedy_slo,
    make_profile,
    messy_tree,
    pinned_records_digest,
    random_instance,
    random_monotone_profile,
    reference_brute_force,
    reference_greedy,
    rounded_once,
    schedule_end_to_end,
    walk_greedy_min_cost,
    walk_greedy_min_time,
    walk_greedy_slo,
)


def _single_function_setup(reps):
    graph = CallGraph(FunctionNode("f1"))
    ladder = MemoryLadder(values=tuple(sorted(reps)), cap_mb=None)
    return graph, {"f1": make_profile("f1", reps)}, ladder


# --- greedy feasibility search -------------------------------------------------


def test_forced_single_path():
    graph, profiles, ladder = _single_function_setup({128: 4.0, 256: 1.0})
    result = greedy_slo(graph, profiles, ladder, SloSpec(2.0))
    assert result.config == {"f1": 256}
    assert result.estimated_time_s == 1.0
    assert result.evaluations == 2


def test_loose_slo_returns_all_minimum_without_bumps():
    graph = generate_app(shape="demo3", seed=1).graph
    rungs = (128, 256)
    profiles = {f: make_profile(f, {128: 1.0, 256: 0.5}) for f in graph.functions()}
    result = greedy_slo(graph, profiles, MemoryLadder(values=rungs, cap_mb=None), SloSpec(100.0))
    assert result.config == {f: 128 for f in graph.functions()}
    assert result.iterations == 0
    assert result.evaluations == 1


def test_infeasible_slo_returns_empty_result():
    graph, profiles, ladder = _single_function_setup({128: 4.0, 256: 3.0})
    result = greedy_slo(graph, profiles, ladder, SloSpec(0.001))
    assert not result.found
    assert result.config is None
    assert result.estimated_time_s is None


def test_non_monotone_profiles_need_acknowledgement():
    """Every greedy search refuses a profile that gets slower with more
    memory; brute force takes it."""
    graph, profiles, ladder = _single_function_setup({128: 1.0, 256: 2.0})
    for greedy in (greedy_slo, greedy_min_cost, greedy_min_time):
        with pytest.raises(ProfileNotMonotone):
            greedy(graph, profiles, ladder, SloSpec(10.0))
    for objective in Objective:
        result = brute_force(graph, profiles, ladder, SloSpec(10.0), objective)
        assert result.config == {"f1": 128}


def test_profiles_must_cover_the_ladder():
    graph = CallGraph(FunctionNode("f1"))
    profiles = {"f1": make_profile("f1", {128: 1.0})}
    with pytest.raises(MissingProfile):
        greedy_slo(graph, profiles, MemoryLadder(values=(128, 256), cap_mb=None), SloSpec(1.0))


@pytest.mark.parametrize("slo,found", [(10.0, True), (1.0, False)],
                         ids=["feasible", "infeasible"])
def test_every_search_runs_on_a_one_rung_ladder(slo, found):
    """On a single rung the only configuration is the all-minimum one: every
    search estimates it once (min-cost counts it once more) and steps over
    each function's top-rung cell."""
    graph = generate_app(shape="demo3", seed=1).graph
    profiles = {f: make_profile(f, {128: 1.5}) for f in graph.functions()}
    ladder = MemoryLadder((128,), cap_mb=None)
    n = len(graph.functions())
    expected = {  # (iterations, evaluations) per search
        greedy_slo: (0 if found else n, 1),
        greedy_min_cost: (n, 2) if found else (n, 1),
        greedy_min_time: (n, 1),
    }
    runs = [*expected.items(), *((run, (1, 1)) for run in _brute_force_searches())]
    for run, counts in runs:
        result = run(graph, profiles, ladder, SloSpec(slo))
        assert (result.iterations, result.evaluations) == counts
        assert result.found is found
        if found:
            assert result.config == dict.fromkeys(graph.functions(), 128)
            assert result.estimated_time_s == estimate_time(graph, result.config, profiles)


def test_a_function_without_a_profile_raises_missing_profile():
    graph = generate_app(shape="demo3", seed=1).graph
    profiles = {f: make_profile(f, {128: 2.0, 256: 1.0}) for f in graph.functions()}
    del profiles["f2"]
    ladder = MemoryLadder((128, 256), cap_mb=None)
    for run in (greedy_slo, greedy_min_cost, greedy_min_time, *_brute_force_searches()):
        with pytest.raises(MissingProfile, match="f2"):
            run(graph, profiles, ladder, SloSpec(10.0))


def test_every_search_names_the_first_function_without_a_profile_in_execution_order():
    graph = CallGraph(Sequence((FunctionNode("f3"), FunctionNode("f1"), FunctionNode("f2"))))
    profiles = {"f2": make_profile("f2", {128: 2.0, 256: 1.0})}
    ladder = MemoryLadder((128, 256), cap_mb=None)
    for run in (greedy_slo, greedy_min_cost, greedy_min_time, *_brute_force_searches()):
        with pytest.raises(MissingProfile, match="'f3'"):
            run(graph, profiles, ladder, SloSpec(10.0))


def test_every_entry_point_gives_one_message_for_a_missing_profile():
    """Estimates, costs and searches all name only the function that has no
    profile; a profile that lacks a rung names its memory size as well."""
    graph = CallGraph(Sequence((FunctionNode("f1"), FunctionNode("f2"))))
    profiles = {"f1": make_profile("f1", {128: 2.0, 256: 1.0})}
    ladder = MemoryLadder((128, 256), cap_mb=None)
    config = dict.fromkeys(graph.functions(), 128)
    runs = [
        lambda: estimate_time(graph, config, profiles),
        lambda: estimate_cost(graph, config, profiles, CostModel()),
        lambda: configuration_cost(config, profiles, CostModel()),
        *(functools.partial(run, graph, profiles, ladder, SloSpec(10.0))
          for run in (greedy_slo, greedy_min_cost, greedy_min_time, *_brute_force_searches())),
    ]
    for run in runs:
        with pytest.raises(MissingProfile, match="^no profile for function 'f2'$"):
            run()
    profiles["f2"] = make_profile("f2", {128: 2.0})
    config["f2"] = 256
    for run in runs:
        with pytest.raises(MissingProfile, match="^no profile for function 'f2' at 256 MB$"):
            run()


def _brute_force_searches():
    return [functools.partial(brute_force, objective=objective) for objective in Objective]


@pytest.mark.parametrize("rung", range(3))
def test_nan_representative_fails_before_any_estimate(rung):
    """A NaN cell raises ValueError naming the function and memory size at
    every rung when its profile is built, so no search can be handed one.
    A NaN compares false with everything, so it used to pass the monotone
    check: with NaN at the lowest rung the greedy searches returned a
    configuration."""
    rungs = (128, 256, 512)
    reps = {128: 3.0, 256: 2.0, 512: 1.0}
    reps[rungs[rung]] = math.nan
    with pytest.raises(ValueError, match=f"'f2' at {rungs[rung]} MB is NaN"):
        make_profile("f2", reps)


@pytest.mark.parametrize("value", [math.inf, -math.inf, -1.0, -0.5e-9],
                         ids=["inf", "minus-inf", "negative", "barely-negative"])
@pytest.mark.parametrize("rung", range(3))
def test_infinite_or_negative_representative_fails_before_any_estimate(value, rung):
    """An infinite or negative cell raises ValueError naming the function,
    the memory size and the value at every rung when its profile is built,
    so no search can be handed one. The greedy searches used to call an
    infinite table infeasible, and a negative cell failed only after the
    walk, in ``CostModel.cost_units``."""
    rungs = (128, 256, 512)
    reps = {128: 3.0, 256: 2.0, 512: 1.0}
    reps[rungs[rung]] = value
    message = f"'f2' at {rungs[rung]} MB is {value!r}, not finite and non-negative"
    with pytest.raises(ValueError, match=message):
        make_profile("f2", reps)


def test_a_finite_table_whose_sum_overflows_is_searched():
    """Cells of 1e308 sum past the float range, but each is a duration: the
    table passes the check, and on a chain whose estimate overflows every
    greedy search reports the SLO infeasible."""
    graph = generate_app(3, shape="chain", seed=1).graph
    rungs = (128, 256)
    profiles = {f: make_profile(f, {128: 1e308, 256: 1e308}) for f in graph.functions()}
    assert search._representatives(graph.functions(), profiles, rungs) == {
        f: (1e308, 1e308) for f in graph.functions()
    }
    ladder = MemoryLadder(values=rungs, cap_mb=None)
    for greedy in (greedy_slo, greedy_min_cost, greedy_min_time):
        assert not greedy(graph, profiles, ladder, SloSpec(10.0)).found


def test_a_table_from_the_smallest_subnormal_to_1e308_is_searched_exactly():
    """A table spanning 5e-324 to 1e308 scales by 2**1126, past the float
    range for 1e308, so its integers come from the exact fallback; every
    greedy search still gives what the walk that sorts and walks its own
    order gives, and each estimate is the exact composition rounded once.
    Brute force bills every cell, and a cell bills a finite tick count only
    below about 1.8e305 s, so it scans the table with 1e305 in place of
    1e308, which needs the fallback too."""
    graph = generate_app(4, shape="random", seed=2).graph
    rungs = (128, 256, 512)
    ladder = MemoryLadder(values=rungs, cap_mb=None)
    rows = ((1e308, 1e300, 5e-324), (2.0, 1e-300, 0.0), (1e308, 1.0, 5e-324), (3.0, 3.0, 1e-323))
    for top in (1e308, 1e305):
        profiles = {f: make_profile(f, {m: top if s == 1e308 else s for m, s in zip(rungs, row)})
                    for f, row in zip(graph.functions(), rows)}
        plan = search._Plan(graph, profiles, rungs)
        assert plan.shift == 1126 and plan.scaled[graph.functions()[0]][0] == Fraction(top) * 2**1126
        for slo in (SloSpec(1e-300), SloSpec(2.5), SloSpec(1e300)):
            if top == 1e308:
                for run, reference in WALK_REFERENCES:
                    result = run(graph, profiles, ladder, slo)
                    assert result.to_record() == reference(graph, profiles, ladder, slo).to_record()
                    assert result.found
                    times = {f: profiles[f].representative(m) for f, m in result.config.items()}
                    assert result.estimated_time_s == rounded_once(
                        exact_composition(graph.root, times))
                continue
            for objective in Objective:
                result = brute_force(graph, profiles, ladder, slo, objective)
                assert result.found
                assert result.estimated_time_s == estimate_time(graph, result.config, profiles)


#: Representatives at the edges of the float range (see test_estimate).
_EDGE_SECONDS = (0.0, -0.0, 5e-324, 1e-300, 1e308)


@st.composite
def _edge_tables(draw):
    """A chain of up to 400 functions or a random graph of up to 12, on a
    ladder of 1-4 rungs, with non-increasing rows drawn from
    :data:`_EDGE_SECONDS` and all finite non-negative floats."""
    if draw(st.booleans()):
        graph = _chain(draw(st.integers(2, 400)))
    else:
        graph = generate_app(n_functions=draw(st.integers(1, 12)), shape="random",
                             seed=draw(st.integers(0, 2**31 - 1))).graph
    per_row = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from(_EDGE_SECONDS), st.floats(min_value=0.0, allow_infinity=False))
    row = st.lists(value, min_size=per_row, max_size=per_row)
    seconds = {f: tuple(sorted(draw(row), reverse=True)) for f in graph.functions()}
    return graph, seconds


@settings(max_examples=60, deadline=None)
@given(_edge_tables())
def test_a_trajectorys_records_equal_fresh_evaluations(table):
    """Every record of a plan's walk equals a fresh exact evaluation, rounded
    once, of the configuration it was reached at, and the records fall
    strictly."""
    graph, seconds = table
    rungs = DEFAULT_MEMORY_MB[:len(next(iter(seconds.values())))]
    profiles = {name: make_profile(name, dict(zip(rungs, row))) for name, row in seconds.items()}
    plan = search._Plan(graph, profiles, rungs)
    plan.reach(-math.inf)
    trajectory = plan.trajectory
    assert all(map(operator.gt, trajectory.estimates, trajectory.estimates[1:]))
    per_row = len(rungs)
    for estimate, taken in zip(trajectory.estimates, trajectory.taken):
        # Replayed here, not through ``search._point``: it also prices the
        # point, and a 1e308 s cell bills no finite number of ticks.
        times = {name: row[0] for name, row in seconds.items()}
        for cell in trajectory.order[:taken]:
            if trajectory.up[cell] is not None:
                name = trajectory.names[cell]
                times[name] = seconds[name][cell % per_row + 1]
        assert estimate.hex() == rounded_once(exact_composition(graph.root, times)).hex()


def test_heap_always_pops_the_current_maximum():
    rng = random.Random(2)
    for _ in range(60):
        graph, profiles, ladder, slo = random_instance(rng)
        result = greedy_slo(graph, profiles, ladder, slo)
        assert (result.config, result.iterations) == reference_greedy(
            graph, profiles, ladder, slo
        )


def test_heap_ties_break_on_function_name():
    graph = generate_app(shape="demo3", seed=1).graph
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    profiles = {f: make_profile(f, {128: 5.0, 256: 1.0}) for f in graph.functions()}
    for slo in (SloSpec(12.0), SloSpec(8.0), SloSpec(3.5), SloSpec(1.0)):  # 1-3 bumps, none
        result = greedy_slo(graph, profiles, ladder, slo)
        assert (result.config, result.iterations) == reference_greedy(graph, profiles, ladder, slo)
    assert greedy_slo(graph, profiles, ladder, SloSpec(8.0)).config == {
        "f1": 256, "f2": 256, "f3": 128
    }


# --- the sorted bump order against the heap it replaced ---------------------------

#: Representatives the tie property draws from: few values, so rows tie
#: within themselves and across functions, and zeros occur.
TIED_VALUES = (0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def tied_instances(draw):
    """A random or chain graph of 1-12 functions on a ladder of 2-5 rungs,
    with non-increasing rows drawn from :data:`TIED_VALUES` and an SLO at,
    just inside or just outside the feasibility boundary."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(("random", "chain")))
    graph = generate_app(n_functions=n, shape=shape, seed=draw(st.integers(0, 2**31 - 1))).graph
    rungs = tuple(sorted(draw(
        st.lists(st.sampled_from(DEFAULT_MEMORY_MB), min_size=2, max_size=5, unique=True)
    )))
    row = st.lists(st.sampled_from(TIED_VALUES), min_size=len(rungs), max_size=len(rungs))
    profiles = {
        f: make_profile(f, dict(zip(rungs, sorted(draw(row), reverse=True))))
        for f in graph.functions()
    }
    all_min = estimate_time(graph, dict.fromkeys(graph.functions(), rungs[0]), profiles)
    all_max = estimate_time(graph, dict.fromkeys(graph.functions(), rungs[-1]), profiles)
    slos = [s for s in (all_max - 0.5, all_max, all_max + 0.5, (all_min + all_max) / 2, all_min)
            if s > 0]
    slo = SloSpec(draw(st.sampled_from(slos or [0.5])))
    return graph, profiles, MemoryLadder(values=rungs, cap_mb=None), slo


HEAP_REFERENCES = (
    (greedy_slo, heap_greedy_slo),
    (greedy_min_cost, heap_greedy_min_cost),
    (greedy_min_time, heap_greedy_min_time),
)


def _differs_from_heap(instance) -> bool:
    return any(
        run(*instance).to_record() != reference(*instance).to_record()
        for run, reference in HEAP_REFERENCES
    )


@given(tied_instances())
@settings(max_examples=300, deadline=None)
def test_sorted_order_walks_as_the_heap_popped(instance):
    for run, reference in HEAP_REFERENCES:
        assert run(*instance).to_record() == reference(*instance).to_record()


def test_tie_property_catches_ties_broken_on_rung_first(monkeypatch):
    """The tied instances tell the name-then-rung tie-break from a rung-first
    one: a walk that puts equal representatives in rung, then name order
    differs from the heap somewhere."""
    name_first = search._bump_order

    def rung_first(plan):
        order, names, up = name_first(plan)
        per_row = len(plan.rungs)

        def key(cell):  # cells are numbered by name, then rung
            return -plan.flat[cell], cell % per_row, cell

        order.sort(key=key)
        return order, names, up

    monkeypatch.setattr(search, "_bump_order", rung_first)
    monkeypatch.setattr(search, "_last", None)  # no trajectory walked in the old order
    find(tied_instances(), _differs_from_heap,
         settings=settings(max_examples=300, derandomize=True, database=None,
                           phases=(Phase.generate,)))


# --- one trajectory per instance, shared by the greedy searches -------------------

WALK_REFERENCES = (
    (greedy_slo, walk_greedy_slo),
    (greedy_min_cost, walk_greedy_min_cost),
    (greedy_min_time, walk_greedy_min_time),
)


def _three_slos(graph, profiles, ladder):
    """An infeasible SLO, one between the all-max and all-min estimates, and
    one at the all-max estimate, the greedy's feasibility boundary; positive
    ones only, or 0.5 when none is."""
    rungs = ladder.effective()
    all_min = estimate_time(graph, dict.fromkeys(graph.functions(), rungs[0]), profiles)
    all_max = estimate_time(graph, dict.fromkeys(graph.functions(), rungs[-1]), profiles)
    slos = [s for s in (all_max / 2, (all_min + all_max) / 2, all_max) if s > 0]
    return [SloSpec(s) for s in slos or [0.5]]


def _check_every_call_order(graph, profiles, ladder):
    """All 6 orders of the three greedy searches, each order over three SLOs
    from a cleared memo, give the records of the walk that sorts and walks
    its own order per call."""
    slos = _three_slos(graph, profiles, ladder)
    expected = {
        (run, slo): reference(graph, profiles, ladder, slo).to_record()
        for run, reference in WALK_REFERENCES for slo in slos
    }
    for calls in itertools.permutations([run for run, _ in WALK_REFERENCES]):
        search._last = None
        for slo in slos:
            for run in calls:
                assert run(graph, profiles, ladder, slo).to_record() == expected[run, slo]


def test_trajectory_searches_give_the_walks_records_in_any_call_order():
    rng = random.Random(23)
    for _ in range(150):
        graph, profiles, ladder, _ = random_instance(rng)
        _check_every_call_order(graph, profiles, ladder)


@given(tied_instances())
@settings(max_examples=100, deadline=None)
def test_trajectory_searches_give_the_walks_records_on_tied_tables(instance):
    graph, profiles, ladder, _ = instance
    _check_every_call_order(graph, profiles, ladder)


def _chain(n):
    return generate_app(n_functions=n, shape="chain", seed=1).graph


def test_memo_sees_a_profile_changed_in_place():
    """A profile is read-only, so a table changes in place by holding a new
    profile object for a function; the memo keys on profile objects and
    walks anew."""
    graph = _chain(3)
    rungs = (128, 256, 512)
    profiles = {f: make_profile(f, {128: 3.0, 256: 2.0, 512: 1.0}) for f in graph.functions()}
    ladder = MemoryLadder(values=rungs, cap_mb=None)
    slo = SloSpec(7.0)
    assert greedy_slo(graph, profiles, ladder, slo).config == {"f1": 256, "f2": 256, "f3": 128}
    with pytest.raises(TypeError):
        profiles["f1"].representatives[256] = 1.0
    profiles["f1"] = dataclasses.replace(profiles["f1"], representatives={128: 3.0, 256: 1.0, 512: 1.0})
    for run, reference in WALK_REFERENCES:
        assert run(graph, profiles, ladder, slo).to_record() == reference(
            graph, profiles, ladder, slo).to_record()
    assert greedy_slo(graph, profiles, ladder, slo).config == {"f1": 256, "f2": 128, "f3": 128}


def test_memo_sees_a_changed_ladder():
    """A table holding one float object in every cell gives the same cell
    objects on every ladder: only the rungs tell (128, 256) from (128, 256,
    512) there."""
    graph = _chain(3)
    rng = random.Random(24)
    tables = (
        {f: random_monotone_profile(f, DEFAULT_MEMORY_MB, rng) for f in graph.functions()},
        {f: make_profile(f, dict.fromkeys(DEFAULT_MEMORY_MB, 1.5)) for f in graph.functions()},
    )
    ladders = [MemoryLadder(values=rungs, cap_mb=None)
               for rungs in ((128, 256), (128, 256, 512), (256, 512), (128, 256))]
    for profiles in tables:
        for ladder in ladders:
            for slo in _three_slos(graph, profiles, ladder):
                for run, reference in WALK_REFERENCES:
                    assert run(graph, profiles, ladder, slo).to_record() == reference(
                        graph, profiles, ladder, slo).to_record()


def test_memo_keys_on_the_graph_object_not_an_equal_graph():
    rng = random.Random(25)
    first, second = _chain(4), _chain(4)
    assert first == second and first is not second
    profiles = {f: random_monotone_profile(f, (128, 256), rng) for f in first.functions()}
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    slo = _three_slos(first, profiles, ladder)[1]
    for graph in (first, second):
        for run, reference in WALK_REFERENCES:
            assert run(graph, profiles, ladder, slo).to_record() == reference(
                graph, profiles, ladder, slo).to_record()
        assert search._last.graph is graph


def test_memo_prices_each_cost_model_apart():
    """The point a search stops at is priced once per cost model: on the
    same instance, a coarser billing tick gives the fresh walk's records."""
    rng = random.Random(30)
    graph = _chain(4)
    profiles = {f: random_monotone_profile(f, MemoryLadder().effective(), rng)
                for f in graph.functions()}
    ladder = MemoryLadder()
    slo = _three_slos(graph, profiles, ladder)[1]
    costs = set()
    for cost_model in (CostModel(), CostModel(billing_granularity_ms=100), CostModel()):
        for run, reference in WALK_REFERENCES:
            record = run(graph, profiles, ladder, slo, cost_model).to_record()
            assert record == reference(graph, profiles, ladder, slo, cost_model).to_record()
            costs.add(record["estimated_cost_usd"])
    assert len(costs) > 3


def test_a_memo_hit_returns_what_a_fresh_walk_returns():
    """A repeat search on the same graph and profile objects reads the
    memo's plan, and returns what the same search returns from a cleared memo and
    what the walk that sorts and walks its own order returns. The tables
    hold zeros of both signs; an exact composition has no signed zero, so
    every estimate of zero reads +0.0."""
    graph = CallGraph(Sequence((FunctionNode("f1"), FunctionNode("f2"))))
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    slo = SloSpec(2.0)
    for zero in (0.0, -0.0):
        profiles = {"f1": make_profile("f1", {128: 1.0, 256: zero}),
                    "f2": make_profile("f2", {128: zero, 256: -zero})}
        for run, reference in WALK_REFERENCES:
            search._last = None
            fresh = run(graph, profiles, ladder, slo)
            plan = search._last
            hit = run(graph, profiles, ladder, slo)
            assert search._last is plan
            assert hit.to_record() == fresh.to_record() == reference(
                graph, profiles, ladder, slo).to_record()
        assert greedy_min_time(graph, profiles, ladder, slo).estimated_time_s.hex() == "0x0.0p+0"


@given(tied_instances())
@settings(max_examples=100, deadline=None)
def test_min_time_on_a_monotone_table_is_the_all_max_estimate(instance):
    """Rounded ``+`` and ``max`` never rise when an argument falls, so the
    walk never rises and ends at its minimum, the all-max estimate."""
    graph, profiles, ladder, slo = instance
    top = ladder.effective()[-1]
    all_max = estimate_time(graph, dict.fromkeys(graph.functions(), top), profiles)
    fastest = greedy_min_time(graph, profiles, ladder, SloSpec(max(all_max, 0.5)))
    assert fastest.estimated_time_s.hex() == all_max.hex()


def test_min_time_on_random_instances_is_the_all_max_estimate():
    rng = random.Random(26)
    for _ in range(300):
        graph, profiles, ladder, _ = random_instance(rng)
        top = ladder.effective()[-1]
        all_max = estimate_time(graph, dict.fromkeys(graph.functions(), top), profiles)
        fastest = greedy_min_time(graph, profiles, ladder, SloSpec(all_max))
        assert fastest.estimated_time_s.hex() == all_max.hex()


def test_searches_after_the_first_on_an_instance_walk_nothing(monkeypatch):
    """Once ``greedy_slo`` has walked an instance, ``greedy_min_time`` and
    ``greedy_slo`` at another SLO estimate nothing, and min-cost estimates
    only its second phase: its feasible point once, then one ``set_scaled``
    per trial and at most one more to undo it. None of them builds the table of
    representatives again, and min-cost starts from ``greedy_slo``'s priced
    point: past its own first point, each search prices only min-cost's
    trials."""
    calls = {"evaluate": 0, "set": 0}
    built = {"tables": 0, "units": 0}
    evaluate, set_scaled = search.GraphEvaluator.evaluate_scaled, search.GraphEvaluator.set_scaled
    representatives, cost_units = search._representatives, CostModel.cost_units

    def counting_evaluate(self, scaled):
        calls["evaluate"] += 1
        return evaluate(self, scaled)

    def counting_set(self, function, value):
        calls["set"] += 1
        return set_scaled(self, function, value)

    def counting_representatives(*args):
        built["tables"] += 1
        return representatives(*args)

    def counting_cost_units(self, duration_s, memory_mb):
        built["units"] += 1
        return cost_units(self, duration_s, memory_mb)

    monkeypatch.setattr(search.GraphEvaluator, "evaluate_scaled", counting_evaluate)
    monkeypatch.setattr(search.GraphEvaluator, "set_scaled", counting_set)
    monkeypatch.setattr(search, "_representatives", counting_representatives)
    monkeypatch.setattr(CostModel, "cost_units", counting_cost_units)
    graph = generate_app(n_functions=40, shape="random", seed=3).graph
    rungs = MemoryLadder().effective()
    rng = random.Random(27)
    profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
    ladder = MemoryLadder()
    _, loose, tight = _three_slos(graph, profiles, ladder)

    calls.update(evaluate=0, set=0)
    base = greedy_slo(graph, profiles, ladder, loose)
    assert base.found and calls == {"evaluate": 1, "set": len(rungs[1:]) * 40}
    assert built == {"tables": 1, "units": 40}
    # min-time's point lies past greedy_slo's and is priced on its first
    # call only; greedy_slo at the tight SLO stops at that point too.
    for run, slo, units in ((greedy_min_time, loose, 40), (greedy_slo, tight, 0),
                            (greedy_slo, loose, 0)):
        calls.update(evaluate=0, set=0)
        built.update(tables=0, units=0)
        run(graph, profiles, ladder, slo)
        assert calls == {"evaluate": 0, "set": 0}
        assert built == {"tables": 0, "units": units}
    for _ in range(2):
        calls.update(evaluate=0, set=0)
        built.update(tables=0, units=0)
        cheap = greedy_min_cost(graph, profiles, ladder, loose)
        trials = cheap.evaluations - base.evaluations - 1
        assert trials > 0 and calls["evaluate"] == 1
        assert trials <= calls["set"] <= 2 * trials
        assert built == {"tables": 0, "units": trials}
        built.update(tables=0, units=0)
        greedy_min_time(graph, profiles, ladder, loose)
        assert built == {"tables": 0, "units": 0}


def test_threads_alternating_two_instances_give_the_serial_records():
    """The memo slot is replaced whole, so two threads searching two
    instances in turn read a consistent slot and get the serial records."""
    rng = random.Random(28)
    rungs = MemoryLadder().effective()
    instances = []
    for shape in ("chain", "random"):
        graph = generate_app(n_functions=60, shape=shape, seed=rng.randrange(2**31)).graph
        profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
        for slo in _three_slos(graph, profiles, MemoryLadder()):
            instances.append((graph, profiles, MemoryLadder(), slo))
    tasks = [(WALK_REFERENCES[i % 3], instances[(i % 2) * 3 + i // 2 % 3]) for i in range(100)]
    expected = [reference(*instance).to_record() for (_, reference), instance in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        search._last = None
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run, *instance) for (run, _), instance in tasks]
            records = [future.result(timeout=60).to_record() for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert records == expected


def test_eight_threads_on_two_instances_give_the_serial_results():
    """Eight threads each run the three greedy searches and every
    brute-force objective on two instances in turn, switching threads every
    microsecond: every result equals the single-threaded one, and every
    thread has ended within 2 s."""
    rng = random.Random(31)
    ladder = MemoryLadder()
    instances = []
    for shape, n in (("random", 5), ("chain", 4)):
        graph = generate_app(n_functions=n, shape=shape, seed=rng.randrange(2**31)).graph
        profiles = {f: random_monotone_profile(f, ladder.effective(), rng)
                    for f in graph.functions()}
        instances.append((graph, profiles, ladder, _three_slos(graph, profiles, ladder)[1]))
    searches = (greedy_slo, greedy_min_cost, greedy_min_time, *_brute_force_searches())
    search._last = None
    expected = [[run(*instance) for run in searches] for instance in instances]
    results: list[list] = [[] for _ in range(8)]
    failures = []

    def work(first, out):
        try:
            for turn in range(4):
                out.append([run(*instances[(first + turn) % 2]) for run in searches])
        except Exception as error:  # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        search._last = None
        threads = [threading.Thread(target=work, args=(i % 2, results[i])) for i in range(8)]
        deadline = time.monotonic() + 2.0
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    for i, out in enumerate(results):
        assert out == [expected[(i % 2 + turn) % 2] for turn in range(4)]


@pytest.mark.parametrize("objective", Objective)
def test_equal_searches_give_equal_results(objective):
    """A result is a plain value: the same search on the same instance gives
    an equal result, found or not."""
    graph = generate_app(shape="demo6", seed=2).graph
    rungs = MemoryLadder().effective()
    rng = random.Random(2)
    profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
    all_max = estimate_time(graph, dict.fromkeys(graph.functions(), rungs[-1]), profiles)
    searches = (greedy_slo, greedy_min_cost, greedy_min_time,
                lambda *instance: brute_force(*instance, objective))
    for slo, found in ((SloSpec(1.5 * all_max), True), (SloSpec(0.5 * all_max), False)):
        for run in searches:
            first = run(graph, profiles, MemoryLadder(), slo)
            assert first.found is found
            assert run(graph, profiles, MemoryLadder(), slo) == first


def test_results_identical_to_fresh_estimates_and_deterministic():
    rng = random.Random(3)
    for _ in range(40):
        graph, profiles, ladder, slo = random_instance(rng)
        first = greedy_slo(graph, profiles, ladder, slo)
        again = greedy_slo(graph, profiles, ladder, slo)
        assert first.to_record() == again.to_record()
        if first.found:
            # incremental evaluation must equal a fresh recursive estimate, bit for bit
            assert first.estimated_time_s == estimate_time(graph, first.config, profiles)


def test_evaluation_bound_holds():
    rng = random.Random(4)
    for _ in range(50):
        graph, profiles, ladder, slo = random_instance(rng)
        result = greedy_slo(graph, profiles, ladder, slo)
        n = len(graph.functions())
        m = len(ladder.effective())
        assert result.evaluations <= n * (m - 1) + 1


# --- min-cost variant ----------------------------------------------------------


def test_halving_time_for_double_memory_is_accepted():
    # cost unchanged, time halves: the trade is worth it and is taken
    graph, profiles, ladder = _single_function_setup({128: 4.0, 256: 2.0, 512: 1.0})
    result = greedy_min_cost(graph, profiles, ladder, SloSpec(4.0))
    assert result.config == {"f1": 512}
    assert result.estimated_time_s == 1.0


def test_flat_latency_function_is_frozen_immediately():
    graph, profiles, ladder = _single_function_setup({128: 0.3, 256: 0.3, 512: 0.3})
    result = greedy_min_cost(graph, profiles, ladder, SloSpec(1.0))
    assert result.config == {"f1": 128}  # any bump costs more and buys nothing


def test_min_cost_never_beats_feasibility_search_on_cost():
    rng = random.Random(5)
    for _ in range(60):
        graph, profiles, ladder, slo = random_instance(rng)
        base = greedy_slo(graph, profiles, ladder, slo)
        cheap = greedy_min_cost(graph, profiles, ladder, slo)
        assert base.found == cheap.found
        if base.found:
            assert cheap.estimated_cost_usd <= base.estimated_cost_usd
            assert cheap.estimated_time_s <= slo.slo_seconds


def test_min_cost_propagates_infeasibility():
    graph, profiles, ladder = _single_function_setup({128: 4.0, 256: 3.0})
    assert not greedy_min_cost(graph, profiles, ladder, SloSpec(0.01)).found


# --- min-time variant ----------------------------------------------------------


def test_min_time_converges_to_hand_enumerated_optimum():
    graph, profiles, ladder = _single_function_setup(
        {128: 4.0, 256: 2.0, 512: 1.5, 1024: 1.5}
    )
    result = greedy_min_time(graph, profiles, ladder, SloSpec(4.0))
    assert result.config == {"f1": 512}  # smallest memory reaching the 1.5 s floor
    assert result.estimated_time_s == 1.5


def test_min_time_estimate_is_the_tightest_slo_the_greedy_meets():
    """``greedy_slo`` meets the SLO that ``greedy_min_time`` reaches, at the
    same configuration, and misses the next smaller float: the walk stops
    at the first estimate within the SLO, which is the first minimum."""
    rng = random.Random(22)
    for _ in range(500):
        graph, profiles, ladder, _ = random_instance(rng)
        all_min = dict.fromkeys(graph.functions(), ladder.effective()[0])
        fastest = greedy_min_time(graph, profiles, ladder,
                                  SloSpec(estimate_time(graph, all_min, profiles)))
        tightest = fastest.estimated_time_s
        met = greedy_slo(graph, profiles, ladder, SloSpec(tightest))
        assert met.found and met.config == fastest.config
        assert met.estimated_time_s == tightest
        below = math.nextafter(tightest, 0)
        if below > 0:
            assert not greedy_slo(graph, profiles, ladder, SloSpec(below)).found


def test_min_time_never_slower_than_base():
    rng = random.Random(6)
    for _ in range(60):
        graph, profiles, ladder, slo = random_instance(rng)
        base = greedy_slo(graph, profiles, ladder, slo)
        fast = greedy_min_time(graph, profiles, ladder, slo)
        assert base.found == fast.found
        if base.found:
            assert fast.estimated_time_s <= base.estimated_time_s
            assert fast.estimated_time_s <= slo.slo_seconds


# --- brute force -----------------------------------------------------------------


@pytest.mark.parametrize("n,m,expected", [(1, 4, 4), (3, 4, 64)])
def test_brute_force_scans_exactly_m_to_the_n(n, m, expected):
    graph = generate_app(n_functions=n, shape="chain", seed=1).graph
    rungs = (128, 256, 512, 1024)[:m]
    rng = random.Random(7)
    profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
    result = brute_force(
        graph, profiles, MemoryLadder(values=rungs, cap_mb=None), SloSpec(1e9)
    )
    assert result.evaluations == expected


def test_brute_force_min_cost_on_flat_profiles_picks_all_minimum():
    graph = generate_app(shape="demo3", seed=1).graph
    rungs = (128, 256, 512, 1024)
    profiles = {f: make_profile(f, {m: 0.4 for m in rungs}) for f in graph.functions()}
    result = brute_force(
        graph, profiles, MemoryLadder(values=rungs, cap_mb=None), SloSpec(10.0),
        objective=Objective.MIN_COST,
    )
    assert result.config == {f: 128 for f in graph.functions()}


def test_brute_force_tie_breaks_to_lexicographically_smallest_vector():
    # flat latency: every configuration ties on time, so the lexicographically
    # smallest memory vector must win
    graph = generate_app(shape="demo3", seed=1).graph
    rungs = (128, 256)
    profiles = {f: make_profile(f, {128: 1.0, 256: 1.0}) for f in graph.functions()}
    result = brute_force(
        graph, profiles, MemoryLadder(values=rungs, cap_mb=None), SloSpec(10.0),
        objective=Objective.MIN_TIME,
    )
    assert result.config == {f: 128 for f in graph.functions()}


def test_space_guard_trips_before_scanning(monkeypatch):
    # 5^11 ~ 4.9e7 combinations: above the limit, so nothing may be scanned
    graph = generate_app(n_functions=11, shape="chain", seed=1).graph
    rungs = (128, 256, 512, 1024, 2048)
    rng = random.Random(8)
    profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
    ladder = MemoryLadder(values=rungs, cap_mb=None)

    def no_scan(graph):
        raise AssertionError("brute force started scanning past the guard")

    monkeypatch.setattr(search, "GraphEvaluator", no_scan)
    with pytest.raises(SearchSpaceTooLarge) as caught:
        brute_force(graph, profiles, ladder, SloSpec(1.0))
    assert caught.value.combinations == 5**11 > search.BRUTE_FORCE_LIMIT == 10**7


def _demo3_instance():
    graph = generate_app(shape="demo3", seed=1).graph
    rungs = MemoryLadder().effective()
    rng = random.Random(29)
    profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
    all_max = estimate_time(graph, dict.fromkeys(graph.functions(), rungs[-1]), profiles)
    return graph, profiles, MemoryLadder(), SloSpec(1.5 * all_max)


@pytest.mark.parametrize("objective", Objective)
def test_brute_force_takes_its_objective_by_value(objective):
    instance = _demo3_instance()
    by_value = brute_force(*instance, objective.value)
    assert by_value.found and by_value.algorithm == f"brute-force-{objective.value}"
    assert by_value.to_record() == brute_force(*instance, objective).to_record()


def test_brute_force_rejects_an_unknown_objective_before_scanning(monkeypatch):
    calls = {"set": 0}
    set_scaled = search.GraphEvaluator.set_scaled

    def counting_set(self, function, value):
        calls["set"] += 1
        return set_scaled(self, function, value)

    monkeypatch.setattr(search.GraphEvaluator, "set_scaled", counting_set)
    with pytest.raises(ValueError, match="'bogus' is not a valid Objective"):
        brute_force(*_demo3_instance(), "bogus")
    assert calls["set"] == 0


def test_brute_force_matches_independent_enumeration():
    rng = random.Random(9)
    cost_model = CostModel()
    for _ in range(25):
        graph, profiles, ladder, slo = random_instance(rng)
        rungs = ladder.effective()
        functions = sorted(graph.functions())
        best_time, best_cost, any_feasible = None, None, False
        for assignment in itertools.product(rungs, repeat=len(functions)):
            config = dict(zip(functions, assignment))
            t = schedule_end_to_end(graph, {
                f: profiles[f].representative(m) for f, m in config.items()
            })
            if t > slo.slo_seconds:
                continue
            any_feasible = True
            c = configuration_cost(config, profiles, cost_model)
            best_time = t if best_time is None else min(best_time, t)
            best_cost = c if best_cost is None else min(best_cost, c)
        moet = brute_force(graph, profiles, ladder, slo, Objective.MIN_TIME)
        moc = brute_force(graph, profiles, ladder, slo, Objective.MIN_COST)
        assert moet.found == any_feasible == moc.found
        if any_feasible:
            assert moet.estimated_time_s == pytest.approx(best_time, rel=1e-12)
            assert moc.estimated_cost_usd == pytest.approx(best_cost, rel=1e-12)


#: Representatives the one-scan property draws from, in any order along the
#: ladder: integers, so times and costs tie, and 2**-60 s, which vanishes
#: when rounded beside 1 s or more, so distinct exact totals round to one
#: estimate.
ORACLE_VALUES = (0.0, 1.0, 2.0, 3.0, 2.0**-60)

#: The default cost model and one whose 700 ms tick bills 1, 2 and 3 s as 2,
#: 3 and 5 ticks, so the cheapest configuration can differ between them.
ORACLE_COST_MODELS = (CostModel(), CostModel(billing_granularity_ms=700))


@st.composite
def oracle_instances(draw):
    """A random, chain or messy graph of 1-5 functions on a ladder of 1-5
    rungs, with non-monotone rows drawn from :data:`ORACLE_VALUES`, and two
    SLOs from 0.5 s to just past the largest possible estimate, so either
    may fall on either side of feasibility. A messy graph places its names
    in random order, so the last by name, which the scan prices from one
    path walk, often sits under a parallel group."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(("random", "chain", "messy")))
    seed = draw(st.integers(0, 2**31 - 1))
    if shape == "messy":
        rng = random.Random(seed)
        names = [f"f{i}" for i in range(1, n + 1)]
        rng.shuffle(names)
        graph = CallGraph(messy_tree(rng, names))
    else:
        graph = generate_app(n_functions=n, shape=shape, seed=seed).graph
    rungs = tuple(sorted(draw(
        st.lists(st.sampled_from(DEFAULT_MEMORY_MB), min_size=1, max_size=5, unique=True)
    )))
    row = st.lists(st.sampled_from(ORACLE_VALUES), min_size=len(rungs), max_size=len(rungs))
    profiles = {f: make_profile(f, dict(zip(rungs, draw(row)))) for f in graph.functions()}
    slo = st.builds(SloSpec, st.sampled_from([k / 2 for k in range(1, 2 * 3 * n + 2)]))
    return graph, profiles, MemoryLadder(values=rungs, cap_mb=None), (draw(slo), draw(slo))


def _bits_record(result):
    """``result``'s record with its estimate and cost as hex strings."""
    record = result.to_record()
    for key in ("estimated_time_s", "estimated_cost_usd"):
        if record[key] is not None:
            record[key] = record[key].hex()
    return record


@given(oracle_instances(), st.permutations(list(Objective)))
@settings(max_examples=150, deadline=None)
def test_one_scan_answers_every_objective_as_the_single_objective_loop(instance, order):
    """Every objective, asked in any order and again from the memo, then on
    the same instance under a second SLO and a second cost model, gives the
    record of the loop that scans for that objective alone."""
    graph, profiles, ladder, slos = instance
    search._last = None
    for slo, cost_model in itertools.product(slos, ORACLE_COST_MODELS):
        expected = {
            objective: _bits_record(reference_brute_force(
                graph, profiles, ladder, slo, objective, cost_model))
            for objective in Objective
        }
        for objective in [*order, *order]:
            result = brute_force(graph, profiles, ladder, slo, objective, cost_model)
            assert _bits_record(result) == expected[objective]


def test_a_second_objective_is_a_lookup_and_a_fresh_result(monkeypatch):
    """One scan answers every objective for an SLO and cost model: asking
    for another scans nothing, still counts M^N, and returns a new result
    whose config is its own. Brute force runs on the plan a greedy search
    walked and leaves its trajectory, and never walks one itself, since it
    takes any table."""
    graph, profiles, ladder, slo = _demo3_instance()
    search._last = None
    greedy_min_time(graph, profiles, ladder, slo)
    plan = search._last
    trajectory = plan.trajectory
    cheapest = brute_force(graph, profiles, ladder, slo, Objective.MIN_COST)
    assert search._last is plan and plan.trajectory is trajectory
    assert set(plan.answers) == {(slo.slo_seconds, CostModel())}

    def no_scan(*args):
        raise AssertionError("scanned an instance the memo holds")

    scan = search._scan
    monkeypatch.setattr(search, "_scan", no_scan)
    for objective in Objective:
        result = brute_force(graph, profiles, ladder, slo, objective)
        assert result.iterations == result.evaluations == 5 ** 3
        assert result.to_record() == reference_brute_force(
            graph, profiles, ladder, slo, objective).to_record()
    again = brute_force(graph, profiles, ladder, slo, Objective.MIN_COST)
    assert again == cheapest and again.config is not cheapest.config
    again.config.clear()
    assert brute_force(graph, profiles, ladder, slo, Objective.MIN_COST) == cheapest
    assert search._plan(graph, profiles, ladder) is plan
    assert plan.trajectory is trajectory and len(plan.answers) == 1
    monkeypatch.setattr(search, "_scan", scan)
    rising = {f: make_profile(f, {128: 1.0, 256: 2.0}) for f in graph.functions()}
    small = MemoryLadder(values=(128, 256), cap_mb=None)
    assert brute_force(graph, rising, small, slo).found
    assert search._last is not plan and search._last.trajectory is None


def test_brute_force_raises_before_scanning_and_leaves_the_memo(monkeypatch):
    """An unknown objective and a missing profile raise before any plan is
    built, and leave the memo's plan as it was. A space past the limit
    raises once the plan's table has built: the new instance's plan takes
    the memo, with no answers and no trajectory, and a greedy search then
    walks that plan. A profile that rises along the ladder likewise leaves
    its instance's plan with no trajectory."""
    graph, profiles, ladder, slo = _demo3_instance()
    search._last = None
    brute_force(graph, profiles, ladder, slo)
    plan, answers = search._last, dict(search._last.answers)

    def no_scan(*args):
        raise AssertionError("brute force scanned")

    monkeypatch.setattr(search, "_scan", no_scan)
    partial = {f: p for f, p in profiles.items() if f != "f2"}
    rungs = (128, 256, 512, 1024, 2048)
    big = generate_app(n_functions=11, shape="chain", seed=1).graph
    rng = random.Random(8)
    big_profiles = {f: random_monotone_profile(f, rungs, rng) for f in big.functions()}
    big_ladder = MemoryLadder(values=rungs, cap_mb=None)
    calls = [
        (ValueError, lambda: brute_force(graph, profiles, ladder, slo, "bogus")),
        (MissingProfile, lambda: brute_force(graph, partial, ladder, slo)),
        (MissingProfile, lambda: greedy_slo(graph, partial, ladder, slo)),
    ]
    for error, call in calls:
        with pytest.raises(error):
            call()
        assert search._last is plan and plan.answers == answers
    with pytest.raises(SearchSpaceTooLarge):
        brute_force(big, big_profiles, big_ladder, SloSpec(1.0))
    plan = search._last
    assert plan.graph is big and plan.answers == {} and plan.trajectory is None
    greedy_slo(big, big_profiles, big_ladder, SloSpec(1e9))
    assert search._last is plan and plan.trajectory is not None
    for objective in Objective:
        with pytest.raises(SearchSpaceTooLarge):
            brute_force(big, big_profiles, big_ladder, SloSpec(1.0), objective)
        assert search._last is plan and plan.answers == {}
    rising = {f: make_profile(f, {128: 1.0, 256: 2.0}) for f in graph.functions()}
    with pytest.raises(ProfileNotMonotone):
        greedy_slo(graph, rising, MemoryLadder(values=(128, 256), cap_mb=None), slo)
    plan = search._last
    assert plan.graph is graph and plan.answers == {} and plan.trajectory is None


def test_a_fresh_min_cost_search_builds_one_evaluator(monkeypatch):
    """A fresh ``greedy_min_cost`` builds one evaluator, for the trajectory,
    and its second phase borrows it back; after ``greedy_slo`` on the same
    plan, min-cost and every brute-force objective build none."""
    instance = _demo3_instance()
    built = [0]
    init = search.GraphEvaluator.__init__

    def counting_init(self, graph):
        built[0] += 1
        init(self, graph)

    monkeypatch.setattr(search.GraphEvaluator, "__init__", counting_init)
    search._last = None
    assert greedy_min_cost(*instance).found and built == [1]
    built[0] = 0
    search._last = None
    assert greedy_slo(*instance).found and built == [1]
    built[0] = 0
    for run in (greedy_min_cost, *_brute_force_searches()):
        assert run(*instance).found
    assert built == [0] and len(search._last.evaluators) == 1


def _reached(*roots) -> dict[int, object]:
    """Every object reachable from ``roots`` by their referents, past
    classes, modules and functions, by id."""
    seen, stack = {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


def test_every_reachable_evaluator_is_free_in_the_plan():
    """After the three greedy searches and every brute-force objective, run
    one after another, the memo's plan lends exactly one evaluator, and it
    is the only one reachable from the memo: the trajectory, its points,
    brute force's answers and every result hold none."""
    instance = _demo3_instance()
    search._last = None
    results = [run(*instance) for run in
               (greedy_slo, greedy_min_cost, greedy_min_time, *_brute_force_searches())]
    assert all(result.found for result in results)
    plan = search._last
    assert len(plan.evaluators) == 1
    assert isinstance(plan.evaluators[0], search.GraphEvaluator)
    reached = _reached(plan)
    evaluators = [id(obj) for obj in reached.values() if isinstance(obj, search.GraphEvaluator)]
    assert evaluators == [id(plan.evaluators[0])]
    assert all(id(part) in reached for part in (plan.trajectory, plan.answers, plan.graph.root))
    assert plan.trajectory.points and plan.answers
    held = _reached(plan.trajectory, plan.trajectory.points, plan.answers, results)
    assert not any(isinstance(obj, search.GraphEvaluator) for obj in held.values())


def _scramble(evaluator, rng: random.Random) -> None:
    """Overwrite every value an evaluator holds: each function's, each
    group's and the root's."""
    for _, values, slot in evaluator._leaves:
        values[slot] = rng.randrange(-2**60, 2**60)
    for values, _, parent, slot in evaluator._groups:
        values[:] = [rng.randrange(-2**60, 2**60) for _ in values]
        parent[slot] = rng.randrange(-2**60, 2**60)
    evaluator._top[0] = rng.randrange(-2**60, 2**60)


@given(st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_a_lent_evaluators_old_values_never_reach_a_result(seed, noise):
    """Whatever values the evaluator a plan lends holds, ``greedy_min_cost``
    and every brute-force objective that borrow it give the records of the
    reference searches, which build their own."""
    instance = random_instance(random.Random(seed))
    rng = random.Random(noise)
    search._last = None
    greedy_slo(*instance)
    (lent,) = search._last.evaluators
    _scramble(lent, rng)
    assert greedy_min_cost(*instance).to_record() == walk_greedy_min_cost(*instance).to_record()
    _scramble(lent, rng)
    for objective in Objective:
        assert (brute_force(*instance, objective).to_record()
                == reference_brute_force(*instance, objective).to_record())
    assert search._last.evaluators == [lent]


def test_only_the_plan_function_writes_the_memo():
    """``global`` appears in one function of the search module, ``_plan``,
    for ``_last``: every write to the memo goes through it."""
    tree = ast.parse(pathlib.Path(search.__file__).read_text())
    owners = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and any(isinstance(inner, ast.Global) for inner in ast.walk(node))]
    statements = [node.names for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert owners == ["_plan"] and statements == [["_last"]]


def test_greedy_finds_feasible_whenever_brute_force_does():
    rng = random.Random(10)
    for _ in range(80):
        graph, profiles, ladder, slo = random_instance(rng)
        exhaustive = brute_force(graph, profiles, ladder, slo)
        heuristic = greedy_slo(graph, profiles, ladder, slo)
        if exhaustive.found:
            assert heuristic.found
        else:
            assert not heuristic.found


# --- metamorphic relations ---------------------------------------------------


def _record_hex(result, scale=1):
    """``result.to_record()`` with its estimates times ``scale``, as hex."""
    record = result.to_record()
    for key in ("estimated_time_s", "estimated_cost_usd"):
        if record[key] is not None:
            record[key] = (scale * record[key]).hex()
    return record


@given(st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_doubling_times_slo_and_billing_tick_doubles_every_search_estimate(seed):
    """A metamorphic relation of the searches: with every representative, the
    SLO and the billing tick doubled, every search takes the same steps to the
    same configuration, and its time and cost estimates double exactly."""
    graph, profiles, ladder, slo = random_instance(random.Random(seed))
    doubled = {name: dataclasses.replace(profile, representatives={
        memory_mb: 2 * seconds for memory_mb, seconds in profile.representatives.items()})
        for name, profile in profiles.items()}
    twice_slo = SloSpec(2 * slo.slo_seconds, slo.percentile)
    for run in (greedy_slo, greedy_min_cost, greedy_min_time, *_brute_force_searches()):
        result = run(graph, profiles, ladder, slo, cost_model=CostModel())
        twice = run(graph, doubled, ladder, twice_slo, cost_model=CostModel(billing_granularity_ms=2))
        assert _record_hex(twice) == _record_hex(result, 2)


def _prefixed(node, prefix):
    """``node`` with every function name prefixed by ``prefix``."""
    if isinstance(node, FunctionNode):
        return FunctionNode(prefix + node.name)
    return type(node)(tuple(_prefixed(child, prefix) for child in node.children))


@given(st.integers(0, 2**32), st.text(min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_prefixing_every_function_name_relabels_every_search_result(seed, prefix):
    """A metamorphic relation of the searches: a common prefix keeps the
    names' order, so the greedy tie-break, the bump order and brute force's
    odometer are unchanged, and every search gives the same record with its
    configuration's keys prefixed: the same estimates and costs bit for
    bit, and the same iteration and evaluation counts."""
    graph, profiles, ladder, slo = random_instance(random.Random(seed))
    renamed = CallGraph(_prefixed(graph.root, prefix))
    renamed_profiles = {prefix + name: dataclasses.replace(profile, function=prefix + name)
                        for name, profile in profiles.items()}
    assert renamed.functions() == tuple(prefix + name for name in graph.functions())
    for run in (greedy_slo, greedy_min_cost, greedy_min_time, *_brute_force_searches()):
        record = _record_hex(run(graph, profiles, ladder, slo))
        if record["config"] is not None:
            record["config"] = {prefix + name: mb for name, mb in record["config"].items()}
        assert _record_hex(run(renamed, renamed_profiles, ladder, slo)) == record


@given(st.integers(0, 2**32), st.floats(1.0, 4.0), st.floats(0.25, 4.0), st.data())
@settings(max_examples=150, deadline=None)
def test_exact_min_cost_and_greedy_min_time_keep_their_order_relations(
    seed, looser, other, data
):
    """Brute-force min-cost's cost never rises when the SLO loosens or the
    ladder gains rungs the profiles cover, and ``greedy_min_time`` gives the
    same result at every SLO it meets, and the same counts at one it misses.
    (``greedy_slo`` and ``greedy_min_cost`` break the first two relations,
    so they are not asserted here.)"""
    graph, profiles, ladder, slo = random_instance(random.Random(seed))
    cheapest = brute_force(graph, profiles, ladder, slo, Objective.MIN_COST)
    if cheapest.found:
        loose = SloSpec(looser * slo.slo_seconds, slo.percentile)
        assert (brute_force(graph, profiles, ladder, loose, Objective.MIN_COST).estimated_cost_usd
                <= cheapest.estimated_cost_usd)

    rungs = ladder.effective()
    size = data.draw(st.integers(1, len(rungs)), label="rungs kept")
    kept = tuple(sorted(data.draw(st.permutations(rungs))[:size]))
    coarse = brute_force(graph, profiles, MemoryLadder(kept, cap_mb=None), slo, Objective.MIN_COST)
    if coarse.found:
        assert cheapest.found and cheapest.estimated_cost_usd <= coarse.estimated_cost_usd

    # The all-minimum configuration, where the greedy walk starts, is its slowest.
    slowest = estimate_time(graph, dict.fromkeys(graph.functions(), rungs[0]), profiles)
    fastest = greedy_min_time(graph, profiles, ladder, SloSpec(slowest, slo.percentile))
    assert fastest.found
    for seconds in (fastest.estimated_time_s, slo.slo_seconds, looser * slo.slo_seconds,
                    other * slo.slo_seconds):
        again = greedy_min_time(graph, profiles, ladder, SloSpec(seconds, slo.percentile))
        assert again == (fastest if seconds >= fastest.estimated_time_s else
                         dataclasses.replace(fastest, config=None, estimated_time_s=None,
                                             estimated_cost_usd=None))


# --- full-pipeline orderings -------------------------------------------------


def test_pipeline_orderings_on_simulated_three_function_app():
    """Profile the 3-function demo app in the simulator, then check the
    relationships the variants must preserve: exhaustive min-cost is a lower
    cost bound, and the min-time config is the fastest of the three."""
    import faastune as ft

    app = generate_app(shape="demo3", seed=21)
    ladder = MemoryLadder()
    log = ft.profile_application(app, ladder, k_per_level=50, rng=random.Random(2))
    samples = ft.extract_samples(log)
    alpha = ft.select_alpha(samples, ladder, app.graph, seed=2)
    profiles = {
        name: ft.monotone_repair(p)
        for name, p in ft.build_profiles(samples, ladder, alpha).items()
    }
    all_max = estimate_time(
        app.graph, {f: ladder.maximum for f in app.graph.functions()}, profiles
    )
    slo = SloSpec(all_max * 1.5)

    base = greedy_slo(app.graph, profiles, ladder, slo)
    cheap = greedy_min_cost(app.graph, profiles, ladder, slo)
    fast = greedy_min_time(app.graph, profiles, ladder, slo)
    bf_cheap = brute_force(app.graph, profiles, ladder, slo, Objective.MIN_COST)

    for result in (base, cheap, fast, bf_cheap):
        assert result.found
        assert set(result.config) == set(app.graph.functions())  # total assignment
    assert bf_cheap.estimated_cost_usd <= cheap.estimated_cost_usd
    assert cheap.estimated_cost_usd <= base.estimated_cost_usd
    assert fast.estimated_time_s <= base.estimated_time_s
    assert fast.estimated_time_s <= cheap.estimated_time_s


# --- pinned records -------------------------------------------------------------


def test_search_records_are_pinned():
    assert pinned_records_digest() == PINNED_RECORDS_SHA256
