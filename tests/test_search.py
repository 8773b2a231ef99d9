import itertools
import random

import pytest

from faastune import (
    CallGraph,
    CostModel,
    FunctionNode,
    MemoryLadder,
    Objective,
    SloSpec,
    brute_force,
    configuration_cost,
    estimate_time,
    generate_app,
    greedy_min_cost,
    greedy_min_time,
    greedy_slo,
)
from faastune import search
from faastune.errors import MissingProfile, ProfileNotMonotone, SearchSpaceTooLarge
from helpers import (
    make_profile,
    random_instance,
    random_monotone_profile,
    reference_greedy,
    schedule_end_to_end,
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
    graph, profiles, ladder = _single_function_setup({128: 1.0, 256: 2.0})
    with pytest.raises(ProfileNotMonotone):
        greedy_slo(graph, profiles, ladder, SloSpec(10.0))
    result = greedy_slo(graph, profiles, ladder, SloSpec(10.0), allow_non_monotone=True)
    assert result.found


def test_profiles_must_cover_the_ladder():
    graph = CallGraph(FunctionNode("f1"))
    profiles = {"f1": make_profile("f1", {128: 1.0})}
    with pytest.raises(MissingProfile):
        greedy_slo(graph, profiles, MemoryLadder(values=(128, 256), cap_mb=None), SloSpec(1.0))


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
