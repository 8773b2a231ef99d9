"""Acceptance suite: every release-gating criterion, one test each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines and the supporting numbers.
"""

import math
import random
import statistics
import time

import pytest

from faastune import (
    MemoryLadder,
    Objective,
    SloSpec,
    brute_force,
    build_call_graph,
    build_profiles,
    estimate_time,
    extract_samples,
    generate_app,
    greedy_min_cost,
    greedy_min_time,
    greedy_slo,
    monotone_repair,
    profile_application,
    run_load,
    select_alpha,
    validate_config,
)
from faastune import search
from helpers import end_to_end_durations, noiseless, random_instance, random_monotone_profile

SHAPE_SEEDS = {"demo3": 101, "demo6": 102, "demo10": 103, "petstore": 104}
SLO_MULTIPLIERS = (1.2, 1.5, 2.0)
GAMMA = 0.01


# --- shared pipeline runs (criteria 1 and 2) ----------------------------------


@pytest.fixture(scope="module")
def pipeline_cells():
    cells = []
    for shape, seed in SHAPE_SEEDS.items():
        app = generate_app(shape=shape, seed=seed)
        ladder = MemoryLadder()  # platform ladder capped at 2 GB
        log = profile_application(app, ladder, k_per_level=50, rng=random.Random(seed + 1))
        samples = extract_samples(log)
        alpha = select_alpha(samples, ladder, app.graph, seed=seed)
        profiles = {
            name: monotone_repair(p)
            for name, p in build_profiles(samples, ladder, alpha).items()
        }
        functions = app.graph.functions()
        all_max = estimate_time(app.graph, {f: ladder.maximum for f in functions}, profiles)
        for multiplier in SLO_MULTIPLIERS:
            slo = SloSpec(all_max * multiplier)
            result = greedy_slo(app.graph, profiles, ladder, slo)
            assert result.found, f"{shape}: SLO {multiplier}x all-max must be feasible"
            report = validate_config(
                app, result.config, slo, n_requests=100,
                rng=random.Random(seed * 100 + int(multiplier * 10)),
            )
            error_pct = (
                (result.estimated_time_s - report.at_percentile_s)
                / report.at_percentile_s * 100.0
            )
            cells.append({
                "shape": shape,
                "multiplier": multiplier,
                "slo": slo.slo_seconds,
                "estimated": result.estimated_time_s,
                "conformance": report.conformance,
                "accuracy": 100.0 - error_pct**2,
            })
    return cells


def test_criterion_1_slo_conformance(pipeline_cells):
    worst = min(cells["conformance"] for cells in pipeline_cells)
    for cell in pipeline_cells:
        assert cell["conformance"] >= 0.95, (
            f"{cell['shape']} @ {cell['multiplier']}x: "
            f"conformance {cell['conformance']:.2%} < 95%"
        )
    print(
        f"\nPASS criterion 1 (SLO conformance): {len(pipeline_cells)} cells, "
        f"worst conformance {worst:.2%} >= 95%"
    )


def test_criterion_2_estimation_accuracy(pipeline_cells):
    synthetic = [c for c in pipeline_cells if c["shape"] != "petstore"]
    petstore = [c for c in pipeline_cells if c["shape"] == "petstore"]
    for cell in synthetic:
        assert cell["accuracy"] >= 90.0, (
            f"{cell['shape']} @ {cell['multiplier']}x: accuracy {cell['accuracy']:.1f}% < 90%"
        )
    for cell in petstore:
        assert cell["accuracy"] >= 70.0, (
            f"petstore @ {cell['multiplier']}x: accuracy {cell['accuracy']:.1f}% < 70%"
        )
        assert cell["estimated"] <= cell["slo"]
    print(
        "PASS criterion 2 (estimation accuracy): synthetic min "
        f"{min(c['accuracy'] for c in synthetic):.1f}% >= 90%, petstore min "
        f"{min(c['accuracy'] for c in petstore):.1f}% >= 70%"
    )


# --- property corpus (criteria 3, 4, 5, 6) ------------------------------------


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260809)
    instances = []
    for _ in range(500):
        graph, profiles, ladder, slo = random_instance(rng)
        instances.append({
            "graph": graph,
            "profiles": profiles,
            "ladder": ladder,
            "slo": slo,
            "greedy": greedy_slo(graph, profiles, ladder, slo),
            "min_cost": greedy_min_cost(graph, profiles, ladder, slo),
            "min_time": greedy_min_time(graph, profiles, ladder, slo),
            "bf_any": brute_force(graph, profiles, ladder, slo, Objective.FEASIBLE),
            "bf_cost": brute_force(graph, profiles, ladder, slo, Objective.MIN_COST),
            "bf_time": brute_force(graph, profiles, ladder, slo, Objective.MIN_TIME),
        })
    return instances


def test_criterion_3_feasibility_soundness_and_completeness(corpus):
    checked = 0
    for case in corpus:
        for key in ("greedy", "min_cost", "min_time", "bf_any", "bf_cost", "bf_time"):
            result = case[key]
            if result.found:
                fresh = estimate_time(case["graph"], result.config, case["profiles"])
                assert fresh <= case["slo"].slo_seconds, f"{key} violated the SLO"
                checked += 1
        if case["bf_any"].found:
            assert case["greedy"].found, "brute force found a config but greedy did not"
        else:
            assert not case["greedy"].found
    feasible = sum(1 for c in corpus if c["bf_any"].found)
    print(
        f"\nPASS criterion 3 (feasibility soundness, exact): {len(corpus)} instances "
        f"({feasible} feasible), {checked} non-empty results all satisfy their SLO"
    )


def test_criterion_4_min_time_optimality_gap(corpus):
    gaps = []
    for case in corpus:
        if not case["bf_time"].found:
            continue
        assert case["min_time"].found
        gaps.append(case["min_time"].estimated_time_s - case["bf_time"].estimated_time_s)
    within = sum(1 for g in gaps if g <= GAMMA)
    fraction = within / len(gaps)
    leftovers = sorted(g for g in gaps if g > GAMMA)
    assert fraction >= 0.95, f"only {fraction:.1%} of instances within gamma of the optimum"
    print(
        f"PASS criterion 4 (min-time gap): {fraction:.1%} of {len(gaps)} feasible "
        f"instances within gamma={GAMMA}s of brute force; residual gaps: "
        + (f"n={len(leftovers)}, max={max(leftovers):.3f}s, median={statistics.median(leftovers):.3f}s"
           if leftovers else "none")
    )


def test_criterion_5_min_cost_near_optimality(corpus):
    ratios = []
    for case in corpus:
        if not case["bf_cost"].found:
            continue
        assert case["min_cost"].found
        assert case["min_cost"].estimated_cost_usd <= case["greedy"].estimated_cost_usd
        ratios.append(case["min_cost"].estimated_cost_usd / case["bf_cost"].estimated_cost_usd)
    median_ratio = statistics.median(ratios)
    assert median_ratio <= 1.10, f"median cost ratio {median_ratio:.3f} exceeds 1.10"
    print(
        f"PASS criterion 5 (min-cost near-optimality): cost <= plain greedy on all "
        f"{len(ratios)} feasible instances; median ratio to brute-force optimum "
        f"{median_ratio:.3f} <= 1.10 (p90 {sorted(ratios)[int(0.9 * len(ratios))]:.3f})"
    )


def test_criterion_6_evaluation_count_bound(corpus):
    worst = 0.0
    for case in corpus:
        n = len(case["graph"].functions())
        m = len(case["ladder"].effective())
        bound = n * (m - 1) + 1
        assert case["greedy"].evaluations <= bound, (
            f"greedy used {case['greedy'].evaluations} evaluations, bound {bound}"
        )
        worst = max(worst, case["greedy"].evaluations / bound)
        assert case["min_time"].evaluations <= bound, (
            f"min-time used {case['min_time'].evaluations} evaluations, bound {bound}"
        )
    print(
        f"PASS criterion 6 (evaluation bound): greedy and min-time never exceeded N*(M-1)+1 "
        f"across {len(corpus)} instances (max utilisation {worst:.0%})"
    )


def test_min_time_is_the_tightest_slo_greedy_meets_and_estimates_are_exact(corpus):
    exact = 0
    for case in corpus:
        for key in ("greedy", "min_cost", "min_time", "bf_any", "bf_cost", "bf_time"):
            result = case[key]
            if result.found:
                fresh = estimate_time(case["graph"], result.config, case["profiles"])
                assert result.estimated_time_s == fresh, f"{key}: estimate not bit-identical"
        fast = case["min_time"]
        if not fast.found:
            continue
        instance = (case["graph"], case["profiles"], case["ladder"])
        at_minimum = greedy_slo(*instance, SloSpec(fast.estimated_time_s))
        assert at_minimum.config == fast.config
        tighter = SloSpec(math.nextafter(fast.estimated_time_s, 0.0))
        assert not greedy_slo(*instance, tighter).found
        exact += 1
    print(
        f"\nPASS min-time exactness: on {exact} feasible instances greedy_slo at the "
        "min-time estimate returns the min-time config and one ulp tighter is infeasible; "
        "every search's estimate equals estimate_time bit for bit"
    )


# --- scalability (criterion 7) -------------------------------------------------


def _timed(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _fresh(run, *instance):
    """A call of ``run`` on ``instance`` from an empty search memo, which
    would otherwise answer a repeat at once."""
    def call():
        search._last = None
        return run(*instance)
    return call


def test_criterion_7_scalability_shape():
    ladder = MemoryLadder(cap_mb=None)  # full 8-rung ladder
    rungs = ladder.effective()
    sizes = (1, 10, 25, 50, 100)
    walls = {"greedy": [], "min_cost": [], "min_time": []}
    rng = random.Random(7)
    for n in sizes:
        graph = generate_app(n_functions=n, shape="chain", seed=700 + n).graph
        profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
        functions = graph.functions()
        all_max = estimate_time(graph, {f: rungs[-1] for f in functions}, profiles)
        slo = SloSpec(all_max * 1.25)
        repeats = 3 if n < 100 else 2
        instance = graph, profiles, ladder, slo
        walls["greedy"].append(_timed(_fresh(greedy_slo, *instance), repeats))
        walls["min_cost"].append(_timed(_fresh(greedy_min_cost, *instance), repeats))
        walls["min_time"].append(_timed(_fresh(greedy_min_time, *instance), repeats))

    slopes = {}
    for variant, times in walls.items():
        xs = [math.log(n) for n in sizes]
        ys = [math.log(t) for t in times]
        x_bar, y_bar = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum(
            (x - x_bar) ** 2 for x in xs
        )
        slopes[variant] = slope
        assert slope <= 1.5, f"{variant}: log-log slope {slope:.2f} exceeds 1.5"
    assert walls["min_cost"][-1] < 60.0, "100-function min-cost run must finish within 60 s"

    # brute force must be at least an order of magnitude slower than greedy
    # on the six-function app with a four-rung ladder
    graph = generate_app(shape="demo6", seed=777).graph
    small = MemoryLadder(values=(128, 256, 512, 1024), cap_mb=None)
    profiles = {f: random_monotone_profile(f, small.effective(), rng) for f in graph.functions()}
    all_max = estimate_time(graph, {f: 1024 for f in graph.functions()}, profiles)
    slo = SloSpec(all_max * 1.3)

    greedy_wall = _timed(_fresh(greedy_slo, graph, profiles, small, slo), repeats=5)
    brute_wall = _timed(_fresh(brute_force, graph, profiles, small, slo), repeats=3)
    ratio = brute_wall / greedy_wall
    assert ratio >= 10.0, f"brute/greedy wall ratio {ratio:.1f}x below 10x"
    print(
        "\nPASS criterion 7 (scalability): log-log slopes "
        + ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
        + f" (all <= 1.5); min-cost @ N=100 took {walls['min_cost'][-1]:.3f}s; "
        f"brute/greedy wall ratio {ratio:.0f}x >= 10x"
    )


# --- round trip and zero-jitter consistency (criterion 8) ----------------------


def test_criterion_8_round_trip_and_zero_jitter_consistency():
    worst_delta = 0.0
    for i in range(100):
        rng = random.Random(8000 + i)
        app = noiseless(generate_app(rng.randint(1, 12), "random", seed=8000 + i))
        functions = app.graph.functions()
        config = {f: 128 for f in functions}
        log = run_load(app, config, 3, random.Random(i))
        assert build_call_graph(log) == app.graph, f"app {i}: graph not recovered"

        samples = extract_samples(log)
        profiles = build_profiles(samples, MemoryLadder(values=(128,), cap_mb=None), alpha=95)
        estimated = estimate_time(app.graph, config, profiles)
        observed = end_to_end_durations(log)
        delta = max(abs(d - estimated) for d in observed)
        worst_delta = max(worst_delta, delta)
        assert delta <= 1e-3, f"app {i}: simulated vs estimated differ by {delta}"
    print(
        f"\nPASS criterion 8 (round trip + zero-jitter consistency): 100 apps "
        f"recovered exactly; worst time delta {worst_delta:.2e}s <= 1 ms"
    )
