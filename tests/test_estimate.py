import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from faastune import (
    CallGraph,
    CostModel,
    FunctionNode,
    Parallel,
    Sequence,
    combine_times,
    estimate_cost,
    estimate_time,
    generate_app,
)
from faastune.errors import MissingProfile, PartialConfiguration
from faastune.estimate import GraphEvaluator, from_scaled, time_shift, to_scaled
from helpers import (
    exact_composition,
    make_profile,
    messy_tree,
    random_monotone_profile,
    rounded_once,
    schedule_end_to_end,
)


def _two_function_profiles():
    return {
        "f1": make_profile("f1", {128: 2.0}),
        "f2": make_profile("f2", {128: 3.0}),
    }


def test_sequence_sums():
    graph = CallGraph(Sequence((FunctionNode("f1"), FunctionNode("f2"))))
    assert estimate_time(graph, {"f1": 128, "f2": 128}, _two_function_profiles()) == 5.0


def test_parallel_takes_max():
    graph = CallGraph(Parallel((FunctionNode("f1"), FunctionNode("f2"))))
    assert estimate_time(graph, {"f1": 128, "f2": 128}, _two_function_profiles()) == 3.0


def test_six_function_tree_matches_schedule_oracle():
    graph = generate_app(shape="demo6", seed=3).graph
    times = {f: 0.25 * (i + 1) for i, f in enumerate(graph.functions())}
    assert combine_times(graph, times) == pytest.approx(
        schedule_end_to_end(graph, times), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(30))
def test_random_trees_match_schedule_oracle(seed):
    rng = random.Random(seed)
    graph = generate_app(n_functions=rng.randint(1, 10), shape="random", seed=seed).graph
    times = {f: rng.uniform(0.01, 5.0) for f in graph.functions()}
    assert combine_times(graph, times) == pytest.approx(
        schedule_end_to_end(graph, times), rel=1e-12
    )


def _recursive(node, times):
    """Reference composition that the flat evaluator must match bit for bit:
    the exact sum/max composition, rounded once."""
    return rounded_once(exact_composition(node, times))


def _scaled(times, shift):
    return dict(zip(times, to_scaled(times.values(), shift)))


@pytest.mark.parametrize("seed", range(20))
def test_evaluator_updates_are_bit_identical_to_recursive_composition(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    if seed % 2:
        graph = CallGraph(messy_tree(rng, [f"f{i}" for i in range(n)]))  # canonicalized messy tree
    else:
        graph = generate_app(n_functions=n, shape=rng.choice(("random", "chain")), seed=seed).graph
    functions = graph.functions()
    times = {f: rng.uniform(0.01, 5.0) for f in functions}
    updates = [(rng.choice(functions), rng.uniform(0.01, 5.0)) for _ in range(200)]
    shift = time_shift([*times.values(), *(seconds for _, seconds in updates)])
    evaluator = GraphEvaluator(graph)
    assert evaluator.evaluate(times) == _recursive(graph.root, times)
    exact = evaluator.evaluate_scaled(_scaled(times, shift))
    assert from_scaled(exact, shift) == _recursive(graph.root, times)
    for name, seconds in updates:
        times[name] = seconds
        exact = evaluator.set_scaled(name, to_scaled((seconds,), shift)[0])
        assert from_scaled(exact, shift) == _recursive(graph.root, times)
    assert evaluator.evaluate(times) == combine_times(graph, times)


@st.composite
def _graphs(draw):
    """Canonical graphs of 1-12 functions, with nested parallel groups."""

    def tree(names):
        if len(names) == 1:
            return FunctionNode(names[0])
        parts = draw(st.integers(2, min(4, len(names))))
        cuts = sorted(draw(st.sets(
            st.integers(1, len(names) - 1), min_size=parts - 1, max_size=parts - 1
        )))
        bounds = list(zip([0] + cuts, cuts + [len(names)]))
        kind = draw(st.sampled_from((Sequence, Parallel)))
        return kind(tuple(tree(names[lo:hi]) for lo, hi in bounds))

    return CallGraph(tree([f"f{i}" for i in range(draw(st.integers(1, 12)))]))


#: A few durations, so parallel maxima tie and a time is often set to the
#: value it already has; float additions of 0.1, 0.2 and 0.7 round
#: differently by summation order, and the exact sum once.
_TIME_VALUES = (0.0, -0.0, 0.1, 0.2, 0.7, 3.0)
_TIMES = st.sampled_from(_TIME_VALUES)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=150, deadline=None)
@given(graph=_graphs(), data=st.data())
def test_evaluator_early_stop_is_bit_identical(graph, data):
    functions = graph.functions()
    times = {f: data.draw(_TIMES) for f in functions}
    shift = time_shift(_TIME_VALUES)
    evaluator = GraphEvaluator(graph)
    assert _bits(evaluator.evaluate(times)) == _bits(_recursive(graph.root, times))
    evaluator.evaluate_scaled(_scaled(times, shift))
    updates = data.draw(st.lists(st.tuples(st.sampled_from(functions), _TIMES), max_size=200))
    for name, seconds in updates:
        times[name] = seconds
        exact = evaluator.set_scaled(name, to_scaled((seconds,), shift)[0])
        assert exact == GraphEvaluator(graph).evaluate_scaled(_scaled(times, shift))
        assert _bits(from_scaled(exact, shift)) == _bits(_recursive(graph.root, times))
    missing = data.draw(st.sets(st.sampled_from(functions), min_size=1))
    partial = {f: t for f, t in times.items() if f not in missing}
    for evaluate, given in ((evaluator.evaluate, partial),
                            (evaluator.evaluate_scaled, _scaled(partial, shift))):
        with pytest.raises(PartialConfiguration) as error:
            evaluate(given)
        assert error.value.function == next(f for f in functions if f in missing)


#: Scaled values: a few small ones, so parallel maxima tie, and any up to
#: 2**70.
_SCALED = st.one_of(st.integers(0, 4), st.integers(0, 2**70))


@settings(max_examples=150, deadline=None)
@given(graph=_graphs(), data=st.data())
def test_max_plus_gives_the_root_as_a_function_of_one_value(graph, data):
    """After ``evaluate_scaled`` and any ``set_scaled`` calls, for every
    function and several values ``x`` of it, ``max(x + a, b)`` (``x + a``
    when ``b`` is None) of its ``max_plus`` equals a fresh
    ``evaluate_scaled`` of the same values with ``x`` in place; ``b`` is
    None on a graph without parallel groups, and ``max_plus`` changes
    nothing."""
    functions = graph.functions()
    scaled = {f: data.draw(_SCALED) for f in functions}
    evaluator = GraphEvaluator(graph)
    evaluator.evaluate_scaled(scaled)
    for name, value in data.draw(st.lists(st.tuples(st.sampled_from(functions), _SCALED),
                                          max_size=20)):
        scaled[name] = value
        evaluator.set_scaled(name, value)
    groups = [graph.root]
    parallel = False
    while groups:
        node = groups.pop()
        parallel |= isinstance(node, Parallel)
        groups.extend(getattr(node, "children", ()))
    for name in functions:
        a, b = evaluator.max_plus(name)
        assert parallel or b is None
        for x in [scaled[name], *data.draw(st.lists(_SCALED, min_size=1, max_size=4))]:
            expected = GraphEvaluator(graph).evaluate_scaled({**scaled, name: x})
            assert (x + a if b is None else max(x + a, b)) == expected
    name = data.draw(st.sampled_from(functions))
    assert evaluator.set_scaled(name, scaled[name] + 1) == GraphEvaluator(graph).evaluate_scaled(
        {**scaled, name: scaled[name] + 1})


@pytest.mark.parametrize("kind, f1, f2, expected", [
    (Sequence, -1.0, 3.0, 2.0),
    (Parallel, -1.0, -3.0, -1.0),
    (Sequence, -2.0**-60, 1.0, 1.0 - 2.0**-60),
    (Parallel, 0.5, -2.0**-1074, 0.5),
], ids=["sequence", "parallel", "tiny-negative", "subnormal-negative"])
def test_negative_durations_compose_exactly(kind, f1, f2, expected):
    """A negative duration scales by the shift its magnitude needs, so the
    composition stays exact and is rounded once."""
    graph = CallGraph(kind((FunctionNode("f1"), FunctionNode("f2"))))
    times = {"f1": f1, "f2": f2}
    assert combine_times(graph, times) == expected
    assert combine_times(graph, times) == rounded_once(exact_composition(graph.root, times))


def test_a_zero_of_either_sign_composes_to_positive_zero():
    """Scaled to integers, -0.0 and 0.0 are both 0, so every composition of
    zeros reads +0.0."""
    assert to_scaled((-0.0, 0.0), 1074) == [0, 0]
    for kind in (Sequence, Parallel):
        evaluator = GraphEvaluator(CallGraph(kind((FunctionNode("f1"), FunctionNode("f2")))))
        for f1, f2 in ((-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)):
            assert _bits(evaluator.evaluate({"f1": f1, "f2": f2})) == _bits(0.0)
    single = GraphEvaluator(CallGraph(FunctionNode("f1")))
    assert _bits(single.evaluate({"f1": -0.0})) == _bits(0.0)


#: Durations at the edges of the float range: zeros of both signs, the
#: smallest subnormal, a tiny normal and one of which two overflow a sum.
_EDGE_TIMES = (0.0, -0.0, 5e-324, 1e-300, 1e308)


@st.composite
def _exact_cases(draw):
    """A chain of up to 400 functions or a random tree, and durations drawn
    from :data:`_EDGE_TIMES` and all finite non-negative floats."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 400))
        graph = CallGraph(Sequence(tuple(FunctionNode(f"f{i}") for i in range(n))))
    else:
        graph = draw(_graphs())
    seconds = st.one_of(st.sampled_from(_EDGE_TIMES),
                        st.floats(min_value=0.0, allow_infinity=False))
    return graph, seconds


@settings(max_examples=120, deadline=None)
@given(case=_exact_cases(), data=st.data())
def test_every_estimate_is_the_exact_composition_rounded_once(case, data):
    """``evaluate``, ``evaluate_scaled`` and every ``set_scaled`` after it on
    one shift for all the values, and ``estimate_time``, give the exact
    sum/max composition, rounded once to the nearest float (inf past the
    float range)."""
    graph, seconds = case
    functions = graph.functions()
    times = {f: data.draw(seconds) for f in functions}
    updates = data.draw(st.lists(st.tuples(st.sampled_from(functions), seconds), max_size=30))
    shift = time_shift([*times.values(), *(value for _, value in updates)])
    evaluator = GraphEvaluator(graph)
    exact = rounded_once(exact_composition(graph.root, times))
    assert _bits(evaluator.evaluate(times)) == _bits(exact)
    assert _bits(from_scaled(evaluator.evaluate_scaled(_scaled(times, shift)), shift)) == _bits(exact)
    for name, value in updates:
        times[name] = value
        exact = rounded_once(exact_composition(graph.root, times))
        total = evaluator.set_scaled(name, to_scaled((value,), shift)[0])
        assert _bits(from_scaled(total, shift)) == _bits(exact)
    profiles = {f: make_profile(f, {128: t}) for f, t in times.items()}
    assert _bits(estimate_time(graph, dict.fromkeys(functions, 128), profiles)) == _bits(exact)
    assert _bits(evaluator.evaluate(times)) == _bits(exact)


def test_a_sum_past_the_float_range_is_inf_and_a_subnormal_sum_is_exact():
    chain = CallGraph(Sequence((FunctionNode("f1"), FunctionNode("f2"), FunctionNode("f3"))))
    assert combine_times(chain, {"f1": 1e308, "f2": 1e308, "f3": 5e-324}) == math.inf
    evaluator = GraphEvaluator(chain)
    for f1, f2, f3, total in ((5e-324, 0.0, 0.0, 5e-324), (5e-324, 1e-300, 0.0, 1e-300),
                              (5e-324, 5e-324, 0.0, 1e-323), (1e308, 5e-324, 0.0, 1e308),
                              (1e308, 5e-324, 1e308, math.inf), (1e308, 5e-324, 0.0, 1e308)):
        assert evaluator.evaluate({"f1": f1, "f2": f2, "f3": f3}) == total


@pytest.mark.parametrize("total,shift", [
    (2**54 + 5, 1077),  # subnormal: rounding 53 bits first, then the scale, ends a step low
    (2**1023, 0), (2**1024 - 2**970, 0), (2**1024 - 2**970 - 1, 0), (2**1100, 80),  # near the top
    (3, 1076), (1, 1075), (0, 1126), (2**60 + 1, 59),
], ids=["double-rounding", "2**1023", "rounds-to-inf", "rounds-to-max", "scaled-down",
        "sub-subnormal", "half-subnormal", "zero", "ordinary"])
def test_from_scaled_rounds_once(total, shift):
    assert from_scaled(total, shift).hex() == rounded_once(Fraction(total, 2**shift)).hex()


def test_a_duration_that_is_not_finite_raises_value_error():
    graph = CallGraph(Sequence((FunctionNode("f1"), FunctionNode("f2"))))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="a duration must be finite"):
            combine_times(graph, {"f1": 1.0, "f2": bad})
        evaluator = GraphEvaluator(graph)
        evaluator.evaluate({"f1": 1.0, "f2": 2.0})
        with pytest.raises(ValueError, match="a duration must be finite"):
            evaluator.evaluate({"f1": 1.0, "f2": bad})
        with pytest.raises(ValueError, match="a duration must be finite"):
            to_scaled((1.0, bad), 1)


def test_compositionality_of_sequence_and_parallel():
    rng = random.Random(5)
    left = generate_app(n_functions=3, shape="random", seed=1).graph.root
    right_graph = generate_app(n_functions=3, shape="random", seed=2).graph
    right = right_graph.root
    rename = {f: f + "x" for f in right_graph.functions()}

    def renamed(node):
        if isinstance(node, FunctionNode):
            return FunctionNode(rename[node.name])
        kind = Sequence if isinstance(node, Sequence) else Parallel
        return kind(tuple(renamed(c) for c in node.children))

    right = renamed(right)
    times = {f: rng.uniform(0.1, 2.0) for f in CallGraph(left).functions()}
    times.update({f: rng.uniform(0.1, 2.0) for f in CallGraph(right).functions()})
    t_left = combine_times(CallGraph(left), times)
    t_right = combine_times(CallGraph(right), times)
    seq = combine_times(CallGraph(Sequence((left, right))), times)
    par = combine_times(CallGraph(Parallel((left, right))), times)
    assert seq == pytest.approx(t_left + t_right, rel=1e-12)
    assert par == max(t_left, t_right)


@pytest.mark.parametrize("seed", range(10))
def test_permuting_children_leaves_estimate_unchanged(seed):
    rng = random.Random(seed)
    kids = tuple(FunctionNode(f"f{i}") for i in range(1, 5))
    times = {f"f{i}": rng.uniform(0.1, 3.0) for i in range(1, 5)}
    shuffled = list(kids)
    rng.shuffle(shuffled)
    for kind in (Sequence, Parallel):
        original = combine_times(CallGraph(kind(kids)), times)
        permuted = combine_times(CallGraph(kind(tuple(shuffled))), times)
        assert permuted == pytest.approx(original, rel=1e-12)


def test_monotone_profiles_make_estimates_monotone_in_memory():
    rng = random.Random(11)
    rungs = (128, 256, 512, 1024)
    for seed in range(20):
        graph = generate_app(n_functions=4, shape="random", seed=seed).graph
        profiles = {f: random_monotone_profile(f, rungs, rng) for f in graph.functions()}
        config = {f: rng.choice(rungs[:-1]) for f in graph.functions()}
        base = estimate_time(graph, config, profiles)
        for f in graph.functions():
            bumped = dict(config)
            bumped[f] = rungs[rungs.index(config[f]) + 1]
            assert estimate_time(graph, bumped, profiles) <= base


def test_cost_ignores_structure():
    profiles = _two_function_profiles()
    config = {"f1": 128, "f2": 128}
    model = CostModel()
    seq = estimate_cost(
        CallGraph(Sequence((FunctionNode("f1"), FunctionNode("f2")))), config, profiles, model
    )
    par = estimate_cost(
        CallGraph(Parallel((FunctionNode("f1"), FunctionNode("f2")))), config, profiles, model
    )
    assert seq == par


def test_missing_pieces_raise():
    graph = CallGraph(Sequence((FunctionNode("f1"), FunctionNode("f2"))))
    profiles = _two_function_profiles()
    with pytest.raises(PartialConfiguration):
        estimate_time(graph, {"f1": 128}, profiles)
    with pytest.raises(MissingProfile):
        estimate_time(graph, {"f1": 128, "f2": 512}, profiles)
    with pytest.raises(MissingProfile, match="'f2'"):
        estimate_time(graph, {"f1": 128, "f2": 128}, {"f1": profiles["f1"]})
    with pytest.raises(PartialConfiguration):
        estimate_cost(graph, {"f1": 128}, profiles, CostModel())
