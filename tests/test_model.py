import copy
import dataclasses
import io
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from faastune import (
    CallGraph,
    CostModel,
    FunctionNode,
    FunctionProfile,
    MemoryLadder,
    Parallel,
    Sequence,
    SloSpec,
    configuration_cost,
    estimate_cost,
    estimate_time,
    generate_app,
    monotone_repair,
    parse_trace_file,
    run_load,
    validate_config,
    write_trace_file,
)
from faastune.errors import DuplicateFunction, EmptyGroup, MissingProfile, PartialConfiguration
from faastune.model import check_configuration
from faastune.sim import SHAPES
from helpers import make_profile, messy_tree


def test_default_ladder_is_capped_at_2gb():
    ladder = MemoryLadder()
    assert ladder.effective() == (128, 256, 512, 1024, 2048)
    assert ladder.maximum == 2048


def test_uncapped_ladder_keeps_all_values():
    ladder = MemoryLadder(cap_mb=None)
    assert ladder.effective()[-1] == 10240
    assert len(ladder.effective()) == 8


@pytest.mark.parametrize(
    "values",
    [(), (128, 128), (256, 128), (0, 128), (128, -5), (True, 2)],
)
def test_bad_ladders_rejected(values):
    with pytest.raises(ValueError):
        MemoryLadder(values=values, cap_mb=None)


def test_bool_cap_rejected():
    """A bool is an int: a cap of True used to cap (1, 2) at 1 MB."""
    with pytest.raises(ValueError, match="cap_mb must be a positive integer or None, got True"):
        MemoryLadder(values=(1, 2), cap_mb=True)


@pytest.mark.parametrize("cap", ["512", 300.5, 512.0, [512]])
def test_cap_that_is_not_an_integer_is_a_value_error_naming_it(cap):
    """``cap_mb`` is declared ``int``: a string used to fail with a bare
    TypeError from a comparison, and 300.5 was accepted."""
    with pytest.raises(ValueError, match=f"got {re.escape(repr(cap))}$"):
        MemoryLadder(values=(128, 256), cap_mb=cap)


def test_cap_below_smallest_value_rejected():
    with pytest.raises(ValueError):
        MemoryLadder(values=(256, 512), cap_mb=128)


def test_slo_spec_validation():
    with pytest.raises(ValueError):
        SloSpec(slo_seconds=0)
    with pytest.raises(ValueError):
        SloSpec(slo_seconds=1.0, percentile=0)
    with pytest.raises(ValueError, match="slo_seconds must be positive and finite, got True"):
        SloSpec(slo_seconds=True)
    with pytest.raises(ValueError, match="percentile must be in \\(0, 100\\], got True"):
        SloSpec(slo_seconds=1.0, percentile=True)
    assert SloSpec(2.5).percentile == 95.0


@pytest.mark.parametrize("fields,value", [
    ({"slo_seconds": "3"}, "'3'"),
    ({"slo_seconds": None}, "None"),
    ({"slo_seconds": [3.0]}, r"\[3.0\]"),
    ({"slo_seconds": 1.0, "percentile": "95"}, "'95'"),
    ({"slo_seconds": 1.0, "percentile": None}, "None"),
])
def test_slo_field_that_is_not_a_number_is_a_value_error_naming_it(fields, value):
    """Non-numeric fields used to fail with a bare TypeError from a
    comparison."""
    with pytest.raises(ValueError, match=f"got {value}$"):
        SloSpec(**fields)


# --- normalization -----------------------------------------------------------


def test_nested_single_sequences_collapse_to_function():
    graph = CallGraph(Sequence((Sequence((FunctionNode("f1"),)),)))
    assert graph.root == FunctionNode("f1")


def test_parallel_of_one_is_an_arity_violation():
    with pytest.raises(EmptyGroup):
        CallGraph(Parallel((FunctionNode("f1"),)))


def test_empty_sequence_rejected():
    with pytest.raises(EmptyGroup):
        CallGraph(Sequence(()))


def test_empty_function_name_rejected():
    with pytest.raises(ValueError, match="^function name must be non-empty$"):
        FunctionNode("")


def test_normal_form_untouched():
    root = Sequence((FunctionNode("f1"), Parallel((FunctionNode("f2"), FunctionNode("f3")))))
    assert CallGraph(root).root == root


def test_duplicate_function_rejected():
    with pytest.raises(DuplicateFunction):
        CallGraph(Sequence((FunctionNode("f1"), FunctionNode("f1"))))


def test_parallel_children_are_ordered_canonically():
    a = Sequence((FunctionNode("z"), FunctionNode("b")))
    b = FunctionNode("a")
    graph = CallGraph(Parallel((a, b)))
    assert graph.root.children[0] == b  # ordered by smallest contained name


def _leaves(node):
    if isinstance(node, FunctionNode):
        return [node.name]
    return [name for child in node.children for name in _leaves(child)]


@pytest.mark.parametrize("seed", range(40))
def test_normalize_is_idempotent(seed):
    rng = random.Random(seed)
    names = [f"f{i}" for i in range(1, rng.randint(2, 9))]
    once = CallGraph(messy_tree(rng, names))
    assert CallGraph(once.root) == once
    assert once.functions() == tuple(_leaves(once.root))
    assert sorted(once.functions()) == sorted(names)


# --- cost --------------------------------------------------------------------


def test_single_function_cost_matches_hand_computation():
    profiles = {"f1": make_profile("f1", {1024: 2.0})}
    cost = configuration_cost({"f1": 1024}, profiles, CostModel(usd_per_gb_second=1.6667e-5))
    assert cost == pytest.approx(3.3334e-5, rel=1e-12)


def test_zero_duration_costs_nothing():
    profiles = {"f1": make_profile("f1", {128: 0.0})}
    assert configuration_cost({"f1": 128}, profiles, CostModel()) == 0.0


def test_billing_rounds_up_to_granularity():
    model = CostModel(billing_granularity_ms=100)
    assert model.cost_units(1.05, 128) == 1100 * 128
    assert model.cost_units(1.1, 128) == 1100 * 128
    default = CostModel()
    assert default.cost_units(0.1, 256) == 100 * 256  # exact tick stays put
    assert default.cost_units(1.0005, 256) == 1001 * 256


def test_a_positive_duration_bills_at_least_one_tick():
    """The 1e-9 tick slack used to round a positive duration of at most 1e-9
    ticks down to nothing: a 1 s call at 10**12 ms ticks, or 1e-12 s at 1 ms."""
    assert CostModel(billing_granularity_ms=10**12).cost_units(1.0, 128) == 10**12 * 128
    assert CostModel(billing_granularity_ms=2**1023).cost_units(5.0, 128) == 2**1023 * 128
    assert CostModel().cost_units(1e-12, 128) == 128
    assert CostModel().cost_units(5e-324, 128) == 128
    assert CostModel().cost_units(0.0, 128) == 0


@pytest.mark.parametrize("price,shown", [
    ("1", "'1'"),
    (None, "None"),
    (True, "True"),
    (False, "False"),
    (0.0, "0.0"),
    (float("inf"), "inf"),
], ids=["text", "none", "true", "false", "zero", "inf"])
def test_price_that_is_not_a_positive_number_is_a_value_error_naming_it(price, shown):
    """A string used to fail with a bare TypeError from a comparison, and
    True was accepted as a price of 1.0."""
    with pytest.raises(ValueError, match=f"usd_per_gb_second must be positive and finite, got {shown}$"):
        CostModel(usd_per_gb_second=price)


@pytest.mark.parametrize("gran", [0, -1, 10**400, True, 1.5, 100.0],
                         ids=["zero", "negative", "beyond-float", "bool", "fraction", "float"])
def test_billing_granularity_must_be_a_positive_integer_within_the_float_range(gran):
    """10**400 ms used to fail only when billed, with a bare OverflowError;
    True billed 1 ms ticks and 1.5 fractional ones."""
    with pytest.raises(ValueError, match="billing_granularity_ms must be a positive integer"):
        CostModel(billing_granularity_ms=gran)


def test_billing_rejects_a_duration_whose_tick_count_overflows():
    """From about 1.8e305 s the duration in milliseconds is infinite and
    bills no whole number of ticks; just below, the count is still exact."""
    model = CostModel()
    with pytest.raises(ValueError, match="finite number of ticks, got 1.8e\\+305"):
        model.cost_units(1.8e305, 128)
    assert model.cost_units(1.7e305, 128) == int(1.7e305 * 1000.0) * 128  # a whole float


def test_cost_monotone_and_linear_in_memory_at_fixed_duration():
    model = CostModel()
    duration = 1.5
    profiles = {
        "f1": make_profile("f1", {m: duration for m in (128, 256, 512, 1024)})
    }
    costs = [configuration_cost({"f1": m}, profiles, model) for m in (128, 256, 512, 1024)]
    assert costs == sorted(costs)
    assert costs[1] == pytest.approx(2 * costs[0], rel=1e-12)
    assert costs[3] == pytest.approx(8 * costs[0], rel=1e-12)


def test_missing_profile_raises():
    with pytest.raises(MissingProfile):
        configuration_cost({"f1": 128}, {}, CostModel())
    profiles = {"f1": make_profile("f1", {128: 1.0})}
    with pytest.raises(MissingProfile):
        configuration_cost({"f1": 256}, profiles, CostModel())


# --- profiles ----------------------------------------------------------------


def _counted_profile():
    return FunctionProfile("f1", 95.0, {128: 2.0, 256: 3.0, 512: 1.0}, {128: 4, 256: 5, 512: 6})


def test_profile_mappings_are_read_only():
    for profile in (_counted_profile(), make_profile("f1", {128: 2.0})):
        with pytest.raises(TypeError):
            profile.representatives[128] = 0.5
        with pytest.raises(TypeError):
            profile.sample_counts[128] = 9


def test_profile_is_unchanged_by_the_dicts_passed_in():
    representatives, counts = {128: 2.0, 256: 1.0}, {128: 4, 256: 5}
    profile = FunctionProfile("f1", 95.0, representatives, counts)
    representatives[256] = 0.5
    representatives[512] = 0.25
    del counts[128]
    assert profile.memories() == (128, 256)
    assert profile.representative(256) == 1.0
    assert profile.sample_count(128) == 4


@pytest.mark.parametrize("round_trip", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy])
def test_profile_pickle_and_deepcopy_round_trips_compare_equal(round_trip):
    for profile in (_counted_profile(), make_profile("f1", {128: 2.0})):
        again = round_trip(profile)
        assert again == profile and again is not profile
        with pytest.raises(TypeError):
            again.representatives[128] = 0.5


def test_replace_and_monotone_repair_give_read_only_profiles():
    profile = _counted_profile()
    changed = dataclasses.replace(profile, representatives={128: 2.0, 256: 1.5, 512: 1.0})
    repaired = monotone_repair(profile)
    assert changed.representative(256) == 1.5 and profile.representative(256) == 3.0
    assert dict(repaired.representatives) == {128: 2.0, 256: 2.0, 512: 1.0}
    for derived in (changed, repaired):
        assert derived.sample_counts == {128: 4, 256: 5, 512: 6}
        with pytest.raises(TypeError):
            derived.representatives[128] = 0.5


@pytest.mark.parametrize("representatives", [
    {}, {128: -0.0}, {128: 5e-324, 256: 0.0}, {128: 1e308, 256: 1e308},
], ids=["empty", "minus-zero", "subnormal", "sum-overflows"])
def test_finite_non_negative_representatives_build_a_profile(representatives):
    profile = make_profile("f1", representatives)
    assert list(map(float.hex, profile.representatives.values())) == list(
        map(float.hex, representatives.values())
    )


def test_every_way_of_building_a_profile_checks_its_representatives():
    """The first bad value in the mapping's order is named, whether the
    profile is built directly or derived with ``replace``."""
    with pytest.raises(ValueError, match="^representative of 'f1' at 256 MB is inf, not finite"):
        FunctionProfile("f1", 95.0, {128: 1.0, 256: math.inf, 512: math.nan})
    with pytest.raises(ValueError, match="^representative of 'f1' at 512 MB is NaN$"):
        dataclasses.replace(_counted_profile(), representatives={128: 2.0, 512: math.nan})
    with pytest.raises(ValueError, match="'f1' at 128 MB is -1e-300, not finite and non-negative"):
        FunctionProfile("f1", 95.0, {128: -1e-300, 256: 1e308, 512: 1e308})


@pytest.mark.parametrize("kwargs,message", [
    (dict(alpha=150.0), "^alpha of 'f1' must be a number in \\[0, 100\\], got 150.0$"),
    (dict(alpha=math.nan), "^alpha of 'f1' must be a number in \\[0, 100\\], got nan$"),
    (dict(alpha=True), "^alpha of 'f1' must be a number in \\[0, 100\\], got True$"),
    (dict(representatives={128: 1.0, 0: 1.0}), "^memory size of 'f1' must be a positive integer, got 0$"),
    (dict(representatives={True: 1.0}), "^memory size of 'f1' must be a positive integer, got True$"),
    (dict(representatives={128.0: 1.0}), "^memory size of 'f1' must be a positive integer, got 128.0$"),
    (dict(representatives={128: True}), "^representative of 'f1' at 128 MB is True, not a number$"),
    (dict(representatives={128: 1.0, 256: "1.5"}),
     "^representative of 'f1' at 256 MB is '1.5', not a number$"),
    (dict(representatives={128: None}), "^representative of 'f1' at 128 MB is None, not a number$"),
    (dict(representatives={128: 10**400}),
     "^representative of 'f1' at 128 MB is beyond the float range$"),
    (dict(representatives={128: -10**400}),
     "^representative of 'f1' at 128 MB is beyond the float range$"),
    (dict(sample_counts={128: -3}),
     "^sample count of 'f1' at 128 MB must be a non-negative integer, got -3$"),
    (dict(sample_counts={128: True}),
     "^sample count of 'f1' at 128 MB must be a non-negative integer, got True$"),
    (dict(sample_counts={0: 3}), "^memory size of 'f1' must be a positive integer, got 0$"),
    (dict(sample_counts={128: 3, 999: 5}),
     r"^sample counts of 'f1' are at \[128, 999\] MB, its representatives at \[128\] MB$"),
    (dict(representatives={128: 1.0, 256: 0.5}, sample_counts={256: 0}),
     r"^sample counts of 'f1' are at \[256\] MB, its representatives at \[128, 256\] MB$"),
], ids=["alpha-150", "alpha-nan", "alpha-bool", "zero-memory", "bool-memory", "float-memory",
        "bool-representative", "text-representative", "null-representative",
        "int-representative-beyond-float", "negative-int-representative-beyond-float",
        "negative-count", "bool-count", "count-at-zero-memory",
        "count-at-extra-memory", "count-missing-a-memory"])
def test_a_profile_field_its_file_cannot_carry_raises(kwargs, message):
    """A profile takes only what ``save_profiles`` can write and
    ``load_profiles`` read back."""
    fields = dict(function="f1", alpha=95.0, representatives={128: 1.0}) | kwargs
    with pytest.raises(ValueError, match=message):
        FunctionProfile(**fields)


def test_default_profiles_share_one_empty_sample_counts():
    first, second = make_profile("f1", {128: 2.0}), make_profile("f2", {256: 1.0})
    assert first.sample_counts is second.sample_counts
    assert len(first.sample_counts) == 0 and first.sample_count(128) == 0
    assert pickle.loads(pickle.dumps(first)).sample_counts is first.sample_counts


def test_all_zero_sample_counts_are_no_counts():
    """A table saved without counts writes 0 in every row; reading it back
    gives the profile that was saved."""
    zeros = FunctionProfile("f1", 95.0, {128: 2.0, 256: 1.0}, {128: 0, 256: 0})
    assert zeros.sample_counts is make_profile("f2", {128: 2.0}).sample_counts
    assert zeros == make_profile("f1", {128: 2.0, 256: 1.0})
    some = FunctionProfile("f1", 95.0, {128: 2.0, 256: 1.0}, {128: 0, 256: 4})
    assert dict(some.sample_counts) == {128: 0, 256: 4}


# --- configurations ----------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_check_configuration_names_the_first_missing_function_in_execution_order(shape):
    graph = generate_app(6, shape, seed=5).graph
    functions = graph.functions()
    for k in range(len(functions)):
        for present in (functions[:k], functions[:k] + functions[k + 1:]):
            with pytest.raises(PartialConfiguration) as error:
                check_configuration(graph, dict.fromkeys(present, 128))
            assert error.value.function == functions[k]


def _profiles(graph):
    return {f: make_profile(f, {128: 1.0, 256: 0.5}) for f in graph.functions()}


#: The library entry points that take a configuration, each called with a
#: demo3 app, a configuration and a generator.
_TAKES_A_CONFIGURATION = {
    "run_load": lambda app, config, rng: run_load(app, config, 2, rng),
    "validate_config": lambda app, config, rng: validate_config(
        app, config, SloSpec(10.0), n_requests=2, rng=rng),
    "estimate_time": lambda app, config, rng: estimate_time(app.graph, config, _profiles(app.graph)),
    "estimate_cost": lambda app, config, rng: estimate_cost(
        app.graph, config, _profiles(app.graph), CostModel()),
}


@pytest.mark.parametrize("entry", list(_TAKES_A_CONFIGURATION))
@pytest.mark.parametrize("config,error,match", [
    pytest.param({"f1": 128, "f3": 128}, PartialConfiguration, "'f2'", id="missing"),
    pytest.param({"f1": 128, "f2": 128, "f3": 128, "f9": 128}, ValueError,
                 r"unknown functions: \['f9'\]", id="unknown"),
    pytest.param({"f1": 128, "f2": True, "f3": 128}, ValueError, "got True", id="bool"),
    pytest.param({"f1": 128, "f2": 512.5, "f3": 128}, ValueError, "got 512.5", id="float"),
    pytest.param({"f1": 128, "f2": 0, "f3": 128}, ValueError, "got 0", id="zero"),
    pytest.param({"f1": 128, "f2": -128, "f3": 128}, ValueError, "got -128", id="negative"),
])
def test_entry_points_apply_the_configuration_check(entry, config, error, match):
    """Each raises what ``check_configuration`` raises, before any draw."""
    app = generate_app(shape="demo3", seed=0)
    with pytest.raises(error, match=match) as expected:
        check_configuration(app.graph, config)
    rng = random.Random(0)
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        _TAKES_A_CONFIGURATION[entry](app, config, rng)
    assert rng.getstate() == random.Random(0).getstate()


#: Memory sizes ``check_configuration`` refuses: not positive, or not an int.
_BAD_MEMORY = st.one_of(st.integers(-2, 0), st.booleans(), st.floats(0.5, 4096.0))


@given(st.sampled_from(SHAPES), st.lists(st.integers(1, 2**40), min_size=10, max_size=10),
       st.none() | st.tuples(st.integers(0, 9), _BAD_MEMORY), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_run_load_traces_read_back_for_every_accepted_configuration(shape, memories, bad, seed):
    """``run_load`` refuses what ``check_configuration`` refuses; what it
    accepts, ``parse_trace_file`` reads back from the written file."""
    app = generate_app(6, shape, seed=seed)
    if bad is not None:
        memories[bad[0]] = bad[1]
    config = dict(zip(app.graph.functions(), memories))
    try:
        check_configuration(app.graph, config)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            run_load(app, config, 2, random.Random(seed))
        return
    log = run_load(app, config, 2, random.Random(seed))
    written = io.StringIO()
    write_trace_file(log, written)
    assert parse_trace_file(io.StringIO(written.getvalue())) == log
