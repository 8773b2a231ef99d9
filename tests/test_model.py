import pickle
import random

import pytest

from faastune import (
    CallGraph,
    CostModel,
    ExecutionSample,
    FunctionNode,
    MemoryLadder,
    Parallel,
    Sequence,
    SloSpec,
    configuration_cost,
)
from faastune.errors import DuplicateFunction, EmptyGroup, MissingProfile
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
    [(), (128, 128), (256, 128), (0, 128), (128, -5)],
)
def test_bad_ladders_rejected(values):
    with pytest.raises(ValueError):
        MemoryLadder(values=values, cap_mb=None)


def test_cap_below_smallest_value_rejected():
    with pytest.raises(ValueError):
        MemoryLadder(values=(256, 512), cap_mb=128)


def test_sample_validation():
    with pytest.raises(ValueError):
        ExecutionSample(function="f1", memory_mb=128, duration_s=-0.1)
    with pytest.raises(ValueError):
        ExecutionSample(function="", memory_mb=128, duration_s=1.0)


def test_samples_are_immutable_checked_tuples():
    sample = ExecutionSample("f1", 128, 1.0)
    assert sample == ExecutionSample(function="f1", memory_mb=128, duration_s=1.0, cold_start=False)
    with pytest.raises(AttributeError):
        sample.duration_s = 2.0
    with pytest.raises(AttributeError):
        sample.extra = 1
    with pytest.raises(ValueError):
        sample._replace(memory_mb=0)
    assert pickle.loads(pickle.dumps(sample)) == sample


def test_slo_spec_validation():
    with pytest.raises(ValueError):
        SloSpec(slo_seconds=0)
    with pytest.raises(ValueError):
        SloSpec(slo_seconds=1.0, percentile=0)
    assert SloSpec(2.5).percentile == 95.0


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
