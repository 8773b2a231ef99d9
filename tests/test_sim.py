import dataclasses
import hashlib
import io
import json
import math
import random
import re
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from faastune import (
    FunctionNode,
    MemoryLadder,
    Parallel,
    Sequence,
    SimApp,
    SimFunctionSpec,
    SloSpec,
    build_call_graph,
    build_profiles,
    estimate_time,
    extract_samples,
    generate_app,
    load_app,
    profile_application,
    profile_samples,
    run_load,
    save_app,
    validate_config,
    write_trace_file,
)
from faastune import model, sim
from faastune.errors import InvalidShape, SchemaError
from faastune.model import CallGraph
from faastune.profiles import percentile_linear
from faastune.sim import CPU_SATURATION_MB, SHAPES, ValidationReport
from faastune.traces import compose_calls, graph_to_dict
from helpers import end_to_end_durations, log_segments, noiseless


def _compute_spec(work=512.0, **kw):
    return SimFunctionSpec(work=work, **kw)


# --- shapes ------------------------------------------------------------------


def test_demo3_is_one_function_invoking_two_in_sequence():
    app = generate_app(shape="demo3", seed=0)
    assert app.graph.root == Sequence(
        (FunctionNode("f1"), FunctionNode("f2"), FunctionNode("f3"))
    )


@pytest.mark.parametrize("shape,count", [("demo6", 6), ("demo10", 10)])
def test_demo_shapes_have_expected_sizes_and_parallelism(shape, count):
    app = generate_app(shape=shape, seed=0)
    assert len(app.graph.functions()) == count
    assert CallGraph(app.graph.root) == app.graph

    def has_parallel(node):
        if isinstance(node, Parallel):
            return True
        return not isinstance(node, FunctionNode) and any(has_parallel(c) for c in node.children)

    assert has_parallel(app.graph.root)


def test_petstore_is_a_five_function_chain_with_two_backends():
    app = generate_app(shape="petstore", seed=0)
    assert app.graph.functions() == (
        "pet-checkout", "pet-currency", "pet-payment", "pet-shipping", "pet-email",
    )
    assert sum(len(v) for v in app.baas_children.values()) == 2
    assert app.specs["pet-payment"].kind == "baas_bound"
    assert app.specs["pet-shipping"].kind == "baas_bound"


def test_single_function_chain_is_a_bare_node():
    app = generate_app(n_functions=1, shape="chain", seed=0)
    assert app.graph.root == FunctionNode("f1")


def test_invalid_shapes_rejected():
    with pytest.raises(InvalidShape):
        generate_app(shape="mystery")
    with pytest.raises(InvalidShape):
        generate_app(n_functions=0, shape="chain")


@pytest.mark.parametrize("shape", ["chain", "random"])
@pytest.mark.parametrize("n_functions", [True, False, 2.5, "3", None, 0])
def test_a_function_count_that_is_not_a_positive_integer_is_an_invalid_shape(
        shape, n_functions, monkeypatch):
    """Refused before anything is drawn: the generator is never built."""
    monkeypatch.setattr(sim, "random", None)
    with pytest.raises(InvalidShape, match="^n_functions must be an integer of at least 1, got "):
        generate_app(n_functions, shape)


@pytest.mark.parametrize("shape", ["chain", "random", "demo3"])
@pytest.mark.parametrize("seed", ["x", 1.5, b"y", True, None])
def test_a_seed_that_is_not_an_integer_is_an_invalid_shape(shape, seed, monkeypatch):
    """Refused before anything is drawn, with ``SimApp``'s message: neither
    the generator nor the random topology is built."""
    def no_draw(*args):
        raise AssertionError("drew an app for a seed that is not an integer")

    monkeypatch.setattr(sim, "_random_calls", no_draw)
    monkeypatch.setattr(sim, "random", None)
    message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(InvalidShape, match=message):
        generate_app(3, shape, seed)


def test_generation_deterministic_per_seed():
    assert generate_app(7, "random", seed=9) == generate_app(7, "random", seed=9)
    assert generate_app(7, "random", seed=9) != generate_app(7, "random", seed=10)


# --- duration model ----------------------------------------------------------


def _one_call(spec, memory_mb, rng):
    """Duration and cold-start flag of one request to a one-function app."""
    app = SimApp(graph=CallGraph(FunctionNode("f1")), specs={"f1": spec})
    (segment,) = log_segments(run_load(app, {"f1": memory_mb}, 1, rng))
    return segment.end_time - segment.start_time, segment.cold_start


def test_memory_doubling_halves_compute_time_below_saturation():
    spec = _compute_spec(work=512.0)
    d128, _ = _one_call(spec, 128, random.Random(0))
    d256, _ = _one_call(spec, 256, random.Random(0))
    assert d128 == pytest.approx(2 * d256, rel=1e-12)


def test_memory_saturates_at_vcpu_limit():
    spec = _compute_spec(work=512.0)
    d2048, _ = _one_call(spec, 2048, random.Random(0))
    d4096, _ = _one_call(spec, 4096, random.Random(0))
    assert d2048 == d4096 == 512.0 / CPU_SATURATION_MB


def test_backend_bound_time_ignores_memory():
    spec = SimFunctionSpec(kind="baas_bound", baas_latency_s=0.3)
    d128, _ = _one_call(spec, 128, random.Random(0))
    d1024, _ = _one_call(spec, 1024, random.Random(0))
    assert d128 == d1024 == 0.3


def test_certain_cold_start_adds_penalty():
    spec = _compute_spec(work=128.0, cold_start_prob=1.0, cold_start_s=0.5)
    duration, cold = _one_call(spec, 128, random.Random(0))
    assert cold is True
    assert duration == pytest.approx(1.5)


def test_jitter_is_reproducible_per_seed():
    spec = _compute_spec(jitter_cv=0.2)
    a, _ = _one_call(spec, 128, random.Random(4))
    b, _ = _one_call(spec, 128, random.Random(4))
    assert a == b != 512.0 / 128


@pytest.mark.parametrize("jitter_cv,cold_start_prob", [
    (0.0, 0.0), (1e-200, 0.0), (0.0, 1.0), (0.2, 0.5), (0.05, 0.02),
])
def test_each_call_draws_one_lognormal_then_one_uniform(jitter_cv, cold_start_prob):
    """The duration model, bit for bit: a lognormal draw exactly when there is
    jitter (even when its sigma underflows to 0), then a uniform draw exactly
    when a cold start is possible."""
    spec = _compute_spec(work=300.0, jitter_cv=jitter_cv, cold_start_prob=cold_start_prob,
                         cold_start_s=0.25)
    for seed in range(20):
        rng, reference = random.Random(seed), random.Random(seed)
        duration, cold = _one_call(spec, 256, rng)
        expected = 300.0 / 256
        if jitter_cv > 0:
            sigma = math.sqrt(math.log(1.0 + jitter_cv**2))
            expected *= reference.lognormvariate(-0.5 * sigma * sigma, sigma)
        expected_cold = cold_start_prob > 0 and reference.random() < cold_start_prob
        if expected_cold:
            expected += 0.25
        assert (duration, cold) == (expected, expected_cold)
        assert rng.getstate() == reference.getstate()


def test_simulation_rejects_non_positive_memory_and_non_finite_specs():
    app = generate_app(shape="demo3", seed=0)
    config = {f: 128 for f in app.graph.functions()}
    with pytest.raises(ValueError, match="memory must be a positive integer"):
        validate_config(app, {**config, "f2": -128}, SloSpec(1.0), 1, random.Random(0))
    with pytest.raises(ValueError, match="n_requests must be at least 1"):
        validate_config(app, config, SloSpec(1.0), n_requests=0, rng=random.Random(0))
    chain = generate_app(2, "chain", seed=0)
    huge = {name: _compute_spec(work=1.5e308) for name in chain.specs}
    with pytest.raises(ValueError, match="finite"):  # 1.5e308 s twice overflows
        validate_config(dataclasses.replace(chain, specs=huge), {"f1": 1, "f2": 1}, SloSpec(1.0),
                        1, random.Random(0))
    with pytest.raises(ValueError, match="finite"):
        _compute_spec(work=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        _compute_spec(cold_start_s=float("nan"))


@pytest.mark.parametrize("field", ["work", "baas_latency_s", "cold_start_s",
                                   "cold_start_prob", "jitter_cv"])
def test_spec_numbers_reject_booleans_but_take_integers(field):
    baas = field == "baas_latency_s"
    fields = {"kind": "baas_bound" if baas else "compute", "work": 0 if baas else 512,
              "baas_latency_s": 1 if baas else None, "cold_start_s": 0, "cold_start_prob": 0,
              "jitter_cv": 0}
    SimFunctionSpec(**fields)  # JSON integers stay numbers
    with pytest.raises(ValueError, match=f"^{field} must be a number, not a boolean$"):
        SimFunctionSpec(**{**fields, field: True})


@pytest.mark.parametrize("fields, message", [
    (dict(work="1"), "work must be a number, got '1'"),
    (dict(work=None), "work must be a number, got None"),
    (dict(work=1, jitter_cv="x"), "jitter_cv must be a number, got 'x'"),
    (dict(kind="baas_bound", baas_latency_s="0.2"), "baas_latency_s must be a number, got '0.2'"),
    (dict(kind="baas_bound", work=None, baas_latency_s=0.2), "work must be a number, got None"),
], ids=["text-work", "null-work", "text-jitter", "text-latency", "null-work-of-baas"])
def test_spec_numbers_reject_what_is_not_a_number(fields, message):
    """A value that is not an int or float is a ValueError naming its field,
    not a TypeError from a comparison, and a backend-bound function's unused
    work is checked too."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SimFunctionSpec(**fields)


@pytest.mark.parametrize("fields, message", [
    (dict(work=1, baas_latency_s=0.2), "a compute function takes no baas_latency_s, got 0.2"),
    (dict(kind="baas_bound", work=512, baas_latency_s=0.2),
     "a baas_bound function takes no work, got 512"),
    (dict(kind="baas_bound", work=math.nan, baas_latency_s=0.2),
     "a baas_bound function takes no work, got nan"),
], ids=["latency-of-compute", "work-of-baas", "nan-work-of-baas"])
def test_spec_rejects_the_field_its_kind_ignores(fields, message):
    """A spec file carries only the field its kind reads, so a spec that
    sets the other is rejected rather than saved without it."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SimFunctionSpec(**fields)


def test_an_ignored_field_fails_after_every_other_check():
    """The ignored-field check runs last, so a spec with another fault still
    reports that one first."""
    with pytest.raises(ValueError, match="^compute functions need positive, finite work$"):
        SimFunctionSpec(work=0, baas_latency_s=0.2)
    with pytest.raises(ValueError, match=r"^cold_start_prob must be in \[0, 1\]$"):
        SimFunctionSpec(kind="baas_bound", work=5, baas_latency_s=0.2, cold_start_prob=2)


@pytest.mark.parametrize("make, message", [
    (lambda: SimFunctionSpec(work=1, kind="x"), "kind must be 'compute' or 'baas_bound', got 'x'"),
    (lambda: SimFunctionSpec(kind="baas_bound", baas_latency_s=math.inf),
     "baas_bound functions need positive, finite baas_latency_s"),
    (lambda: SimFunctionSpec(work=1, cold_start_prob=1.5), "cold_start_prob must be in [0, 1]"),
    (lambda: SimApp(graph=CallGraph(FunctionNode("f1")), specs={}),
     "specs must cover exactly the graph's functions"),
    (lambda: SimApp(graph=CallGraph(FunctionNode("f1")), specs={"f1": _compute_spec()},
                    baas_children={"f9": ("db",)}),
     "baas_children parent 'f9' is not a function"),
], ids=["unknown-kind", "infinite-latency", "probability-above-one", "missing-spec",
        "unknown-backend-parent"])
def test_specs_and_apps_reject_what_they_cannot_simulate(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# --- load runs ---------------------------------------------------------------


def test_run_load_emits_k_traces():
    app = generate_app(shape="demo3", seed=1)
    config = {f: 128 for f in app.graph.functions()}
    log = run_load(app, config, 50, random.Random(0))
    assert len(log.traces) == 50


def test_noiseless_run_matches_estimate_exactly():
    app = noiseless(generate_app(shape="demo10", seed=2))
    config = {f: 256 for f in app.graph.functions()}
    log = run_load(app, config, 1, random.Random(0))
    samples = extract_samples(log)
    profiles = build_profiles(samples, MemoryLadder(values=(256,), cap_mb=None), alpha=75)
    estimated = estimate_time(app.graph, config, profiles)
    (observed,) = end_to_end_durations(log)
    assert observed == pytest.approx(estimated, abs=1e-9)


def test_parallel_pair_runs_in_single_function_time():
    graph = CallGraph(Sequence((
        FunctionNode("f1"),
        Parallel((FunctionNode("f2"), FunctionNode("f3"))),
    )))
    specs = {name: _compute_spec(work=256.0) for name in graph.functions()}
    app = SimApp(graph=graph, specs=specs)
    config = {f: 128 for f in graph.functions()}
    (duration,) = end_to_end_durations(run_load(app, config, 1, random.Random(0)))
    assert duration == pytest.approx(2 * (256.0 / 128))  # f1 plus one of the pair


def _assert_segment_layout(log):
    """Each trace of a chain app has one root, backend calls inside their
    function's span, invoked functions starting no earlier than their
    invoker, and siblings one after another."""
    for segments in log.traces.values():
        by_id = {s.segment_id: s for s in segments}
        roots = [s for s in segments if s.parent_id is None]
        assert len(roots) == 1
        children = {}
        for s in segments:
            if s.parent_id:
                children.setdefault(s.parent_id, []).append(s)
                parent = by_id[s.parent_id]
                if s.kind == "baas":
                    # backend calls happen inside their function's span
                    assert parent.start_time <= s.start_time <= s.end_time <= parent.end_time
                else:
                    # invoked functions cannot start before their invoker
                    assert s.start_time >= parent.start_time
        for siblings in children.values():
            functions = sorted(
                (s for s in siblings if s.kind == "function"), key=lambda s: s.start_time
            )
            for a, b in zip(functions, functions[1:]):
                assert a.end_time <= b.start_time  # a chain: strictly sequential


def test_segment_layout_invariants():
    app = generate_app(shape="petstore", seed=3)
    config = {f: 512 for f in app.graph.functions()}
    _assert_segment_layout(run_load(app, config, 5, random.Random(1)))


def test_segment_layout_invariants_with_three_backends_per_function():
    app = generate_app(8, shape="chain", seed=3)
    specs = {name: dataclasses.replace(spec, jitter_cv=0.05) for name, spec in app.specs.items()}
    baas = {name: tuple(f"{name}-db{j}" for j in range(3)) for name in app.graph.functions()}
    app = dataclasses.replace(app, specs=specs, baas_children=baas)
    config = {f: 512 for f in app.graph.functions()}
    _assert_segment_layout(run_load(app, config, 20, random.Random(1)))


@pytest.mark.parametrize("backends", [3, 4, 5])
def test_segment_layout_invariants_with_spans_near_the_float_maximum(backends):
    """``duration * j`` overflows on f1's span (1e308 * 2), yet every
    boundary of the even split stays inside its function's span."""
    graph = CallGraph(compose_calls("f1", {"f1": [["f2"], ["f3"]]}))
    latencies = {"f1": 1e308, "f2": 3e307, "f3": 4e307}  # the finish, 1.7e308, is finite
    specs = {name: SimFunctionSpec(kind="baas_bound", baas_latency_s=latency)
             for name, latency in latencies.items()}
    baas = {name: tuple(f"{name}-db{j}" for j in range(backends)) for name in latencies}
    app = SimApp(graph=graph, specs=specs, baas_children=baas)
    log = run_load(app, dict.fromkeys(latencies, 512), 2, random.Random(1))
    _assert_segment_layout(log)
    assert sum(s.kind == "baas" for s in log_segments(log)) == 2 * 3 * backends


_FLOAT_MAX = sys.float_info.max


@given(
    st.one_of(st.floats(0, _FLOAT_MAX), st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308])),
    st.one_of(st.floats(0, _FLOAT_MAX),
              st.sampled_from([5e-324, 1.5e-323, 2.225073858507201e-308, 1e308, _FLOAT_MAX])),
)
@example(0.0, 5e-324)  # the smallest subnormal: half of it rounds
@example(1e308, 7e307)
@example(0.0, _FLOAT_MAX)
def test_boundaries_of_one_or_two_backend_calls_equal_dividing_last(start, duration):
    """``start + duration * (j / n)`` times call j of n as ``start + duration
    * j / n`` did, bit for bit, for every boundary of one or two calls."""
    for n in (1, 2):
        for j in range(n):
            old, new = start + duration * j / n, start + duration * (j / n)
            assert old.hex() == new.hex(), (n, j)


def test_traces_are_byte_identical_per_seed():
    app = generate_app(shape="demo6", seed=4)
    config = {f: 256 for f in app.graph.functions()}

    def dump():
        log = run_load(app, config, 10, random.Random(11))
        buffer = io.StringIO()
        write_trace_file(log, buffer)
        return buffer.getvalue()

    assert dump() == dump()


@pytest.mark.parametrize("shape,seed", [
    *(pytest.param("random", seed, id=str(seed)) for seed in range(25)),
    *(pytest.param(shape, 3, id=shape) for shape in SHAPES if shape != "random"),
])
def test_round_trip_recovers_generated_graph(shape, seed):
    n = random.Random(seed).randint(1, 12)
    app = noiseless(generate_app(n, shape, seed=seed))
    config = {f: 128 for f in app.graph.functions()}
    log = run_load(app, config, 3, random.Random(seed))
    backends = {s.name for s in log_segments(log) if s.kind == "baas"}
    assert backends == {b for names in app.baas_children.values() for b in names}
    assert build_call_graph(log) == app.graph  # backend segments are dropped


@st.composite
def call_tables(draw):
    """A call table over f1..fn rooted at f1, with its functions' work units."""
    n = draw(st.integers(1, 10))
    calls = {"f1": []}
    for i in range(2, n + 1):
        groups = calls[draw(st.sampled_from(sorted(calls)))]
        if groups and draw(st.booleans()):
            groups[draw(st.integers(0, len(groups) - 1))].append(f"f{i}")
        else:
            groups.append([f"f{i}"])
        calls[f"f{i}"] = []
    work = draw(st.lists(st.sampled_from((64.0, 300.0, 1000.0)), min_size=n, max_size=n))
    return calls, dict(zip(calls, work))


@given(call_tables())
@example(({"f1": [["f2", "f3"], ["f6"]], "f2": [["f4", "f5"]], "f3": [], "f4": [["f7"]],
           "f5": [], "f6": [], "f7": []}, {f"f{i}": 300.0 for i in range(1, 8)}))
@settings(max_examples=60, deadline=None)
def test_composed_call_tables_simulate_and_rebuild_to_their_graph(table):
    calls, work = table
    graph = CallGraph(compose_calls("f1", calls))
    specs = {name: _compute_spec(work=work[name]) for name in graph.functions()}
    app = SimApp(graph=graph, specs=specs)
    log = run_load(app, {f: 128 for f in graph.functions()}, 2, random.Random(0))
    assert build_call_graph(log) == graph


def _report_from(durations, slo):
    """The report validate_config gives for these request latencies."""
    return ValidationReport(
        n_requests=len(durations),
        slo_seconds=slo.slo_seconds,
        percentile=slo.percentile,
        conformance=sum(1 for d in durations if d <= slo.slo_seconds) / len(durations),
        min_s=min(durations),
        median_s=percentile_linear(durations, 50),
        p95_s=percentile_linear(durations, 95),
        max_s=max(durations),
        at_percentile_s=percentile_linear(durations, slo.percentile),
    )


@given(
    call_tables(),
    st.lists(st.integers(0, 7), min_size=10, max_size=10),
    st.sampled_from([(0.0, 0.0), (1e-200, 0.0), (0.0, 1.0), (0.002, 0.001), (0.05, 0.02),
                     (0.3, 0.5)]),
    st.lists(st.sampled_from((128, 256, 1024, 3008)), min_size=10, max_size=10),
    st.integers(0, 2**32),
    st.one_of(st.integers(0, 29), st.sampled_from(("below", "above"))),
    st.floats(0.0, 100.0, exclude_min=True),
)
@example(({"f1": [["f2", "f3"], ["f6"]], "f2": [["f4", "f5"]], "f3": [], "f4": [["f7"]],
           "f5": [], "f6": [], "f7": []}, {f"f{i}": 300.0 for i in range(1, 8)}),
         [3, 7, 0, 5, 1, 6, 2, 0, 0, 0], (0.3, 0.5), [128] * 10, 0, 4, 90.0)
@example(({"f1": []}, {"f1": 300.0}), [0] * 10, (0.0, 0.0), [128] * 10, 0, 7, 100.0)
@settings(max_examples=80, deadline=None)
def test_validation_times_requests_as_their_traces_do(table, backends, noise, memories, seed,
                                                      slo_at, percentile):
    """validate_config's latencies are end_to_end_durations of run_load's
    traces, bit for bit, and it leaves the generator in the same state: one
    request at a time (each report's max is that request's latency) and as
    one report. The SLO is one request's own latency (``slo_at`` is its
    index), or the next float below the fastest or above the slowest, so a
    count of the sorted latencies at most the SLO is checked where it meets
    one exactly or none or all of them."""
    calls, work = table
    jitter_cv, cold_start_prob = noise
    graph = CallGraph(compose_calls("f1", calls))
    names = graph.functions()
    specs = {
        name: _compute_spec(work=work[name], jitter_cv=jitter_cv,
                            cold_start_prob=cold_start_prob, cold_start_s=0.2)
        for name in names
    }
    baas = {name: tuple(f"{name}-db{j}" for j in range(count))
            for name, count in zip(names, backends) if count}
    app = SimApp(graph=graph, specs=specs, baas_children=baas)
    config = dict(zip(names, memories))
    traced, validated = random.Random(seed), random.Random(seed)
    latencies = end_to_end_durations(run_load(app, config, 30, traced))
    if slo_at == "below":
        slo_seconds = math.nextafter(min(latencies), 0.0)
    elif slo_at == "above":
        slo_seconds = math.nextafter(max(latencies), math.inf)
    else:
        slo_seconds = latencies[slo_at]
    slo = SloSpec(slo_seconds, percentile=percentile)
    assert [
        validate_config(app, config, slo, n_requests=1, rng=validated).max_s for _ in range(30)
    ] == latencies
    assert validated.getstate() == traced.getstate()
    traced, validated = random.Random(seed), random.Random(seed)
    expected = _report_from(end_to_end_durations(run_load(app, config, 30, traced)), slo)
    assert validate_config(app, config, slo, n_requests=30, rng=validated) == expected
    assert validated.getstate() == traced.getstate()


def _reference_walk(app, config, n_requests, rng):
    """The simulator's walk drawn through ``rng.lognormvariate`` and
    ``rng.random``, one invocation at a time, without the inline draw."""
    table = []
    for name, _, after in app._plan:
        spec, memory_mb = app.specs[name], config[name]
        if spec.kind == "baas_bound":
            base = float(spec.baas_latency_s)
        else:
            base = spec.work / min(memory_mb, CPU_SATURATION_MB)
        sigma = None
        if spec.jitter_cv > 0:
            sigma = math.sqrt(math.log(1.0 + spec.jitter_cv**2))
        table.append((base, sigma, spec.cold_start_prob, spec.cold_start_s,
                      tuple(k + 1 for k in after) or (0,)))
    for _ in range(n_requests):
        starts, durations, colds, ends = [], [], [], [0.0]
        for base, sigma, cold_prob, cold_s, after in table:
            duration = base
            if sigma is not None:
                duration *= rng.lognormvariate(-0.5 * sigma * sigma, sigma)
            cold = cold_prob > 0 and rng.random() < cold_prob
            if cold:
                duration += cold_s
            start = max(ends[k] for k in after)
            starts.append(start)
            durations.append(duration)
            colds.append(cold)
            ends.append(start + duration)
        finish = max(ends)
        if not finish < math.inf:
            raise ValueError("simulated request latencies must be finite")
        yield starts, durations, colds, finish


def _walked(walk, app, config, n_requests, seed):
    """Each request ``walk`` yields, its floats in hex, then the error that
    ended the walk (if any), and the generator's state afterwards."""
    rng = random.Random(seed)
    requests = []
    try:
        for starts, durations, colds, finish in walk(app, config, n_requests, rng):
            requests.append(([x.hex() for x in starts], [x.hex() for x in durations], colds,
                             finish.hex()))
    except (OverflowError, ValueError) as exc:
        requests.append((type(exc), str(exc)))
    return requests, rng.getstate()


def _finished(walk, app, config, n_requests, seed):
    """:func:`_walked` for a walk that yields each request's finish alone:
    the finishes in hex, then the error that ended the walk (if any), and
    the generator's state afterwards."""
    rng = random.Random(seed)
    finishes = []
    try:
        for finish in walk(app, config, n_requests, rng):
            finishes.append(finish.hex())
    except (OverflowError, ValueError) as exc:
        finishes.append((type(exc), str(exc)))
    return finishes, rng.getstate()


@given(
    call_tables(),
    st.lists(st.tuples(st.one_of(st.sampled_from((0.0, 1e-200)), st.floats(0.0, 10.0)),
                       st.sampled_from((0.0, 0.02, 1.0))),
             min_size=10, max_size=10),
    st.lists(st.sampled_from((128, 256, 1024, 3008)), min_size=10, max_size=10),
    st.sampled_from((None, None, None, "huge-root", "overflowing-cv")),
    st.integers(1, 8),
    st.integers(0, 2**32),
)
@example(({"f1": [["f2", "f3"], ["f6"]], "f2": [["f4", "f5"]], "f3": [], "f4": [["f7"]],
           "f5": [], "f6": [], "f7": []}, {f"f{i}": 300.0 for i in range(1, 8)}),
         [(1e-200, 0.0), (10.0, 1.0), (0.3, 0.02)] + [(0.05, 0.02)] * 7, [128] * 10, None, 8, 0)
@settings(max_examples=200, deadline=None)
def test_walk_draws_as_lognormvariate_does(table, noise, memories, extreme, n_requests, seed):
    """The inline lognormal draw is ``random.Random.lognormvariate``'s, bit for
    bit, with or without the invocations: equal requests, equal errors (a
    1e308 s root overflows under jitter, a 1e155 cv overflows its square)
    and equal generator states."""
    calls, work = table
    graph = CallGraph(compose_calls("f1", calls))
    names = graph.functions()
    specs = {
        name: _compute_spec(work=work[name], jitter_cv=jitter_cv, cold_start_prob=cold_start_prob,
                            cold_start_s=0.2)
        for name, (jitter_cv, cold_start_prob) in zip(names, noise)
    }
    if extreme == "huge-root":
        specs["f1"] = SimFunctionSpec(kind="baas_bound", baas_latency_s=1e308,
                                      jitter_cv=specs["f1"].jitter_cv)
    elif extreme == "overflowing-cv":
        specs["f1"] = dataclasses.replace(specs["f1"], jitter_cv=1e155)
    app = SimApp(graph=graph, specs=specs)
    config = dict(zip(names, memories))
    requests, state = _walked(_reference_walk, app, config, n_requests, seed)
    assert _walked(partial(sim._simulate, invocations=True), app, config, n_requests,
                   seed) == (requests, state)
    # Without its invocations, the walk draws the same requests and yields their finishes.
    assert _finished(sim._simulate, app, config, n_requests, seed) == (
        [request[-1] if len(request) == 4 else request for request in requests], state)


def test_backend_calls_end_within_their_function():
    """With three backends ``duration * 3 / 3`` can pass the function's own
    end by an ulp; the last call ends with the function instead, and the
    validated latency is the function's end."""
    work = next(w for w in (300 + k / 7 for k in range(1000)) if w / 128 * 3 / 3 > w / 128)
    graph = CallGraph(FunctionNode("f1"))
    app = SimApp(graph=graph, specs={"f1": _compute_spec(work=work)},
                 baas_children={"f1": ("a", "b", "c")})
    function, *backends = log_segments(run_load(app, {"f1": 128}, 1, random.Random(0)))
    assert [b.name for b in backends] == ["a", "b", "c"]
    for backend in backends:
        assert function.start_time <= backend.start_time <= backend.end_time <= function.end_time
    assert backends[-1].end_time == function.end_time == work / 128
    report = validate_config(app, {"f1": 128}, SloSpec(3.0), n_requests=1, rng=random.Random(0))
    assert report.max_s == function.end_time


@pytest.mark.parametrize("backends", ["payments-db", [7], [["x"]], [""], ("db", None)],
                         ids=["string", "number", "nested-list", "empty-name", "none"])
def test_backend_names_must_be_non_empty_strings(backends):
    app = generate_app(shape="petstore", seed=2)
    with pytest.raises(ValueError, match="'pet-payment' must be a list of non-empty strings"):
        dataclasses.replace(app, baas_children={"pet-payment": backends})


def test_unrealizable_graph_rejected_by_sim_app():
    graph = CallGraph(Parallel((FunctionNode("f1"), FunctionNode("f2"))))
    specs = {name: _compute_spec() for name in graph.functions()}
    with pytest.raises(ValueError):
        SimApp(graph=graph, specs=specs)


def test_built_apps_are_not_normalized_again(monkeypatch):
    app = generate_app(8, "random", seed=7)

    def refuse(node):
        raise AssertionError("a built graph was normalized again")

    monkeypatch.setattr(model, "_normalize_node", refuse)
    copy = dataclasses.replace(app, specs=dict(app.specs))
    quiet = noiseless(app)
    config = {f: 256 for f in app.graph.functions()}
    assert len(run_load(copy, config, 2, random.Random(0)).traces) == 2
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    assert len(profile_application(quiet, ladder, k_per_level=2, rng=random.Random(0)).traces) == 4
    report = validate_config(app, config, SloSpec(100.0), n_requests=3, rng=random.Random(0))
    assert report.conformance == 1.0


#: sha256 of the saved app, of the profiling trace file (default ladder,
#: 4 requests per rung, rng seeded with the app seed) and of the graph
#: rebuilt from it, at seeds 0 and 5 (chain and random with 40 functions).
PINNED_DIGESTS = {
    ("chain", 0): ("ab6c08c545c8f336eeb203ba89c19fa1c9ccc5b15fa35caae4c38910d8f1ea17",
                   "bdce18aa5e9a7933d68589ee02aa24111bb68103c2559ccd4f00dc58b3143b06",
                   "c2ea5dd5c7ead6b5d2e4add7fecc92964deaee40d495b554d75fda2e62c6fdaa"),
    ("chain", 5): ("18120fb29ffe03584ae4be5590bb4d6a57fbe4656bdd8a594493a006b3759043",
                   "d3ad79bca467f19f0568f90ce0d492b2f253fc910bcc10be013936ce25cd9e1c",
                   "c2ea5dd5c7ead6b5d2e4add7fecc92964deaee40d495b554d75fda2e62c6fdaa"),
    ("demo3", 0): ("a65969c3f27bda40c0aa5097ad7afa9e83b7e4a795f0028b4b942bcbca8fd805",
                   "feca317a08cd33e9730322a83b3aff73ce4689ba79a206941de42a5460f3d4cf",
                   "beab1f345fc440693dac2ab4a52b742243f9516bd33dffdc857d6c2c35729815"),
    ("demo3", 5): ("2159934f4509b3826d33989998ef74f327eaf58035ecdcc5150b668afdcc4f49",
                   "40682d137c776e63741b338e09ae41e4302da9a581f77a7866d98b0cc8cf3f03",
                   "beab1f345fc440693dac2ab4a52b742243f9516bd33dffdc857d6c2c35729815"),
    ("demo6", 0): ("07dabc63d97f925768d06f5a2cf6f6435ac4b953724f9f3969b1f8652d2b5ffb",
                   "d33a72044c5ab48f2723d75d9a3a20d5312cc859dcab0198ffa45917c5fdac6a",
                   "891adcf534dc979d76e5b789956544e46c38cbe2ff900de4b0518fa93b904818"),
    ("demo6", 5): ("28bc44e96b5a13e9be2826f77c4383073cc280d7a216a93b864de0b7a0effe09",
                   "3112fc58f3cb2031f405a6468f19064ee2b979b172c6ef1ccfcfe6dbc8faa24f",
                   "891adcf534dc979d76e5b789956544e46c38cbe2ff900de4b0518fa93b904818"),
    ("demo10", 0): ("8bf09f4b0e9170061bd730456b7ced873349d1283fcc22ddecdb7a8d9a68da1e",
                    "2cc3ad74b7b8791abab4bffdf04c2aef6033c7f6ab0a8ca00b67b7cc97851bdb",
                    "8b936dadf0162180c13ead9dc1268eb51b583922f888767a23e98d9eefd852cc"),
    ("demo10", 5): ("8db3c99eda90418895927abeaf0dc4604a1b7888b89749b0b06e5f4d4fb48cca",
                    "0f51ae032726bc2f952d138a1d048a4ed0c587cbb9eab189d51d48a6cb3ac244",
                    "8b936dadf0162180c13ead9dc1268eb51b583922f888767a23e98d9eefd852cc"),
    ("petstore", 0): ("bdc20f977b02bf2797e61d94769512cd5d423f3a403d47bca83a9a635ec2090c",
                      "18bc7c6b9a5a89c76cac0ee5c7d39319e8cbbee2815a8136cbb34a31e70ebae3",
                      "7d94ca0476629ed2dadd02b38dfded62f819ac4d35ad9ccb9da5a7b3b6a7bbfd"),
    ("petstore", 5): ("d01e0e29460736d0587e8ba3359df4d341127afbe79f5016b786cdf0c25751f7",
                      "c2ca10e9004629899e2f4f3b0e0adec90fb3f25c3651336a3261c7cbc53dc99e",
                      "7d94ca0476629ed2dadd02b38dfded62f819ac4d35ad9ccb9da5a7b3b6a7bbfd"),
    ("random", 0): ("f1309d75c91b0dd2fa0482a5ad29ed767effba5c1ff4260ca2cb50143433bc7c",
                    "9a009d1bcc6c0791e15d0133ed99ecb30032dd6f5329da72725017c786758203",
                    "8ea0df8ec03335da78e25223a107a783995f601a9f8d8982e756ee94039968e8"),
    ("random", 5): ("257e718580090e2821d3a92b9edd97fa4863d86ec541517c8aa323da6a486022",
                    "fd5192109edfb151d128f5464b04a08d2706836af1b431ba6ff35deb29ca3f1d",
                    "a28cabdf58b2bc96852d5f740ec83ea37aa7c5c23e0fbc8520c9b8477586227f"),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_generated_apps_and_profiling_traces_are_pinned(shape, tmp_path):
    for seed in (0, 5):
        app = generate_app(40, shape, seed=seed)
        save_app(app, tmp_path / "app.json")
        log = profile_application(app, MemoryLadder(), k_per_level=4, rng=random.Random(seed))
        buffer = io.StringIO()
        write_trace_file(log, buffer)
        graph = json.dumps(graph_to_dict(build_call_graph(log).root), sort_keys=True)
        digests = tuple(
            hashlib.sha256(data).hexdigest()
            for data in ((tmp_path / "app.json").read_bytes(), buffer.getvalue().encode(),
                         graph.encode())
        )
        assert digests == PINNED_DIGESTS[shape, seed], (shape, seed)


# --- profiling runs and validation -------------------------------------------


def test_profile_application_covers_every_level():
    app = generate_app(shape="demo3", seed=5)
    ladder = MemoryLadder(values=(128, 256), cap_mb=None)
    log = profile_application(app, ladder, k_per_level=50, rng=random.Random(0))
    assert len(log.traces) == 100
    samples = extract_samples(log)
    profiles = build_profiles(samples, ladder, alpha=95)  # no MissingCell
    assert set(profiles) == set(app.graph.functions())


#: Each library entry point that takes a request count, called with a demo3
#: app, a count and a generator.
_TAKES_A_REQUEST_COUNT = {
    "run_load": lambda app, n, rng: run_load(app, dict.fromkeys(app.graph.functions(), 256), n, rng),
    "profile_application": lambda app, n, rng: profile_application(app, MemoryLadder(), n, rng),
    "profile_samples": lambda app, n, rng: profile_samples(app, MemoryLadder(), n, rng),
    "validate_config": lambda app, n, rng: validate_config(
        app, dict.fromkeys(app.graph.functions(), 256), SloSpec(10.0), n, rng),
}


@pytest.mark.parametrize("count", [True, False, 2.0, "3", None], ids=repr)
@pytest.mark.parametrize("entry", sorted(_TAKES_A_REQUEST_COUNT))
def test_a_request_count_that_is_not_an_int_is_a_value_error(entry, count):
    """A bool used to count as one request (or none), and the report
    recorded ``true``; other non-integers failed inside ``range``."""
    rng = random.Random(0)
    with pytest.raises(ValueError, match=f"got {re.escape(repr(count))}$"):
        _TAKES_A_REQUEST_COUNT[entry](generate_app(shape="demo3", seed=0), count, rng)
    assert rng.getstate() == random.Random(0).getstate()


def test_zero_requests_per_rung_profile_nothing():
    app = generate_app(shape="demo3", seed=0)
    assert profile_application(app, MemoryLadder(), 0, random.Random(0)).traces == {}
    assert profile_samples(app, MemoryLadder(), 0, random.Random(0)) == {}
    with pytest.raises(ValueError, match="n_requests must be at least 1, got 0"):
        _TAKES_A_REQUEST_COUNT["validate_config"](app, 0, random.Random(0))


def _profiled(sampler, app, ladder, k, seed):
    """The sample table ``sampler`` draws (ValueError if it raises one),
    every duration's hex form by rung, function and request, and the
    generator's state afterwards. Every cell it draws is a list of floats."""
    rng = random.Random(seed)
    try:
        samples = sampler(app, ladder, k_per_level=k, rng=rng)
    except ValueError:
        return ValueError, None, rng.getstate()
    columns = [column for by_function in samples.values() for column in by_function.values()]
    assert all(type(column) is list and all(type(d) is float for d in column) for column in columns)
    hexes = [(memory_mb, name, [duration.hex() for duration in durations])
             for memory_mb, by_function in samples.items()
             for name, durations in by_function.items()]
    return samples, hexes, rng.getstate()


def _traced_samples(app, ladder, k_per_level, rng):
    return extract_samples(profile_application(app, ladder, k_per_level=k_per_level, rng=rng))


@pytest.mark.parametrize("noise", [None, (0.05, 0.02), (0.0, 0.0)], ids=["default", "noisy", "zero"])
@pytest.mark.parametrize("shape", SHAPES)
def test_profile_samples_are_the_samples_of_the_profiling_traces(shape, noise):
    app = generate_app(9, shape, seed=4)
    if noise is not None:
        jitter_cv, cold_start_prob = noise
        app = dataclasses.replace(app, specs={
            name: dataclasses.replace(spec, jitter_cv=jitter_cv, cold_start_prob=cold_start_prob)
            for name, spec in app.specs.items()
        })
    drawn = _profiled(profile_samples, app, MemoryLadder(), 12, seed=4)
    assert drawn == _profiled(_traced_samples, app, MemoryLadder(), 12, seed=4)
    assert list(drawn[0]) == list(MemoryLadder().effective())
    for by_function in drawn[0].values():
        assert set(by_function) == set(app.graph.functions())
        assert all(len(durations) == 12 for durations in by_function.values())


# Latencies near a float's limit: spans whose ``duration * j`` overflows for
# three or four backend calls, and a few such spans in sequence overflow the
# request's finish.
_PROFILED_SPECS = {
    "compute": _compute_spec(work=300.0, jitter_cv=0.05, cold_start_prob=0.1, cold_start_s=0.2),
    "backend": SimFunctionSpec(kind="baas_bound", baas_latency_s=0.25, jitter_cv=0.04),
    "huge": SimFunctionSpec(kind="baas_bound", baas_latency_s=6e307),
    "overflowing": SimFunctionSpec(kind="baas_bound", baas_latency_s=1e308),
}


@given(
    call_tables(),
    st.lists(st.sampled_from(sorted(_PROFILED_SPECS)), min_size=10, max_size=10),
    st.lists(st.integers(0, 4), min_size=10, max_size=10),
    st.sets(st.sampled_from(model.DEFAULT_MEMORY_MB), min_size=1),
    st.integers(0, 5),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_profile_samples_draw_and_fail_as_the_trace_path_does(table, kinds, backends, rungs, k,
                                                              seed):
    """Equal samples, bit for bit, or a ValueError from both paths, with the
    generator left in the same state either way."""
    calls, _ = table
    graph = CallGraph(compose_calls("f1", calls))
    names = graph.functions()
    specs = {name: _PROFILED_SPECS[kind] for name, kind in zip(names, kinds)}
    baas = {name: tuple(f"{name}-db{j}" for j in range(count))
            for name, count in zip(names, backends) if count}
    app = SimApp(graph=graph, specs=specs, baas_children=baas)
    ladder = MemoryLadder(values=tuple(sorted(rungs)), cap_mb=None)
    assert (_profiled(profile_samples, app, ladder, k, seed)
            == _profiled(_traced_samples, app, ladder, k, seed))


def _petstore_payment(latency_s, backends):
    app = generate_app(shape="petstore", seed=2)
    payment = dataclasses.replace(app.specs["pet-payment"], baas_latency_s=latency_s, jitter_cv=0.0)
    return dataclasses.replace(app, specs={**app.specs, "pet-payment": payment},
                               baas_children={**app.baas_children, "pet-payment": backends})


@pytest.mark.parametrize("latency_s,backends,fails", [
    (1e308, ("db", "queue", "cache"), False),  # 1e308 * (2 / 3) does not overflow
    (1e308, ("db", "queue"), False),  # 1e308 * 1 does not
    (0.25, ("db", ""), None),  # no app has a call run_load cannot name
    (0.25, (), False),
], ids=["three-backends-overflow", "two-backends", "unnamed-backend", "no-backend"])
def test_profile_samples_raise_where_building_the_trace_does(latency_s, backends, fails):
    if fails is None:
        with pytest.raises(ValueError, match="non-empty strings"):
            _petstore_payment(latency_s, backends)
        return
    app = _petstore_payment(latency_s, backends)
    drawn = _profiled(profile_samples, app, MemoryLadder(), 3, seed=0)
    assert drawn == _profiled(_traced_samples, app, MemoryLadder(), 3, seed=0)
    assert (drawn[0] is ValueError) == fails


def test_validate_config_with_huge_slo_fully_conforms():
    app = generate_app(shape="demo3", seed=6)
    config = {f: 128 for f in app.graph.functions()}
    report = validate_config(app, config, SloSpec(1e9), n_requests=20, rng=random.Random(0))
    assert report.conformance == 1.0
    assert report.min_s <= report.median_s <= report.p95_s <= report.max_s


def test_validate_config_boundary_is_inclusive():
    app = noiseless(generate_app(shape="demo3", seed=7))
    config = {f: 128 for f in app.graph.functions()}
    (duration,) = end_to_end_durations(run_load(app, config, 1, random.Random(0)))
    report = validate_config(app, config, SloSpec(duration), n_requests=10, rng=random.Random(0))
    assert report.conformance == 1.0


#: sha256 of the JSON list of validate_config reports (100 requests, SLO 3 s,
#: memories 128..2048 MB by function order, rng seeded with the app seed) for
#: the 12-function (or fixed) app of each shape at seeds 0 and 5, each with
#: the benchmark's default (cv 0.002, 0.1 %) and noisy (cv 0.05, 2 %) noise.
PINNED_REPORT_DIGESTS = {
    "chain": "9ed2e86dde997e6aec564c82a56f04e8015585018fdb45ee683a88b56f9e413c",
    "demo3": "a99b96e0035ebe947fafe40964b2b8341ef0750abac9109a242e092e7e6c90f0",
    "demo6": "740b548be7faf2340a56cca691d69b184d1a23d526fe537fc0bcc1505a894baf",
    "demo10": "27636d770c21be02f2fc75d53a35a31478b27a8fe21fb83b69ff8e943050ac08",
    "petstore": "46cefb0e41038918584e0629b56933fd291d3e1be54b9f7472dfbecbef808429",
    "random": "0a5b6c26f902601ed7986eb08f625f2793af533e9f1788d54124bc150dc7eafb",
}


@pytest.mark.parametrize("shape", SHAPES)
def test_validation_reports_are_pinned(shape):
    reports = []
    for seed in (0, 5):
        for jitter_cv, cold_start_prob in ((0.002, 0.001), (0.05, 0.02)):
            app = generate_app(12, shape, seed=seed)
            specs = {
                name: dataclasses.replace(spec, jitter_cv=jitter_cv, cold_start_prob=cold_start_prob)
                for name, spec in app.specs.items()
            }
            app = dataclasses.replace(app, specs=specs)
            memories = (128, 256, 512, 1024, 2048)
            config = {f: memories[i % 5] for i, f in enumerate(app.graph.functions())}
            report = validate_config(app, config, SloSpec(3.0), n_requests=100,
                                     rng=random.Random(seed))
            reports.append(report.to_dict())
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_REPORT_DIGESTS[shape], shape


def _times_two(app):
    """``app`` with every function's work, backend latency and cold-start
    penalty doubled."""
    return dataclasses.replace(app, specs={
        name: dataclasses.replace(
            spec, work=2 * spec.work, cold_start_s=2 * spec.cold_start_s,
            baas_latency_s=None if spec.baas_latency_s is None else 2 * spec.baas_latency_s,
        )
        for name, spec in app.specs.items()
    })


_REPORT_LATENCIES = ("min_s", "median_s", "p95_s", "max_s", "at_percentile_s")


@pytest.mark.parametrize("noise", [None, (0.05, 0.02)], ids=["default", "noisy"])
@pytest.mark.parametrize("shape", SHAPES)
def test_doubling_every_time_doubles_every_simulated_latency(shape, noise):
    """A metamorphic relation of the simulator: with every function's work,
    backend latency and cold-start penalty doubled, the same seed draws every
    profiling duration and every validated latency exactly doubled (each
    operation of the walk commutes with doubling), and conformance at twice
    the SLO is unchanged."""
    ladder = MemoryLadder()
    memories = (128, 256, 512, 1024, 2048)
    for seed in range(6):
        app = generate_app(12, shape, seed=seed)
        if noise is not None:
            jitter_cv, cold_start_prob = noise
            app = dataclasses.replace(app, specs={
                name: dataclasses.replace(spec, jitter_cv=jitter_cv, cold_start_prob=cold_start_prob)
                for name, spec in app.specs.items()
            })
        doubled = _times_two(app)
        samples, _, state = _profiled(profile_samples, app, ladder, 10, seed)
        expected = [(memory_mb, name, [(2 * d).hex() for d in durations])
                    for memory_mb, by_function in samples.items()
                    for name, durations in by_function.items()]
        assert _profiled(profile_samples, doubled, ladder, 10, seed)[1:] == (expected, state)

        config = {f: memories[i % 5] for i, f in enumerate(app.graph.functions())}
        # The SLO is the run's own median, so conformance is neither 0 nor 1.
        median_s = validate_config(app, config, SloSpec(1.0), 100, random.Random(seed)).median_s
        report = validate_config(app, config, SloSpec(median_s, 90.0), 100, random.Random(seed))
        twice = validate_config(doubled, config, SloSpec(2 * median_s, 90.0), 100,
                                random.Random(seed))
        assert [getattr(twice, field).hex() for field in _REPORT_LATENCIES] == [
            (2 * getattr(report, field)).hex() for field in _REPORT_LATENCIES]
        assert 0 < twice.conformance == report.conformance < 1


# --- app spec files ----------------------------------------------------------


def test_app_spec_round_trip(tmp_path):
    for shape in ("demo3", "petstore", "random"):
        app = generate_app(5, shape=shape, seed=8)
        path = tmp_path / f"{shape}.json"
        save_app(app, path)
        assert load_app(path) == app


_POSITIVE = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                      st.integers(1, 2**53))
_NON_NEGATIVE = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 2**53))


@st.composite
def _spec_fields(draw, ignored: bool):
    """A spec's fields: its kind's latency field and noise fields as ints or
    floats, and, when ``ignored``, a value for the field its kind ignores
    (a backend-bound one's work is zero otherwise)."""
    fields = dict(cold_start_s=draw(_NON_NEGATIVE), jitter_cv=draw(_NON_NEGATIVE),
                  cold_start_prob=draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0, 1)))))
    if draw(st.booleans()):
        fields.update(work=draw(_POSITIVE))
        if ignored:
            fields.update(baas_latency_s=draw(_POSITIVE))
    else:
        work = draw(_POSITIVE if ignored else st.sampled_from((0, 0.0, -0.0)))
        fields.update(kind="baas_bound", work=work, baas_latency_s=draw(_POSITIVE))
    return fields


#: Values code might pass as an app's shape or seed: only text is a shape
#: and only an int that is not a bool a seed.
_SHAPES_OR_SEEDS = st.one_of(st.text(), st.integers(-2**70, 2**70), st.booleans(), st.floats(),
                             st.none(), st.lists(st.integers(), max_size=2))


@given(
    call_tables(),
    st.data(),
    _SHAPES_OR_SEEDS,
    _SHAPES_OR_SEEDS,
)
@settings(max_examples=100, deadline=None)
def test_every_app_that_builds_saves_and_loads_back_equal(table, data, shape, seed):
    """An app built from any specs, backend lists or tuples, shape and seed
    is equal to the app its saved file loads as, and one that does not
    build has a file that does not load. A spec that sets the field its
    kind ignores does not build, since its file would not carry it."""
    calls, _ = table
    graph = CallGraph(compose_calls("f1", calls))
    odd = data.draw(st.one_of(st.none(), st.sampled_from(graph.functions())), label="odd")
    specs = {}
    for name in graph.functions():
        fields = data.draw(_spec_fields(name == odd), label=name)
        try:
            specs[name] = SimFunctionSpec(**fields)
        except ValueError:
            assert name == odd
            reject()
    parents = data.draw(st.lists(st.sampled_from(sorted(specs)), unique=True), label="parents")
    names = st.lists(st.text(min_size=1), max_size=3)
    baas = {parent: data.draw(st.one_of(names, names.map(tuple)), label=parent)
            for parent in parents}
    base = SimApp(graph=graph, specs=specs, baas_children=baas)
    try:
        app = dataclasses.replace(base, shape=shape, seed=seed)
    except ValueError:
        app = None
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "app.json"
        if app is None:  # the file save_app would write, were it to build
            save_app(base, path)
            saved = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps({**saved, "shape": shape, "seed": seed}), encoding="utf-8")
            with pytest.raises(SchemaError):
                load_app(path)
        else:
            save_app(app, path)
            assert load_app(path) == app
