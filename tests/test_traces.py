import io
import json
import random

import pytest

from faastune import (
    CallGraph,
    FunctionNode,
    Parallel,
    Sequence,
    build_call_graph,
    extract_samples,
    generate_app,
    load_manual_graph,
    parse_trace_file,
    run_load,
    write_trace_file,
)
from faastune.errors import (
    DuplicateFunction,
    EmptyAfterFiltering,
    InconsistentTopology,
    MissingMemoryAnnotation,
    MultipleRoots,
    OrphanSegment,
    ParseError,
    SchemaError,
    UnreachableSegment,
)
from faastune.traces import TraceLog, TraceSegment, graph_to_dict


def _line(trace="t1", seg="s1", parent=None, name="f1", kind="function",
          start=0.0, end=1.0, memory=128, cold=None):
    record = {
        "trace_id": trace, "segment_id": seg, "name": name, "kind": kind,
        "start_time": start, "end_time": end,
    }
    if parent is not None:
        record["parent_id"] = parent
    if memory is not None:
        record["memory_mb"] = memory
    if cold is not None:
        record["cold_start"] = cold
    return json.dumps(record)


def _log(*lines):
    return parse_trace_file(io.StringIO("\n".join(lines) + "\n"))


# --- parsing -----------------------------------------------------------------


def test_minimal_three_segment_trace_parses():
    log = _log(
        _line(seg="s1", name="f1", start=0.0, end=3.0),
        _line(seg="s2", parent="s1", name="f2", start=1.0, end=2.0),
        _line(seg="s3", parent="s1", name="f3", start=2.0, end=3.0),
    )
    assert len(log) == 1
    assert len(log.traces["t1"]) == 3


def test_baas_segments_are_kept_by_the_parser():
    log = _log(
        _line(seg="s1", name="f1"),
        _line(seg="s2", parent="s1", name="orders-db", kind="baas", memory=None),
    )
    kinds = [s.kind for s in log.all_segments()]
    assert kinds == ["function", "baas"]


def test_unknown_parent_is_an_orphan():
    with pytest.raises(OrphanSegment):
        _log(_line(seg="s1"), _line(seg="s2", parent="nope", name="f2"))


def test_two_parentless_segments_is_multiple_roots():
    with pytest.raises(MultipleRoots):
        _log(_line(seg="s1"), _line(seg="s2", name="f2"))


def test_segments_naming_each_other_as_parent_are_unreachable():
    with pytest.raises(UnreachableSegment) as excinfo:
        _log(
            _line(seg="root", name="root"),
            _line(seg="a", parent="b", name="a"),
            _line(seg="b", parent="a", name="b"),
        )
    assert excinfo.value.segment_id == "a"


def test_nan_time_reports_line_number():
    record = json.loads(_line(seg="s2", parent="s1", name="f2"))
    record["end_time"] = float("nan")
    with pytest.raises(ParseError) as excinfo:
        _log(_line(seg="s1"), json.dumps(record))
    assert excinfo.value.line == 2


def test_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as excinfo:
        _log(_line(), "{not json")
    assert excinfo.value.line == 2


def test_missing_required_key_reports_line_number():
    record = json.loads(_line())
    del record["end_time"]
    with pytest.raises(ParseError) as excinfo:
        _log(json.dumps(record))
    assert excinfo.value.line == 1


def test_duplicate_segment_id_rejected():
    with pytest.raises(ParseError):
        _log(_line(seg="s1"), _line(seg="s1", name="f2", parent="s1"))


def test_round_trip_is_lossless():
    log = _log(
        _line(seg="s1", name="f1", cold=True),
        _line(seg="s2", parent="s1", name="db", kind="baas", memory=None),
        _line(trace="t2", seg="s1", name="f1", start=0.25, end=0.75),
    )
    buffer = io.StringIO()
    write_trace_file(log, buffer)
    reparsed = parse_trace_file(io.StringIO(buffer.getvalue()))
    assert reparsed == log


# --- graph building ----------------------------------------------------------


def test_sequential_children_build_a_sequence_after_the_root():
    log = _log(
        _line(seg="s1", name="f1", start=0.0, end=1.0),
        _line(seg="s2", parent="s1", name="f2", start=1.0, end=2.0),
        _line(seg="s3", parent="s1", name="f3", start=2.5, end=3.0),
    )
    expected = Sequence((FunctionNode("f1"), FunctionNode("f2"), FunctionNode("f3")))
    assert build_call_graph(log).root == expected


def test_overlapping_children_build_parallel():
    log = _log(
        _line(seg="s1", name="f1", start=0.0, end=1.0),
        _line(seg="s2", parent="s1", name="f2", start=1.0, end=3.0),
        _line(seg="s3", parent="s1", name="f3", start=2.0, end=4.0),
    )
    expected = Sequence((
        FunctionNode("f1"),
        Parallel((FunctionNode("f2"), FunctionNode("f3"))),
    ))
    assert build_call_graph(log).root == expected


def test_touching_intervals_are_sequential():
    log = _log(
        _line(seg="s1", name="f1", start=0.0, end=1.0),
        _line(seg="s2", parent="s1", name="f2", start=1.0, end=2.0),
        _line(seg="s3", parent="s1", name="f3", start=2.0, end=3.0),
    )
    expected = Sequence((FunctionNode("f1"), FunctionNode("f2"), FunctionNode("f3")))
    assert build_call_graph(log).root == expected


def test_petstore_style_trace_drops_baas_and_keeps_chain():
    lines = [_line(seg="c", name="pet-checkout", start=0.0, end=0.5)]
    chain = ["pet-currency", "pet-payment", "pet-shipping", "pet-email"]
    for i, name in enumerate(chain):
        lines.append(_line(seg=f"s{i}", parent="c", name=name, start=0.5 + i, end=1.5 + i))
    lines.append(_line(seg="db1", parent="s1", name="payments-db", kind="baas",
                       start=1.6, end=1.9, memory=None))
    lines.append(_line(seg="db2", parent="s2", name="shipping-db", kind="baas",
                       start=2.6, end=2.9, memory=None))
    graph = build_call_graph(_log(*lines))
    assert graph.functions() == ("pet-checkout", *chain)
    expected = Sequence(tuple(FunctionNode(n) for n in ("pet-checkout", *chain)))
    assert graph.root == expected


def test_majority_vote_decides_parallel_vs_sequence():
    def trace(tid, overlap):
        f3_start = 1.5 if overlap else 2.5
        return [
            _line(trace=tid, seg="s1", name="f1", start=0.0, end=1.0),
            _line(trace=tid, seg="s2", parent="s1", name="f2", start=1.0, end=2.0),
            _line(trace=tid, seg="s3", parent="s1", name="f3", start=f3_start, end=f3_start + 1),
        ]
    parallel_majority = _log(*trace("t1", True), *trace("t2", True), *trace("t3", False))
    assert isinstance(build_call_graph(parallel_majority).root.children[1], Parallel)
    tie = _log(*trace("t1", True), *trace("t2", False))
    assert build_call_graph(tie).root == Sequence(
        (FunctionNode("f1"), FunctionNode("f2"), FunctionNode("f3"))
    )


def test_record_order_does_not_matter():
    lines = [
        _line(seg="s1", name="f1", start=0.0, end=1.0),
        _line(seg="s2", parent="s1", name="f2", start=1.0, end=3.0),
        _line(seg="s3", parent="s1", name="f3", start=2.0, end=4.0),
    ]
    rng = random.Random(0)
    graphs = set()
    for _ in range(6):
        rng.shuffle(lines)
        graphs.add(build_call_graph(_log(*lines)))
    assert len(graphs) == 1


def test_traces_with_different_structure_are_inconsistent():
    log = _log(
        _line(trace="t1", seg="s1", name="f1"),
        _line(trace="t1", seg="s2", parent="s1", name="f2", start=1, end=2),
        _line(trace="t2", seg="s1", name="f2"),
        _line(trace="t2", seg="s2", parent="s1", name="f1", start=1, end=2),
    )
    with pytest.raises(InconsistentTopology):
        build_call_graph(log)


def test_duplicate_function_in_one_trace_rejected():
    log = _log(
        _line(seg="s1", name="f1"),
        _line(seg="s2", parent="s1", name="f1", start=1, end=2),
    )
    with pytest.raises(DuplicateFunction):
        build_call_graph(log)


def test_baas_only_traces_are_empty_after_filtering():
    log = TraceLog({"t1": [TraceSegment("t1", "s1", "db", "baas", 0.0, 1.0)]})
    with pytest.raises(EmptyAfterFiltering):
        build_call_graph(log)


def test_function_invoked_by_baas_is_rejected():
    log = _log(
        _line(seg="s1", name="f1", start=0.0, end=4.0),
        _line(seg="s2", parent="s1", name="db", kind="baas", memory=None, start=1, end=3),
        _line(seg="s3", parent="s2", name="f2", start=1.5, end=2.5),
    )
    with pytest.raises(InconsistentTopology):
        build_call_graph(log)


def _segment(segment_id, parent_id, name, start=0.0, end=1.0):
    return TraceSegment("t1", segment_id, name, "function", start, end, parent_id, 128)


def test_in_memory_cycle_is_unreachable_not_dropped():
    log = TraceLog({"t1": [
        _segment("root", None, "root", 0.0, 3.0),
        _segment("a", "b", "a"),
        _segment("b", "a", "b"),
    ]})
    assert len(extract_samples(log)) == 3
    with pytest.raises(UnreachableSegment) as excinfo:
        build_call_graph(log)
    assert excinfo.value.segment_id == "a"


def test_in_memory_second_root_is_multiple_roots():
    log = TraceLog({"t1": [
        _segment("root", None, "root", 0.0, 3.0),
        _segment("other", None, "other", 0.0, 1.0),
    ]})
    with pytest.raises(MultipleRoots) as excinfo:
        build_call_graph(log)
    assert excinfo.value.trace_id == "t1"


def test_in_memory_unknown_parent_is_an_orphan():
    log = TraceLog({"t1": [_segment("root", None, "root", 0.0, 3.0), _segment("a", "zzz", "a")]})
    with pytest.raises(OrphanSegment) as excinfo:
        build_call_graph(log)
    assert excinfo.value.segment_id == "a"


# --- samples -----------------------------------------------------------------


def test_sample_duration_is_end_minus_start():
    log = _log(_line(seg="s1", name="f1", start=10.0, end=14.5, memory=128))
    (sample,) = extract_samples(log)
    assert sample.duration_s == 4.5
    assert sample.memory_mb == 128
    assert sample.cold_start is False


def test_baas_segments_yield_no_samples():
    log = _log(
        _line(seg="s1", name="f1"),
        _line(seg="s2", parent="s1", name="db", kind="baas", memory=None),
    )
    assert len(extract_samples(log)) == 1


def test_function_without_memory_annotation_rejected():
    log = _log(_line(seg="s1", name="f1", memory=None))
    with pytest.raises(MissingMemoryAnnotation):
        extract_samples(log)


def test_fifty_traces_of_three_functions_yield_150_samples():
    app = generate_app(shape="demo3", seed=5)
    config = {f: 128 for f in app.graph.functions()}
    log = run_load(app, config, 50, random.Random(1))
    assert len(extract_samples(log)) == 150


# --- manual graph files ------------------------------------------------------


def test_manual_graph_for_six_function_tree(tmp_path):
    graph = generate_app(shape="demo6", seed=1).graph
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_dict(graph.root)))
    assert load_manual_graph(path) == graph


def test_manual_single_function(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"kind": "function", "name": "solo"}))
    assert load_manual_graph(path) == CallGraph(FunctionNode("solo"))


def test_manual_graph_duplicate_function(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "kind": "sequence",
        "children": [{"kind": "function", "name": "f1"}, {"kind": "function", "name": "f1"}],
    }))
    with pytest.raises(DuplicateFunction):
        load_manual_graph(path)


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "nonsense"},
        {"kind": "function"},
        {"kind": "sequence", "children": []},
        {"kind": "function", "name": "f1", "children": []},
        ["kind", "function"],
    ],
)
def test_schema_violations_rejected(tmp_path, data):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_manual_graph(path)
