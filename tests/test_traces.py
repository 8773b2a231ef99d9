import copy
import dataclasses
import io
import json
import os
import pickle
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from faastune import (
    CallGraph,
    FunctionNode,
    MemoryLadder,
    Parallel,
    Sequence,
    build_call_graph,
    extract_samples,
    generate_app,
    load_manual_graph,
    parse_trace_file,
    profile_application,
    run_load,
    write_trace_file,
)
from faastune.errors import (
    DuplicateFunction,
    EmptyAfterFiltering,
    FaastuneError,
    InconsistentTopology,
    MissingMemoryAnnotation,
    MultipleRoots,
    OrphanSegment,
    ParseError,
    SchemaError,
    UnreachableSegment,
)
from faastune.traces import (
    SEGMENT_KINDS,
    TraceLog,
    TraceSegment,
    _check_tree,
    _parallel_groups,
    _parse_lines,
    graph_to_dict,
)

from faastune.sim import SHAPES
from helpers import (
    package_env,
    reference_check_tree,
    reference_parallel_groups,
    reference_parse_lines,
    reference_segment_from_record,
    segment_to_record,
)
from profile_digests import GOLDEN, SEEDS, ingest_digest, ingest_key, trace_digest, trace_key


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
    assert len(log.traces) == 1
    assert len(log.traces["t1"]) == 3


def test_baas_segments_are_kept_by_the_parser():
    log = _log(
        _line(seg="s1", name="f1"),
        _line(seg="s2", parent="s1", name="orders-db", kind="baas", memory=None),
    )
    kinds = [s.kind for s in log.traces["t1"]]
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


def test_a_built_log_is_read_only_and_so_are_its_copies():
    log = _log(_line(seg="s1"), _line(seg="s2", parent="s1", name="f2"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        log.traces = {}
    for value in (log, pickle.loads(pickle.dumps(log)), copy.deepcopy(log)):
        assert value == log and type(value.traces["t1"]) is tuple
        with pytest.raises(TypeError):
            value.traces["t2"] = value.traces["t1"]


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


# Messages as the parser has always reported them: the JSON decoder's columns
# count from the first non-blank character of the line.
_BASE = ('{"trace_id": "t1", "segment_id": "s1", "name": "f1", "kind": "function", '
         '"start_time": 0.0, "end_time": 1.0, "memory_mb": 128')
PINNED_MESSAGES = {
    "not-json": ("{not json",
                 "line 2: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "indented": ("   \t{not json",
                 "line 2: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "truncated": ('{"trace_id": "t1"', "line 2: Expecting ',' delimiter: line 1 column 18 (char 17)"),
    "array": ("[1, 2]", "line 2: record must be a JSON object"),
    "extra-data": (_BASE + "} x", "line 2: Extra data: line 1 column 128 (char 127)"),
    "byte-order-mark": ("\ufeff" + _BASE + "}",
                        "line 2: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "nan-end": (_BASE.replace('"end_time": 1.0', '"end_time": NaN') + "}",
                "line 2: start_time and end_time must be finite, end_time not before start_time"),
    "infinite-start": (_BASE.replace('"start_time": 0.0', '"start_time": -Infinity') + "}",
                       "line 2: start_time and end_time must be finite, end_time not before start_time"),
    "end-before-start": (_BASE.replace('"start_time": 0.0', '"start_time": 2.0') + "}",
                         "line 2: start_time and end_time must be finite, end_time not before start_time"),
    "missing-key": (_BASE.replace('"end_time": 1.0, ', "") + "}", "line 2: missing keys: ['end_time']"),
    "missing-keys": (_BASE.replace('"trace_id": "t1", ', "").replace('"name": "f1", ', "") + "}",
                     "line 2: missing keys: ['trace_id', 'name']"),
    "unknown-keys": (_BASE + ', "zz": 1, "aa": 2}', "line 2: unknown keys: ['aa', 'zz']"),
    "bad-kind": (_BASE.replace('"function"', '"lambda"') + "}",
                 "line 2: kind must be one of ('function', 'baas'), got 'lambda'"),
    "empty-name": (_BASE.replace('"name": "f1"', '"name": ""') + "}",
                   "line 2: trace_id, segment_id and name must be non-empty"),
    "zero-memory": (_BASE.replace("128", "0") + "}", "line 2: memory_mb must be positive when present"),
    "duplicate-segment": (_BASE.replace('"name": "f1"', '"name": "f2", "parent_id": "s1"') + "}",
                          "line 2: duplicate segment_id 's1'"),
    # Bytes, not text: a line that is not UTF-8 can only come from a file.
    "not-utf-8": (_BASE.replace('"f1"', '"f\xff"').encode("latin-1") + b"}",
                  "line 2: 'utf-8' codec can't decode byte 0xff in position 49: invalid start byte"),
    # A sequence cut short by the line's end, not by the byte that follows.
    "utf-8-cut-by-line-end": (b'{"trace_id": "\xc3',
                              "line 2: 'utf-8' codec can't decode byte 0xc3 in position 14: unexpected end of data"),
}


@pytest.mark.parametrize("case", sorted(PINNED_MESSAGES))
def test_parse_error_messages_are_pinned(case, tmp_path):
    line, message = PINNED_MESSAGES[case]
    path = tmp_path / "trace.ndjson"
    if isinstance(line, str):
        with pytest.raises(ParseError) as excinfo:
            _log(_BASE + "}", line)
        assert str(excinfo.value) == message
        line = line.encode("utf-8")
    path.write_bytes((_BASE + "}\n").encode("utf-8") + line + b"\n")
    with pytest.raises(ParseError) as excinfo:
        parse_trace_file(path)
    assert str(excinfo.value) == message
    assert excinfo.value.line == 2


_BAD_UTF8 = (b"\xff", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f\x98")


@given(st.integers(0, 299), st.integers(0, 299), st.sampled_from(_BAD_UTF8), st.data())
@settings(max_examples=60, deadline=None)
def test_the_first_line_that_is_not_utf8_or_not_valid_is_reported(bad_at, broken_at, sequence, data):
    """A 300-line file, about 55 KB, so the text layer decodes it in several
    chunks: one line holds bytes that are not UTF-8 and another line may be
    malformed JSON. The error is the one a line-by-line read gives: the
    earlier of the two lines, with the codec's message for that line
    alone."""
    raw = [_line(trace=f"t{i}", name=f"f{i % 7}").encode() for i in range(300)]
    cut = data.draw(st.integers(1, len(raw[bad_at]) - 1))
    raw[bad_at] = raw[bad_at][:cut] + sequence + raw[bad_at][cut:]
    if data.draw(st.booleans()):
        raw[broken_at] = raw[broken_at][: data.draw(st.integers(1, 40))]
    ending = data.draw(st.sampled_from((b"\n", b"\r\n", b"\r")))

    decoded = []
    for line_no, line in enumerate(raw, start=1):
        try:
            decoded.append(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            expected = ParseError(line_no, str(exc))
            break
    try:
        reference_parse_lines(decoded)
    except ParseError as exc:
        expected = exc

    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "trace.ndjson"
        path.write_bytes(ending.join(raw) + ending)
        with pytest.raises(ParseError) as excinfo:
            parse_trace_file(path)
    assert (excinfo.value.line, excinfo.value.reason) == (expected.line, expected.reason)


_FEED_A_PIPE = """
import sys, threading
from faastune import parse_trace_file
from faastune.errors import ParseError

def feed():
    with open(sys.argv[1], "wb") as fh:
        fh.write(sys.stdin.buffer.read())

threading.Thread(target=feed, daemon=True).start()
try:
    parse_trace_file(sys.argv[1])
except ParseError as exc:
    print(exc.line, exc.reason)
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
def test_a_line_that_is_not_utf8_is_reported_from_a_named_pipe(tmp_path):
    """A path is read once, so its bytes may come through a pipe that cannot
    be read twice. The parse runs in a subprocess with a timeout, since a
    parser that opened the path again would wait for a writer for ever."""
    line = _line(name="f?").encode().replace(b"?", b"\xff")
    try:
        line.decode("utf-8")
    except UnicodeDecodeError as exc:
        expected = f"1 {exc}\n"
    pipe = tmp_path / "trace.ndjson"
    os.mkfifo(pipe)
    done = subprocess.run([sys.executable, "-c", _FEED_A_PIPE, str(pipe)], input=line + b"\n",
                          env=package_env(), capture_output=True, timeout=30)
    assert (done.returncode, done.stdout.decode(), done.stderr) == (0, expected, b"")


@pytest.mark.parametrize("character", ["\ud800", "\udfff", "\udcff"])
def test_a_line_holding_a_lone_surrogate_is_a_parse_error(character):
    """Text holds the surrogates no UTF-8 file can: such a line is reported
    as a file's line that is not UTF-8 is."""
    with pytest.raises(ParseError) as excinfo:
        _log(_line(), _line(seg="s2", parent="s1", name="f?").replace("?", character))
    assert excinfo.value.line == 2
    assert excinfo.value.reason.startswith("'utf-8' codec can't")


@pytest.mark.parametrize("name", ["é", "\U0001f600", "\u2028"], ids=["accent", "emoji", "line-separator"])
def test_a_line_with_non_ascii_text_parses(name, tmp_path):
    text = _line() + "\n" + _line(seg="s2", parent="s1", name="?").replace("?", name) + "\n"
    path = tmp_path / "trace.ndjson"
    path.write_bytes(text.encode("utf-8"))
    for source in (io.StringIO(text), path):
        assert parse_trace_file(source).traces["t1"][1].name == name


@pytest.mark.parametrize("field,value", [
    ("memory_mb", 128.9),
    ("memory_mb", True),
    ("memory_mb", "128"),
    ("start_time", True),
    ("start_time", "0.5"),
    ("start_time", None),
    ("end_time", False),
    ("end_time", [1.0]),
    ("cold_start", "yes"),
    ("cold_start", 1),
    ("trace_id", 7),
    ("trace_id", None),
    ("segment_id", 1.5),
    ("name", ["f1"]),
    ("parent_id", 5),
])
def test_mistyped_field_is_rejected_with_its_line_number(field, value):
    record = json.loads(_line(seg="s2", parent="s1", name="f2"))
    record[field] = value
    with pytest.raises(ParseError) as excinfo:
        _log(_line(seg="s1"), json.dumps(record))
    assert excinfo.value.line == 2
    assert field in excinfo.value.reason


def test_segments_are_immutable_checked_tuples():
    segment = TraceSegment("t1", "s1", "f1", "function", 1.0, 3.5, memory_mb=128)
    assert segment.end_time - segment.start_time == 2.5
    assert segment.parent_id is None and segment.cold_start is None
    with pytest.raises(AttributeError):
        segment.end_time = 9.0
    with pytest.raises(ValueError):
        segment._replace(end_time=0.5)
    with pytest.raises(ValueError):
        TraceSegment("t1", "s1", "f1", "lambda", 1.0, 3.5)


def test_documented_types_parse_as_documented():
    log = _log(
        _line(seg="s1", start=0, end=2, cold=False),
        _line(seg="s2", parent="s1", name="f2", start=1, end=1.5, memory=None),
        '{"trace_id": "t1", "segment_id": "s3", "parent_id": "s1", "name": "f3", "kind": "baas",'
        ' "start_time": 1.5, "end_time": 2, "memory_mb": null, "cold_start": null}',
    )
    root, child, backend = log.traces["t1"]
    assert (root.start_time, root.end_time, root.cold_start) == (0.0, 2.0, False)
    assert type(root.start_time) is float and type(backend.end_time) is float
    assert child.memory_mb is None and child.cold_start is None
    assert (backend.memory_mb, backend.cold_start) == (None, None)


@pytest.mark.parametrize("line", [
    _line(end=1).replace('"end_time": 1', '"end_time": 1' + "0" * 400),
    '{"trace_id": ' + "[" * 100_000,
], ids=["integer-time-too-large", "nested-too-deep"])
def test_undecodable_line_is_a_parse_error(line):
    with pytest.raises(ParseError) as excinfo:
        _log(_line(), line)
    assert excinfo.value.line == 2


# --- generated logs ----------------------------------------------------------

_names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
# Few distinct instants, so zero-length and touching intervals are common.
_instants = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.floats(-1e6, 1e6))


@st.composite
def _segments(draw, trace_id: str, ids=_names, names=_names, instants=_instants):
    segment_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    segments = []
    for i, segment_id in enumerate(segment_ids):
        start, end = sorted((draw(instants), draw(instants)))
        segments.append(TraceSegment(
            trace_id=trace_id,
            segment_id=segment_id,
            name=draw(names),
            kind=draw(st.sampled_from(SEGMENT_KINDS)),
            start_time=start,
            end_time=end,
            parent_id=draw(st.sampled_from(segment_ids[:i])) if i else None,
            memory_mb=draw(st.none() | st.integers(1, 10**12)),
            cold_start=draw(st.none() | st.booleans()),
        ))
    return segments


@st.composite
def trace_logs(draw, ids=_names, names=_names, instants=_instants):
    """A valid log: each trace a tree of function and baas segments, with
    every optional field sometimes absent; segment ids are drawn from
    ``ids``, trace ids and names from ``names`` and times from
    ``instants``."""
    trace_ids = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    return TraceLog({t: draw(_segments(t, ids, names, instants)) for t in trace_ids})


def _written(log: TraceLog) -> str:
    buffer = io.StringIO()
    write_trace_file(log, buffer)
    return buffer.getvalue()


def _dumped(traces: dict[str, list[TraceSegment]]) -> str:
    """The lines ``write_trace_file`` would write for these segments, which
    need not form a valid :class:`TraceLog`."""
    return "".join(json.dumps(segment_to_record(s)) + "\n"
                   for segments in traces.values() for s in segments)


@given(trace_logs())
@settings(max_examples=80, deadline=None)
def test_written_logs_parse_back_to_themselves(log):
    parsed = parse_trace_file(io.StringIO(_written(log)))
    assert parsed == log
    assert repr(parsed) == repr(log)  # same order, same value types


# Characters JSON must escape or that ``ensure_ascii`` writes as escapes: a
# quote, a backslash, control characters, non-ASCII, a line separator, astral
# characters (a surrogate pair each) and a lone surrogate.
_AWKWARD_CHARACTERS = st.one_of(
    st.sampled_from(('"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "\u2028",
                     "\U0001f600", "\U0010ffff", "\ud800")),
    st.characters(),
)
_awkward_names = st.text(_AWKWARD_CHARACTERS, min_size=1, max_size=6)
# Times at the edges of what ``repr`` writes, and integers, stored as floats.
_awkward_instants = st.one_of(
    st.sampled_from((-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1)),
    st.integers(-(2**60), 2**60),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(trace_logs(ids=_awkward_names, names=_awkward_names, instants=_awkward_instants))
@settings(max_examples=200, deadline=None)
def test_written_lines_are_what_json_dumps_writes(log):
    """Byte for byte, the writer writes ``json.dumps`` of each segment's
    record (``helpers.segment_to_record``) on its own line, and the file
    parses back to the log."""
    expected = _dumped(log.traces)
    written = _written(log)
    assert written == expected
    assert repr(parse_trace_file(io.StringIO(written))) == repr(log)


def test_written_lines_keep_the_documented_key_order():
    log = TraceLog({"t": (
        TraceSegment("t", "a", "f", "function", 0, 2, memory_mb=128, cold_start=False),
        TraceSegment("t", "b", "db", "baas", -0.0, 5e-324, parent_id="a"),
    )})
    assert _written(log) == (
        '{"trace_id": "t", "segment_id": "a", "name": "f", "kind": "function", '
        '"start_time": 0.0, "end_time": 2.0, "memory_mb": 128, "cold_start": false}\n'
        '{"trace_id": "t", "segment_id": "b", "parent_id": "a", "name": "db", "kind": "baas", '
        '"start_time": -0.0, "end_time": 5e-324}\n'
    )


_MISTYPED_SEGMENTS = {
    "memory-float": {"memory_mb": 128.0},
    "memory-bool": {"memory_mb": True},
    "cold-start-int": {"cold_start": 1},
    "start-bool": {"start_time": False},
    "end-text": {"end_time": "1.0"},
    "trace-id-int": {"trace_id": 7},
    "segment-id-none": {"segment_id": None},
    "name-list": {"name": ["f"]},
    "parent-id-int": {"parent_id": 5},
}


@pytest.mark.parametrize("case", sorted(_MISTYPED_SEGMENTS))
def test_a_segment_built_in_memory_holds_the_documented_types(case):
    """A segment the parser would reject for a field's type cannot be built
    in memory either, with the parser's message: it used to be built, and
    written to a line that did not parse back."""
    fields = dict(trace_id="t", segment_id="s", name="f", kind="function", start_time=0.0,
                  end_time=1.0, parent_id=None, memory_mb=128, cold_start=None)
    fields.update(_MISTYPED_SEGMENTS[case])
    with pytest.raises(ParseError) as parsed:
        _log(json.dumps(fields))
    with pytest.raises(ValueError) as built:
        TraceSegment(**fields)
    assert str(built.value) == parsed.value.reason
    key, value = next(iter(_MISTYPED_SEGMENTS[case].items()))
    assert str(built.value).startswith(key) and str(built.value).endswith(repr(value))


def test_integer_times_are_stored_as_floats():
    segment = TraceSegment("t", "s", "f", "function", 0, 2**60)
    assert (segment.start_time, segment.end_time) == (0.0, float(2**60))
    assert type(segment.start_time) is type(segment.end_time) is float
    assert _log(_written(TraceLog({"t": (segment,)}))) == TraceLog({"t": (segment,)})


def test_an_unhashable_id_or_name_is_a_parse_error_naming_the_field():
    """The parser shares ids and names before the segment checks their
    types; a JSON array or object there is still reported as mistyped."""
    for field, value in (("trace_id", ["t"]), ("name", {"f": 1}), ("parent_id", ["s1"])):
        record = json.loads(_line(seg="s2", parent="s1", name="f2"))
        record[field] = value
        with pytest.raises(ParseError) as excinfo:
            _log(_line(seg="s1"), json.dumps(record))
        assert excinfo.value.line == 2
        assert excinfo.value.reason.startswith(f"{field} must be ")


_WRONG_VALUES = {
    "trace_id": (7, None, True, ["t"]),
    "segment_id": (1.5, None, {}),
    "name": (0, None, ["f"]),
    "kind": ("lambda", None, 1),
    "start_time": ("0.5", True, None, float("nan"), float("inf")),
    "end_time": ("1", False, None, float("nan"), float("-inf")),
    "parent_id": (5, True, ["s"]),
    "memory_mb": (128.9, True, "128", 0, -1),
    "cold_start": ("yes", 1, 0.0),
}


@st.composite
def corrupted_lines(draw, record: dict) -> str:
    """One line that the parser must reject: malformed JSON, a non-object,
    an unknown or missing key, or a field with a wrong type or a
    non-finite or out-of-range value."""
    how = draw(st.sampled_from(("truncate", "non-object", "unknown", "missing", "value")))
    text = json.dumps(record)
    if how == "truncate":
        return text[: draw(st.integers(1, len(text) - 1))]
    if how == "non-object":
        return draw(st.sampled_from(("[]", "5", '"x"', "null", "true")))
    record = dict(record)
    if how == "unknown":
        record[draw(st.sampled_from(("extra", "memory", "Name")))] = 1
    elif how == "missing":
        del record[draw(st.sampled_from(
            ("trace_id", "segment_id", "name", "kind", "start_time", "end_time")))]
    else:
        field = draw(st.sampled_from(sorted(_WRONG_VALUES)))
        record[field] = draw(st.sampled_from(_WRONG_VALUES[field]))
    return json.dumps(record)


@given(trace_logs(), st.data())
@settings(max_examples=120, deadline=None)
def test_a_corrupted_line_is_reported_with_its_number(log, data):
    lines = _written(log).splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    lines[index] = data.draw(corrupted_lines(json.loads(lines[index])))
    with pytest.raises(ParseError) as excinfo:
        parse_trace_file(io.StringIO("\n".join(lines) + "\n"))
    assert excinfo.value.line == index + 1


# Text around a line's value: JSON and non-JSON whitespace, a byte-order mark,
# brackets, separators and a second value.
_AFFIXES = st.sampled_from(("", " ", "\t", "\r", "\u00a0", "\x0b", "\ufeff", "}", "]", ",",
                            "x", '"', "\\", '{"a": 1}', "[]", "0"))


def _record_check(text: str):
    """What ``json.loads`` makes of a stripped line, checked as a record:
    the segment, or the message of the first error."""
    try:
        record = json.loads(text)
        if type(record) is not dict:
            raise ValueError("record must be a JSON object")
        return reference_segment_from_record(record)
    except (ValueError, OverflowError, RecursionError) as exc:
        return str(exc)


@given(trace_logs(), st.data())
@settings(max_examples=200, deadline=None)
def test_each_line_decodes_as_json_loads_does(log, data):
    lines = _written(log).splitlines()
    record = json.loads(data.draw(st.sampled_from(lines)))
    body = data.draw(st.one_of(
        st.just(json.dumps(record)),
        corrupted_lines(record),
        st.text(max_size=40),
        st.recursive(st.none() | st.booleans() | st.floats() | st.text(max_size=5),
                     lambda xs: st.lists(xs) | st.dictionaries(st.text(max_size=5), xs),
                     max_leaves=5).map(json.dumps),
    ))
    line = data.draw(_AFFIXES) + body + data.draw(_AFFIXES)
    if not line.strip():
        assert _parse_lines([line]) == {}  # blank lines are skipped
        return
    expected = _record_check(line.strip())
    if isinstance(expected, str):
        with pytest.raises(ParseError) as excinfo:
            _parse_lines([line])
        assert (excinfo.value.line, excinfo.value.reason) == (1, expected)
    else:
        parsed = _parse_lines([line])
        assert repr(list(parsed.values())) == repr([(expected,)])
        fields = expected._asdict()
        assert fields == {**fields, **json.loads(line.strip())}  # the decoded record's values


def _outcome(parse, text: str):
    """The log ``parse`` makes of ``text`` as its repr, or its error's class
    and message (a :class:`ParseError`'s message holds its line)."""
    try:
        return repr(parse(text))
    except FaastuneError as exc:
        return type(exc), str(exc)


def _reference_parse(text: str) -> TraceLog:
    traces = reference_parse_lines(io.StringIO(text))
    for trace_id, segments in traces.items():
        reference_check_tree(trace_id, tuple(segments))
    return TraceLog(traces)


def _parse(text: str) -> TraceLog:
    return parse_trace_file(io.StringIO(text))


_POOLED_IDS = st.sampled_from(("s1", "s2", "s3", "s4", "s5", "s6"))


@given(trace_logs(ids=_POOLED_IDS), st.data())
@settings(max_examples=300, deadline=None)
def test_whole_files_parse_as_the_reference_parser_does(log, data):
    """Segment ids from a pool of six repeat across traces; lines may be
    shuffled (parents after their children), given another parent, repeated
    with another name, corrupted, indented, or joined by blank lines. The
    parser must give the reference's log, or its error class, line and
    message."""
    lines = _written(log).splitlines()
    if data.draw(st.booleans()):
        data.draw(st.randoms(use_true_random=False)).shuffle(lines)
    for _ in range(data.draw(st.integers(0, 2))):
        index = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[index])
        record["parent_id"] = data.draw(st.none() | _POOLED_IDS)
        lines[index] = json.dumps(record)
    for _ in range(data.draw(st.integers(0, 2))):
        record = json.loads(data.draw(st.sampled_from(lines)))
        record["name"] = data.draw(_names)
        lines.insert(data.draw(st.integers(0, len(lines))), json.dumps(record))
    if data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(lines) - 1))
        lines[index] = data.draw(corrupted_lines(json.loads(lines[index])))
    for _ in range(data.draw(st.integers(0, 2))):
        index = data.draw(st.integers(0, len(lines) - 1))
        lines[index] = data.draw(st.sampled_from((" ", "\t", "  "))) + lines[index] + " "
    for _ in range(data.draw(st.integers(0, 2))):
        blank = data.draw(st.sampled_from(("", " ", "\t", " \t ")))
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
    text = "\n".join(lines) + "\n"
    expected = _outcome(_reference_parse, text)
    assert _outcome(_parse, text) == expected
    if isinstance(expected, str):
        assert _parse(text) == _parse(text) == _reference_parse(text)


def test_lines_that_decode_together_are_still_checked_one_at_a_time():
    # Each line fails on its own (an unterminated string, a ':' delimiter,
    # extra data), but joined into one array they make exactly three objects.
    lines = ['{"p":"}', '{","r":2}', '{"a":1},{"b":2}']
    assert len(json.loads("[" + ",".join(lines) + "]")) == 3
    with pytest.raises(ParseError) as excinfo:
        parse_trace_file(io.StringIO("\n".join(lines) + "\n"))
    assert str(excinfo.value) == "line 1: Unterminated string starting at: line 1 column 6 (char 5)"
    for line in lines[1:]:
        with pytest.raises(ParseError):
            _parse_lines([line])


@given(trace_logs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_shuffled_lines_keep_each_trace_segments(log, rng):
    lines = _written(log).splitlines()
    rng.shuffle(lines)
    parsed = parse_trace_file(io.StringIO("\n".join(lines) + "\n"))
    assert set(parsed.traces) == set(log.traces)
    for trace_id, segments in log.traces.items():
        assert Counter(parsed.traces[trace_id]) == Counter(segments)


@given(st.sampled_from(("demo3", "demo6", "petstore", "random", "chain")),
       st.integers(0, 2**31), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_shuffled_lines_rebuild_the_same_graph(shape, seed, rng):
    app = generate_app(8, shape, seed)
    log = run_load(app, {f: 256 for f in app.graph.functions()}, 6, random.Random(seed))
    lines = _written(log).splitlines()
    rng.shuffle(lines)
    shuffled = parse_trace_file(io.StringIO("\n".join(lines) + "\n"))
    assert build_call_graph(shuffled) == build_call_graph(log) == app.graph


@given(trace_logs(), st.data())
@settings(max_examples=80, deadline=None)
def test_a_repeated_segment_id_is_reported_on_the_later_line(log, data):
    lines = _written(log).splitlines()
    first = data.draw(st.integers(0, len(lines) - 1))
    later = data.draw(st.integers(first + 1, len(lines)))
    record = json.loads(lines[first])
    record["name"] = data.draw(_names)
    lines.insert(later, json.dumps(record))
    with pytest.raises(ParseError) as excinfo:
        parse_trace_file(io.StringIO("\n".join(lines) + "\n"))
    assert excinfo.value.line == later + 1
    assert excinfo.value.reason == f"duplicate segment_id {record['segment_id']!r}"


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


def test_overlap_vote_matches_the_pairwise_reference():
    rng = random.Random(6)
    ties = touching = zero_length = 0
    for _ in range(400):
        siblings = [f"g{i}" for i in rng.sample(range(20), rng.randint(2, 7))]
        n_traces = rng.randint(1, 6)
        intervals = []
        for _ in range(n_traces):
            spans = {}
            for name in siblings:
                start = rng.choice((0.0, 0.5, 1.0, 1.5, 2.0))
                spans[name] = (start, start + rng.choice((0.0, 0.5, 1.0, 2.5)))
            intervals.append(spans)
        mean_start = {m: sum(t[m][0] for t in intervals) / n_traces for m in siblings}
        starts = [{m: s for m, (s, _) in t.items()} for t in intervals]
        ends = [{m: e for m, (_, e) in t.items()} for t in intervals]
        assert _parallel_groups(siblings, starts, ends, mean_start) == reference_parallel_groups(
            siblings, intervals, mean_start
        )
        lone = siblings[:1]
        assert _parallel_groups(lone, starts, ends, mean_start) == reference_parallel_groups(
            lone, intervals, mean_start
        )
        for i, a in enumerate(siblings):
            for b in siblings[i + 1 :]:
                votes = sum(t[a][0] < t[b][1] and t[b][0] < t[a][1] for t in intervals)
                ties += 0 < 2 * votes == n_traces
                touching += sum(t[a][1] == t[b][0] or t[b][1] == t[a][0] for t in intervals)
        zero_length += sum(s == e for t in intervals for s, e in t.values())
    assert ties and touching and zero_length  # the corpus reaches every edge case


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


@pytest.mark.parametrize("skipped", [
    [TraceSegment("x", "db", "orders-db", "baas", 0.0, 1.0)],
    [TraceSegment("x", "q", "queue", "baas", 0.0, 2.0),
     TraceSegment("x", "db", "orders-db", "baas", 0.5, 1.0, "q")],
], ids=["one-backend", "backends-only"])
def test_a_trace_without_function_segments_is_skipped(skipped):
    """Such a trace says nothing about the functions: the graph is the one
    the other traces give, and only a log of such traces is empty."""
    app = generate_app(shape="petstore", seed=3)
    log = run_load(app, dict.fromkeys(app.graph.functions(), 256), 3, random.Random(0))
    beside = TraceLog({"x": skipped, **log.traces})
    assert build_call_graph(beside) == build_call_graph(log) == app.graph
    assert build_call_graph(parse_trace_file(io.StringIO(_written(beside)))) == app.graph
    alone = TraceLog({"x": skipped})
    for rebuild in (lambda: build_call_graph(alone),
                    lambda: build_call_graph(parse_trace_file(io.StringIO(_written(alone))))):
        with pytest.raises(EmptyAfterFiltering):
            rebuild()


def test_an_empty_trace_is_rejected_when_the_log_is_built():
    """An empty trace has no root, so no log holds one (a file cannot)."""
    with pytest.raises(ParseError) as excinfo:
        TraceLog({"t1": [TraceSegment("t1", "s1", "f1", "function", 0.0, 1.0, None, 128)],
                  "x": []})
    assert (excinfo.value.line, excinfo.value.reason) == (0, "trace 'x' has no root segment")


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
    with pytest.raises(UnreachableSegment) as excinfo:
        TraceLog({"t1": [
            _segment("root", None, "root", 0.0, 3.0),
            _segment("a", "b", "a"),
            _segment("b", "a", "b"),
        ]})
    assert excinfo.value.segment_id == "a"


def test_in_memory_second_root_is_multiple_roots():
    with pytest.raises(MultipleRoots) as excinfo:
        TraceLog({"t1": [
            _segment("root", None, "root", 0.0, 3.0),
            _segment("other", None, "other", 0.0, 1.0),
        ]})
    assert excinfo.value.trace_id == "t1"


def test_in_memory_unknown_parent_is_an_orphan():
    with pytest.raises(OrphanSegment) as excinfo:
        TraceLog({"t1": [_segment("root", None, "root", 0.0, 3.0), _segment("a", "zzz", "a")]})
    assert excinfo.value.segment_id == "a"


@pytest.mark.parametrize("foreign", [("r", "c"), ("db",)], ids=["every-segment", "one-backend"])
def test_in_memory_segment_of_another_trace_is_rejected(foreign):
    """A trace's segments must carry its id. With every segment foreign, the
    log holds trace "b" twice, and its written file repeats segment ids."""
    def segment(segment_id, parent_id, name, kind, start, end):
        trace_id = "b" if segment_id in foreign else "a"
        memory_mb = 128 if kind == "function" else None
        return TraceSegment(trace_id, segment_id, name, kind, start, end, parent_id, memory_mb)

    segments = [segment("r", None, "f1", "function", 0.0, 2.0),
                segment("db", "r", "orders-db", "baas", 0.0, 1.0),
                segment("c", "r", "f2", "function", 1.0, 2.0)]
    if foreign == ("r", "c"):
        segments = [s for s in segments if s.kind == "function"]
    traces = {"a": segments, "b": [s._replace(trace_id="b") for s in segments]}
    with pytest.raises(ParseError) as excinfo:
        TraceLog(traces)
    assert "trace 'a'" in str(excinfo.value) and "of trace 'b'" in str(excinfo.value)
    with pytest.raises(ParseError, match="duplicate segment_id"):
        parse_trace_file(io.StringIO(_dumped(traces)))


def test_in_memory_the_first_bad_segment_of_a_trace_is_reported():
    """A repeated id and a segment of another trace are checked in one walk
    of the trace, so whichever comes first is the error."""
    root = TraceSegment("a", "r", "f1", "function", 0.0, 2.0, None, 128)
    again = root._replace(name="f2")
    foreign = TraceSegment("b", "c", "f3", "function", 1.0, 2.0, "r", 128)
    with pytest.raises(ParseError, match="^line 0: trace 'a' repeats segment_id 'r'$"):
        TraceLog({"a": [root, again, foreign]})
    with pytest.raises(ParseError, match="^line 0: trace 'a' holds segment 'c' of trace 'b'$"):
        TraceLog({"a": [root, foreign, again]})


# Traces of one function root and more segments, each (segment_id, parent_id,
# name, kind), that break the tree rule; with the error they raise and the
# segment or trace it names.
_MALFORMED_TREES = {
    "function-orphan": ([("a", "zzz", "a", "function")], OrphanSegment, "a"),
    "function-second-root": ([("b", None, "b", "function")], MultipleRoots, "t1"),
    "function-cycle": ([("a", "b", "a", "function"), ("b", "a", "b", "function")],
                       UnreachableSegment, "a"),
    "backend-orphan": ([("db", "nope", "db", "baas")], OrphanSegment, "db"),
    "backend-second-root": ([("db", None, "db", "baas")], MultipleRoots, "t1"),
    "backend-cycle": ([("x", "y", "x-db", "baas"), ("y", "x", "y-db", "baas")],
                      UnreachableSegment, "x"),
    "duplicate-id": ([("a", "root", "a", "function"), ("a", "root", "b", "function")],
                     ParseError, "a"),
    "duplicate-id-with-child": ([("a", "root", "a", "function"), ("a", "root", "b", "function"),
                                 ("c", "a", "c", "function")], ParseError, "a"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_TREES))
def test_a_malformed_tree_fails_alike_from_a_file_and_in_memory(case):
    rest, error, culprit = _MALFORMED_TREES[case]
    traces = {"t1": [TraceSegment("t1", "root", "root", "function", 0.0, 3.0, None, 128)] + [
        TraceSegment("t1", segment_id, name, kind, 0.0, 1.0, parent_id,
                     128 if kind == "function" else None)
        for segment_id, parent_id, name, kind in rest
    ]}
    with pytest.raises(error) as from_file:
        parse_trace_file(io.StringIO(_dumped(traces)))
    with pytest.raises(error) as in_memory:
        TraceLog(traces)
    for raised in (from_file.value, in_memory.value):
        assert repr(culprit) in str(raised)
    if error is not ParseError:  # a ParseError names its line, which is 0 in memory
        assert vars(in_memory.value) == vars(from_file.value)


@st.composite
def edited_logs(draw):
    """A ``run_load`` log of 3-5 traces of a generated app whose functions
    may call backends, with one edit in one trace: a function segment
    dropped, a function renamed to a sibling's name, a function re-parented
    to another function or to a backend, a backend segment dropped or
    re-parented to an id no segment has, or one segment given another's id.
    Returns the generating graph, the edit and the edited traces by id."""
    shape = draw(st.sampled_from(("chain", "random", "demo6", "demo10", "petstore")))
    app = generate_app(draw(st.integers(1, 8)), shape, seed=draw(st.integers(0, 2**16)))
    if not app.baas_children:
        names = app.graph.functions()
        counts = draw(st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)))
        baas = {name: tuple(f"{name}-db{j}" for j in range(count))
                for name, count in zip(names, counts) if count}
        app = dataclasses.replace(app, baas_children=baas)
    config = dict.fromkeys(app.graph.functions(), 256)
    log = run_load(app, config, draw(st.integers(3, 5)), random.Random(draw(st.integers(0, 99))))
    trace_id = draw(st.sampled_from(sorted(log.traces)))
    segments = log.traces[trace_id]
    functions = [s for s in segments if s.kind == "function"]
    backends = [s for s in segments if s.kind == "baas"]
    siblings = [(s, t) for s in functions for t in functions
                if s is not t and s.parent_id is not None and s.parent_id == t.parent_id]
    edits = ["drop-function"]
    if len(segments) > 1:
        edits += ["re-parent", "duplicate-id"]
    if siblings:
        edits.append("rename")
    if backends:
        edits += ["drop-backend", "orphan-backend"]
    edit = draw(st.sampled_from(edits))
    if edit in ("drop-function", "drop-backend"):
        dropped = draw(st.sampled_from(functions if edit == "drop-function" else backends))
        segments = [s for s in segments if s is not dropped]
    elif edit == "rename":
        renamed, sibling = draw(st.sampled_from(siblings))
        segments = [s._replace(name=sibling.name) if s is renamed else s for s in segments]
    elif edit == "orphan-backend":
        moved = draw(st.sampled_from(backends))
        segments = [s._replace(parent_id="no-such-segment") if s is moved else s for s in segments]
    elif edit == "duplicate-id":
        source, target = draw(st.permutations(segments))[:2]
        segments = [s._replace(segment_id=source.segment_id) if s is target else s
                    for s in segments]
    else:
        moved = draw(st.sampled_from(functions))
        parent = draw(st.sampled_from([s for s in segments if s is not moved]))
        segments = [s._replace(parent_id=parent.segment_id) if s is moved else s
                    for s in segments]
    return app.graph, edit, {**log.traces, trace_id: segments}


@given(edited_logs())
@settings(max_examples=500, deadline=None)
def test_an_edited_trace_rebuilds_its_graph_or_raises_a_typed_error(case):
    """One edited trace among the log's others: building the log and its
    graph returns the generating graph or raises a ``FaastuneError``, and it
    ends alike in memory and after writing and parsing the segments: the
    same graph or the same error type, unless the edit empties the trace.
    A renamed function, an orphaned backend and a repeated segment id
    always raise, and a dropped backend segment never changes the graph."""
    graph, edit, traces = case

    def outcome(rebuild):
        try:
            return rebuild()
        except FaastuneError as exc:
            return type(exc)

    in_memory = outcome(lambda: build_call_graph(TraceLog(traces)))
    from_file = outcome(lambda: build_call_graph(parse_trace_file(io.StringIO(_dumped(traces)))))
    if not all(traces.values()):
        # A trace emptied by the edit has no root, so the log rejects it; its
        # file holds no line of it, and the other traces give the graph.
        assert (in_memory, from_file) == (ParseError, graph)
        return
    assert in_memory == from_file
    if edit == "drop-backend":
        assert in_memory == graph
    elif edit in ("rename", "orphan-backend", "duplicate-id"):
        assert isinstance(in_memory, type)
    elif not isinstance(in_memory, type):
        assert in_memory == graph


def test_parsing_then_building_the_graph_checks_each_trace_once(monkeypatch):
    app = generate_app(shape="petstore", seed=3)
    text = _written(run_load(app, dict.fromkeys(app.graph.functions(), 256), 4, random.Random(0)))
    checked = []

    def counted(trace_id, segments):
        checked.append(trace_id)
        return _check_tree(trace_id, segments)

    monkeypatch.setattr("faastune.traces._check_tree", counted)
    assert build_call_graph(parse_trace_file(io.StringIO(text))) == app.graph
    assert checked == [f"req-{i:05d}" for i in range(4)]


@pytest.mark.parametrize("noisy", [False, True], ids=["default", "noisy"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_trace_files_are_pinned(tmp_path, shape, seed, noisy):
    """sha256 of the written profiling log of every shape at two seeds, at
    default and noisy settings: every byte ``write_trace_file`` writes for
    simulated traces, petstore's backend calls included
    (``tests/profile_digests.py`` checks the same under any interpreter)."""
    golden = json.loads(GOLDEN.read_text())
    assert trace_digest(tmp_path, shape, seed, noisy) == golden[trace_key(shape, seed, noisy)]


@pytest.mark.parametrize("noisy", [False, True], ids=["default", "noisy"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_trace_ingestion_is_pinned(tmp_path, shape, seed, noisy):
    """sha256 of the graph, samples, alpha and repaired profiles learned from
    a written profiling log of every shape at two seeds, at default and
    noisy settings (``tests/profile_digests.py`` checks the same under any
    interpreter)."""
    golden = json.loads(GOLDEN.read_text())
    assert ingest_digest(tmp_path, shape, seed, noisy) == golden[ingest_key(shape, seed, noisy)]


# --- samples -----------------------------------------------------------------


def test_sample_duration_is_end_minus_start():
    log = _log(_line(seg="s1", name="f1", start=10.0, end=14.5, memory=128))
    assert extract_samples(log) == {128: {"f1": [4.5]}}


def test_baas_segments_yield_no_samples():
    log = _log(
        _line(seg="s1", name="f1"),
        _line(seg="s2", parent="s1", name="db", kind="baas", memory=None),
    )
    assert extract_samples(log) == {128: {"f1": [1.0]}}


def test_function_without_memory_annotation_rejected():
    log = _log(_line(seg="s1", name="f1", memory=None))
    with pytest.raises(MissingMemoryAnnotation):
        extract_samples(log)


def test_a_span_too_long_to_measure_is_rejected_naming_its_segment_and_trace():
    """Both ends of the span are finite, so the segment parses, but its
    duration overflows to inf; a percentile of such a column is NaN."""
    log = _log(
        *(_line(trace=t, seg="s1", name="f1", start=0.0, end=2.0) for t in ("t1", "t2", "t4")),
        _line(trace="t3", seg="s1", name="f1", start=0.0, end=2.0, memory=256),
        _line(trace="t3", seg="s2", parent="s1", name="f2", start=-1e308, end=1e308, memory=256),
    )
    assert len(log.traces) == 4
    with pytest.raises(ValueError, match="^trace 't3': segment 's2' is too long to measure$"):
        extract_samples(log)


def test_the_first_fault_in_trace_order_is_the_one_reported():
    """Samples are checked in one walk of the log: a span too long to
    measure is reported before a later segment without ``memory_mb``, and
    after an earlier one; within one segment the missing memory size comes
    first."""
    too_long = _line(trace="t1", seg="s1", name="f1", start=-1e308, end=1e308)
    unsized = _line(trace="t2", seg="s1", name="f1", start=0.0, end=2.0, memory=None)
    with pytest.raises(ValueError, match="^trace 't1': segment 's1' is too long to measure$"):
        extract_samples(_log(too_long, unsized))
    with pytest.raises(MissingMemoryAnnotation, match="'s1' has no memory_mb"):
        extract_samples(_log(unsized, too_long))
    both = _line(trace="t1", seg="s1", name="f1", start=-1e308, end=1e308, memory=None)
    with pytest.raises(MissingMemoryAnnotation):
        extract_samples(_log(both))


def test_fifty_traces_of_three_functions_yield_150_samples():
    app = generate_app(shape="demo3", seed=5)
    config = {f: 128 for f in app.graph.functions()}
    log = run_load(app, config, 50, random.Random(1))
    (by_function,) = extract_samples(log).values()
    assert set(by_function) == set(app.graph.functions())
    assert all(len(durations) == 50 for durations in by_function.values())


def test_row_k_is_trace_k_whatever_order_its_segments_are_listed_in():
    """``select_alpha`` composes each holdout request from one row of the
    columns, so row k of every column at a memory size must be the k-th
    trace there, also when traces list their functions in different orders."""
    app = generate_app(shape="demo6", seed=3)
    log = profile_application(app, MemoryLadder(values=(128, 256), cap_mb=None), k_per_level=8,
                              rng=random.Random(2))
    rng = random.Random(5)
    shuffled = {trace_id: rng.sample(segments, len(segments))
                for trace_id, segments in log.traces.items()}
    orders = {tuple(s.name for s in segments if s.kind == "function")
              for segments in shuffled.values()}
    assert len(orders) > 1
    samples = extract_samples(TraceLog(shuffled))
    rows: dict[int, int] = {}
    for segments in log.traces.values():
        functions = [s for s in segments if s.kind == "function"]
        k = rows[functions[0].memory_mb] = rows.get(functions[0].memory_mb, -1) + 1
        for s in functions:
            assert samples[s.memory_mb][s.name][k] == s.end_time - s.start_time
    assert rows == {128: 7, 256: 7}
    assert samples == extract_samples(log)


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
