import csv
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from faastune.cli import main
from faastune.traces import graph_to_dict
from faastune import (
    MemoryLadder,
    build_profiles,
    extract_samples,
    generate_app,
    load_app,
    load_profiles,
    monotone_repair,
    profile_samples,
    profile_application,
    run_load,
    save_profiles,
    select_alpha,
    write_trace_file,
)
from faastune.sim import SHAPES
from helpers import package_env
from profile_digests import (
    REPORTS_KEY,
    RESULT_CASES,
    SEEDS,
    app_digest,
    app_key,
    optimize_results,
    profile_digest,
    profile_key,
    validate_reports_digest,
)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _pipeline(workdir, shape="demo3", slo="3.0", objective="feasible", algorithm="greedy",
              name="run", seed="3"):
    app = workdir / "app.json"
    profiles = workdir / "profiles.csv"
    result = workdir / f"{name}.result.json"
    report = workdir / f"{name}.validation.json"
    assert main(["generate-app", "--shape", shape, "--seed", seed, "--out", str(app)]) == 0
    assert main(["profile", "--app", str(app), "--requests", "20", "--seed", seed,
                 "--out", str(profiles)]) == 0
    code = main(["optimize", "--app", str(app), "--profiles", str(profiles),
                 "--slo", slo, "--objective", objective, "--algorithm", algorithm,
                 "--out", str(result)])
    return app, profiles, result, report, code


def test_full_pipeline_all_objectives(workdir, capsys):
    app, profiles, result, report, code = _pipeline(workdir, slo="4.0")
    assert code == 0
    record = json.loads(result.read_text())
    assert record["estimated_time_s"] <= 4.0
    assert set(record["config"]) == {"f1", "f2", "f3"}

    for objective in ("min-cost", "min-time"):
        out = workdir / f"{objective}.result.json"
        assert main(["optimize", "--app", str(app), "--profiles", str(profiles),
                     "--slo", "4.0", "--objective", objective, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["estimated_time_s"] <= 4.0

    assert main(["validate", "--app", str(app), "--config", str(result),
                 "--slo", "4.0", "--seed", "99", "--out", str(report)]) == 0
    validation = json.loads(report.read_text())
    assert 0.0 <= validation["conformance"] <= 1.0
    assert validation["accuracy_pct"] is not None

    table = workdir / "summary.md"
    assert main(["report", "--results", str(workdir), "--out", str(table)]) == 0
    text = table.read_text()
    assert "greedy" in text
    out = capsys.readouterr().out
    assert "wrote" in out


def test_brute_force_algorithm_via_cli(workdir):
    app, profiles, result, _, code = _pipeline(
        workdir, slo="4.0", algorithm="brute", objective="min-cost", name="bf"
    )
    assert code == 0
    record = json.loads(result.read_text())
    assert record["algorithm"] == "brute-force-min-cost"
    assert record["evaluations"] == 5 ** 3  # capped default ladder, three functions


def test_infeasible_slo_exits_4_and_reports_empty_config(workdir, capsys):
    app, profiles, result, _, code = _pipeline(workdir, slo="0.000001", name="impossible")
    assert code == 4
    assert "infeasible" in capsys.readouterr().out
    record = json.loads(result.read_text())
    assert record["config"] is None


@pytest.fixture()
def non_monotone_files(workdir):
    """f1 then f2, where f2 gets slower with more memory; an SLO of 2.8 s
    is met only with f2 at 128 MB and f1 at 256 or 512 MB."""
    graph = workdir / "graph.json"
    graph.write_text(json.dumps({"kind": "sequence", "children": [
        {"kind": "function", "name": "f1"}, {"kind": "function", "name": "f2"}]}))
    profiles = workdir / "profiles.csv"
    profiles.write_text(
        "function,memory_mb,alpha,representative_s,sample_count\n"
        "f1,128,50.0,1.51,3\nf1,256,50.0,1.13,3\nf1,512,50.0,1.1,3\n"
        "f2,128,50.0,1.66,3\nf2,256,50.0,1.91,3\nf2,512,50.0,1.88,3\n")
    return ["optimize", "--graph", str(graph), "--profiles", str(profiles), "--slo", "2.8",
            "--out", str(workdir / "run.result.json")]


@pytest.mark.parametrize("objective", ["feasible", "min-cost", "min-time"])
def test_greedy_on_a_non_monotone_table_exits_2_naming_the_function(
        non_monotone_files, objective, capsys):
    assert main(non_monotone_files + ["--objective", objective]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'f2'" in err


def test_brute_force_takes_a_non_monotone_table(non_monotone_files, workdir):
    assert main(non_monotone_files + ["--algorithm", "brute"]) == 0
    record = json.loads((workdir / "run.result.json").read_text())
    assert record["config"] == {"f1": 256, "f2": 128}


@pytest.mark.parametrize("argv", [
    ["profile", "--app", "{app}", "--no-monotone-repair"],
    ["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "4",
     "--allow-non-monotone"],
], ids=["profile-no-monotone-repair", "optimize-allow-non-monotone"])
def test_removed_monotone_flags_exit_2_with_usage(pipeline_files, argv, capsys):
    argv = [arg.format(**pipeline_files) for arg in argv] + ["--out", pipeline_files["out"]]
    assert main(argv) == 2
    assert "usage: faastune" in capsys.readouterr().err


def test_zero_functions_exits_2(workdir):
    assert main(["generate-app", "--shape", "chain", "--functions", "0",
                 "--out", str(workdir / "x.json")]) == 2


def test_missing_app_file_exits_2(workdir):
    assert main(["profile", "--app", str(workdir / "absent.json"),
                 "--out", str(workdir / "p.csv")]) == 2
    assert main(["optimize", "--app", str(workdir / "absent.json"),
                 "--profiles", str(workdir / "p.csv"), "--slo", "1",
                 "--out", str(workdir / "r.json")]) == 2


#: Profile-table variants ``pipeline_files`` writes: the column edited and its
#: new value.
_BAD_VALUE_PROFILES = {
    "text_memory": (1, "abc"), "zero_memory": (1, "0"), "negative_memory": (1, "-128"),
    "empty_function": (0, ""), "text_alpha": (2, "abc"), "nan_alpha": (2, "nan"),
    "alpha_150": (2, "150"), "text_representative": (3, "abc"), "text_count": (4, "abc"),
}


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("inputs")
    app, profiles, result, _, code = _pipeline(workdir, slo="4.0")
    assert code == 0
    # The demo3 app with its three functions started concurrently: no entry function.
    spec = json.loads(app.read_text())
    spec["graph"] = {"kind": "parallel", "children": spec["graph"]["children"]}
    parallel_app = workdir / "parallel-root.json"
    parallel_app.write_text(json.dumps(spec))
    header, first, *rest = profiles.read_text().splitlines(keepends=True)
    short_profiles = workdir / "short-row.csv"
    short_profiles.write_text(header + "f1,128\n" + "".join(rest))
    # Tables that would load with a value dropped, with the last copy of a
    # repeated column winning, or with a negative sample count.
    extra_field_profiles = workdir / "extra-field.csv"
    extra_field_profiles.write_text(header + first.rstrip("\r\n") + ",7\n" + "".join(rest))
    repeated_column_profiles = workdir / "repeated-column.csv"
    repeated_column_profiles.write_text("".join(
        line.rstrip("\r\n") + "," + line.split(",")[2] + "\n" for line in [header, first, *rest]))
    negative_count_profiles = workdir / "negative-count.csv"
    negative_count_profiles.write_text(header + first.rsplit(",", 1)[0] + ",-1\n" + "".join(rest))
    nan_profiles = workdir / "nan.csv"
    nan_profiles.write_text(header + "f1,128,50.0,nan,20\n" + "".join(rest))
    # One bad value in f1's first row, or for alpha in all of f1's rows (they
    # must agree on it).
    bad_value_profiles = {}
    for kind, (column, value) in _BAD_VALUE_PROFILES.items():
        rows = [line.rstrip("\r\n").split(",") for line in [first, *rest]]
        for row in rows:
            if row is rows[0] or (column == 2 and row[0] == "f1"):
                row[column] = value
        bad_value_profiles[f"{kind}_profiles"] = workdir / f"{kind}-profiles.csv"
        bad_value_profiles[f"{kind}_profiles"].write_text(
            header + "".join(",".join(row) + "\n" for row in rows))
    list_config = workdir / "list-config.json"
    list_config.write_text(json.dumps([json.loads(result.read_text())]))
    record = json.loads(result.read_text())
    record["config"]["f1"] = "abc"
    text_memory = workdir / "text-memory.json"
    text_memory.write_text(json.dumps(record))
    record["config"]["f1"] = 0
    zero_memory = workdir / "zero-memory.json"
    zero_memory.write_text(json.dumps(record))
    record["config"]["f1"] = 128.9
    float_memory = workdir / "float-memory.json"
    float_memory.write_text(json.dumps(record))
    record["config"]["f1"] = True
    bool_memory = workdir / "bool-memory.json"
    bool_memory.write_text(json.dumps(record))
    record = json.loads(result.read_text())
    record["estimated_time_s"] = "x"
    text_estimate = workdir / "text-estimate.json"
    text_estimate.write_text(json.dumps(record))
    record["estimated_time_s"] = float("nan")
    nan_estimate = workdir / "nan-estimate.json"
    nan_estimate.write_text(json.dumps(record))
    record["estimated_time_s"] = float("inf")
    inf_estimate = workdir / "inf-estimate.json"
    inf_estimate.write_text(json.dumps(record))
    alpha = rest[0].split(",")[2]
    duplicate_profiles = workdir / "duplicate-row.csv"
    duplicate_profiles.write_text(profiles.read_text() + f"f1,128,{alpha},9.0,5\n")
    malformed_results = workdir / "malformed"
    malformed_results.mkdir()
    (malformed_results / "broken.result.json").write_text("{not json")
    int_algorithm = workdir / "int-algorithm"
    int_algorithm.mkdir()
    record = json.loads(result.read_text())
    record["algorithm"] = 5
    (int_algorithm / "run.result.json").write_text(json.dumps(record))
    text_conformance = workdir / "text-conformance"
    text_conformance.mkdir()
    (text_conformance / "run.result.json").write_text(result.read_text())
    (text_conformance / "run.validation.json").write_text(json.dumps({"conformance": "x"}))
    nan_conformance = workdir / "nan-conformance"
    nan_conformance.mkdir()
    (nan_conformance / "run.result.json").write_text(result.read_text())
    (nan_conformance / "run.validation.json").write_text(json.dumps({"conformance": float("nan")}))
    spec = json.loads(app.read_text())
    spec["functions"]["f1"]["work"] = float("nan")
    nan_work_app = workdir / "nan-work.json"
    nan_work_app.write_text(json.dumps(spec))
    deep_json = workdir / "deeply-nested.json"
    deep_json.write_text('{"config": ' + "[" * 100_000)
    binary = workdir / "binary.json"
    binary.write_bytes(bytes(range(256)))
    directory = workdir / "a-directory"
    directory.mkdir()
    long_field_profiles = workdir / "long-field.csv"
    long_field_profiles.write_text(header + "f1" * 100_000 + "\n")
    spec = json.loads(app.read_text())
    spec["functions"]["f1"]["work"] = True
    bool_work_app = workdir / "bool-work.json"
    bool_work_app.write_text(json.dumps(spec))
    spec = json.loads(app.read_text())
    spec["functions"]["f1"]["cold_start_prob"] = False
    bool_probability_app = workdir / "bool-probability.json"
    bool_probability_app.write_text(json.dumps(spec))
    spec = json.loads(app.read_text())
    spec["shape"] = 5
    int_shape_app = workdir / "int-shape.json"
    int_shape_app.write_text(json.dumps(spec))
    spec = json.loads(app.read_text())
    spec["functions"]["f1"]["function"] = "f1"
    function_key_app = workdir / "function-key.json"
    function_key_app.write_text(json.dumps(spec))
    seed_apps = {}
    for kind, seed in (("bool", True), ("float", 7.9), ("text", "12")):
        spec = json.loads(app.read_text())
        spec["seed"] = seed
        seed_apps[f"{kind}_seed_app"] = workdir / f"{kind}-seed.json"
        seed_apps[f"{kind}_seed_app"].write_text(json.dumps(spec))
    empty_result = workdir / "empty-result"
    empty_result.mkdir()
    (empty_result / "x.result.json").write_text("{}")
    list_config_result = workdir / "list-config-result"
    list_config_result.mkdir()
    record = json.loads(result.read_text())
    record["config"] = list(record["config"].values())
    (list_config_result / "x.result.json").write_text(json.dumps(record))
    spec = json.loads(app.read_text())
    spec["functions"] = list(spec["functions"])
    function_list_app = workdir / "function-list.json"
    function_list_app.write_text(json.dumps(spec))
    # Finite latencies whose simulated sums or jitter overflow a float.
    spec = json.loads(app.read_text())
    for name in ("f1", "f2"):
        spec["functions"][name] = {"kind": "baas_bound", "baas_latency_s": 1e308,
                                   "cold_start_s": 0.0, "cold_start_prob": 0.0,
                                   "jitter_cv": 0.0}
    overflow_app = workdir / "overflow.json"
    overflow_app.write_text(json.dumps(spec))
    spec = json.loads(app.read_text())
    spec["functions"]["f1"]["jitter_cv"] = 1e308
    jitter_overflow_app = workdir / "jitter-overflow.json"
    jitter_overflow_app.write_text(json.dumps(spec))
    # A 1e308 s span split among three backend calls, although ``duration * 2``
    # overflows a float.
    spec = json.loads(app.read_text())
    spec["functions"]["f2"] = {"kind": "baas_bound", "baas_latency_s": 1e308,
                               "cold_start_s": 0.0, "cold_start_prob": 0.0, "jitter_cv": 0.0}
    spec["baas_children"] = {"f2": ["db", "queue", "cache"]}
    split_overflow_app = workdir / "split-overflow.json"
    split_overflow_app.write_text(json.dumps(spec))
    # Backend names that are not a JSON list of non-empty strings.
    backend_apps = {}
    for kind, backends in (("string", "payments-db"), ("number", [7]), ("nested", [["x"]]),
                           ("empty", [""])):
        spec = json.loads(app.read_text())
        spec["baas_children"] = {"f2": backends}
        backend_apps[f"{kind}_backend_app"] = workdir / f"{kind}-backend.json"
        backend_apps[f"{kind}_backend_app"].write_text(json.dumps(spec))
    return {"app": str(app), "profiles": str(profiles), "result": str(result),
            "parallel_app": str(parallel_app), "short_profiles": str(short_profiles),
            "extra_field_profiles": str(extra_field_profiles),
            "repeated_column_profiles": str(repeated_column_profiles),
            "negative_count_profiles": str(negative_count_profiles),
            "nan_profiles": str(nan_profiles), "list_config": str(list_config),
            "text_memory": str(text_memory), "zero_memory": str(zero_memory),
            "text_estimate": str(text_estimate), "duplicate_profiles": str(duplicate_profiles),
            "malformed_results": str(malformed_results), "int_algorithm": str(int_algorithm),
            "text_conformance": str(text_conformance), "float_memory": str(float_memory),
            "bool_memory": str(bool_memory), "nan_estimate": str(nan_estimate),
            "inf_estimate": str(inf_estimate), "nan_conformance": str(nan_conformance),
            "deep_json": str(deep_json), "nan_work_app": str(nan_work_app),
            "binary": str(binary), "directory": str(directory),
            "long_field_profiles": str(long_field_profiles),
            "function_list_app": str(function_list_app),
            "overflow_app": str(overflow_app), "jitter_overflow_app": str(jitter_overflow_app),
            "split_overflow_app": str(split_overflow_app),
            "bool_work_app": str(bool_work_app), "bool_probability_app": str(bool_probability_app),
            "int_shape_app": str(int_shape_app), "function_key_app": str(function_key_app),
            "empty_result": str(empty_result),
            "list_config_result": str(list_config_result),
            **{key: str(path) for key, path in seed_apps.items()},
            **{key: str(path) for key, path in bad_value_profiles.items()},
            **{key: str(path) for key, path in backend_apps.items()},
            "results": str(workdir), "out": str(workdir / "out.json")}


@pytest.mark.parametrize("argv", [
    ["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "0"],
    ["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "nan"],
    ["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "inf"],
    ["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "4",
     "--usd-per-gb-second", "0"],
    ["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "4",
     "--usd-per-gb-second", "nan"],
    ["optimize", "--app", "{app}", "--profiles", "{app}", "--slo", "4"],
    ["profile", "--app", "{app}", "--alpha", "150"],
    ["validate", "--app", "{app}", "--config", "{result}", "--slo", "-1"],
    ["validate", "--app", "{app}", "--config", "{result}", "--slo", "4", "--percentile", "0"],
    ["profile", "--app", "{parallel_app}"],
    ["validate", "--app", "{parallel_app}", "--config", "{result}", "--slo", "4"],
    ["optimize", "--app", "{parallel_app}", "--profiles", "{profiles}", "--slo", "4"],
    ["optimize", "--app", "{app}", "--profiles", "{short_profiles}", "--slo", "4"],
    ["optimize", "--app", "{app}", "--profiles", "{nan_profiles}", "--slo", "4"],
    ["validate", "--app", "{app}", "--config", "{result}", "--slo", "4", "--requests", "0"],
    ["validate", "--app", "{app}", "--config", "{result}", "--slo", "4", "--requests", "-3"],
    ["validate", "--app", "{app}", "--config", "{list_config}", "--slo", "4"],
    ["validate", "--app", "{app}", "--config", "{text_memory}", "--slo", "4"],
    ["profile", "--app", "{app}", "--requests", "0", "--alpha", "50"],
    ["profile", "--app", "{app}", "--requests", "0"],
    ["report", "--results", "{malformed_results}"],
    ["validate", "--app", "{app}", "--config", "{text_estimate}", "--slo", "4"],
    ["report", "--results", "{int_algorithm}"],
    ["report", "--results", "{text_conformance}"],
    ["validate", "--app", "{app}", "--config", "{zero_memory}", "--slo", "4"],
    ["optimize", "--app", "{app}", "--profiles", "{duplicate_profiles}", "--slo", "4"],
    ["validate", "--app", "{app}", "--config", "{float_memory}", "--slo", "4"],
    ["validate", "--app", "{app}", "--config", "{bool_memory}", "--slo", "4"],
    ["validate", "--app", "{app}", "--config", "{nan_estimate}", "--slo", "4"],
    ["validate", "--app", "{app}", "--config", "{inf_estimate}", "--slo", "4"],
    ["report", "--results", "{nan_conformance}"],
    ["validate", "--app", "{app}", "--config", "{deep_json}", "--slo", "4"],
    ["optimize", "--graph", "{deep_json}", "--profiles", "{profiles}", "--slo", "4"],
    ["profile", "--app", "{deep_json}"],
    ["profile", "--app", "{nan_work_app}"],
    ["profile", "--app", "{binary}"],
    ["profile", "--app", "{directory}"],
    ["optimize", "--app", "{app}", "--profiles", "{directory}", "--slo", "4"],
    ["optimize", "--app", "{app}", "--profiles", "{long_field_profiles}", "--slo", "4"],
    ["optimize", "--app", "{app}", "--profiles", "{extra_field_profiles}", "--slo", "4"],
    ["optimize", "--app", "{app}", "--profiles", "{repeated_column_profiles}", "--slo", "4"],
    ["optimize", "--app", "{app}", "--profiles", "{negative_count_profiles}", "--slo", "4"],
    ["profile", "--app", "{function_list_app}"],
    ["profile", "--app", "{bool_work_app}"],
    ["profile", "--app", "{bool_probability_app}"],
    ["profile", "--app", "{int_shape_app}"],
    ["report", "--results", "{empty_result}"],
    ["report", "--results", "{list_config_result}"],
    ["profile", "--app", "{bool_seed_app}"],
    ["profile", "--app", "{float_seed_app}"],
    ["profile", "--app", "{text_seed_app}"],
    ["profile", "--app", "{function_key_app}"],
    *[[command, "--app", f"{{{kind}_backend_app}}", *rest]
      for kind in ("string", "number", "nested", "empty")
      for command, *rest in (["profile"], ["validate", "--config", "{result}", "--slo", "4"])],
    *[["optimize", "--app", "{app}", "--profiles", f"{{{kind}_profiles}}", "--slo", "4"]
      for kind in _BAD_VALUE_PROFILES],
], ids=["slo-0", "slo-nan", "slo-inf", "price-0", "price-nan", "profiles-not-a-table",
        "alpha-150", "validate-slo-negative", "validate-percentile-0",
        "profile-no-entry-function", "validate-no-entry-function",
        "optimize-app-no-entry-function", "profiles-short-row", "profiles-nan-representative",
        "validate-requests-0", "validate-requests-negative", "validate-config-list",
        "validate-config-text-memory", "profile-requests-0-alpha", "profile-requests-0",
        "report-malformed-result", "validate-estimate-text", "report-algorithm-int",
        "report-conformance-text", "validate-config-zero-memory", "profiles-duplicate-row",
        "validate-config-float-memory", "validate-config-bool-memory", "validate-estimate-nan",
        "validate-estimate-inf", "report-conformance-nan", "validate-config-deeply-nested",
        "optimize-graph-deeply-nested", "profile-app-deeply-nested", "profile-app-nan-work",
        "profile-app-binary", "profile-app-directory", "optimize-profiles-directory",
        "profiles-field-too-long", "profiles-extra-field", "profiles-repeated-column",
        "profiles-negative-sample-count", "profile-app-functions-list", "profile-app-bool-work",
        "profile-app-bool-cold-start-prob", "profile-app-int-shape", "report-empty-result",
        "report-list-config", "profile-app-bool-seed", "profile-app-float-seed",
        "profile-app-text-seed", "profile-app-function-key",
        *[f"{command}-app-{kind}-backend" for kind in ("string", "number", "nested", "empty")
          for command in ("profile", "validate")],
        *[f"profiles-{kind.replace('_', '-')}" for kind in _BAD_VALUE_PROFILES]])
def test_out_of_range_input_exits_2_with_error_line(pipeline_files, argv, capsys):
    argv = [arg.format(**pipeline_files) for arg in argv] + ["--out", pipeline_files["out"]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["profile", "--app", "{app}", "--requests", "3"],
    ["profile", "--app", "{overflow_app}"],
    ["validate", "--app", "{overflow_app}", "--config", "{result}", "--slo", "4"],
    ["profile", "--app", "{jitter_overflow_app}"],
    ["validate", "--app", "{jitter_overflow_app}", "--config", "{result}", "--slo", "4"],
], ids=["profile-too-few-samples", "profile-latency-overflow", "validate-latency-overflow",
        "profile-jitter-overflow", "validate-jitter-overflow"])
def test_simulation_failure_exits_3_with_error_line(pipeline_files, argv, capsys):
    argv = [arg.format(**pipeline_files) for arg in argv] + ["--out", pipeline_files["out"]]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_profile_splits_a_huge_span_among_three_backends(pipeline_files, workdir):
    """The table of an app whose 1e308 s span three backend calls share is
    the one profiling its traces gives."""
    app_path = pipeline_files["split_overflow_app"]
    out, expected = workdir / "profiles.csv", workdir / "expected.csv"
    assert main(["profile", "--app", app_path, "--seed", "3", "--out", str(out)]) == 0
    app, ladder = load_app(app_path), MemoryLadder()
    samples = extract_samples(profile_application(app, ladder, 50, random.Random(3)))
    alpha = select_alpha(samples, ladder, app.graph, seed=3)
    built = build_profiles(samples, ladder, alpha)
    save_profiles({name: monotone_repair(p) for name, p in built.items()}, expected)
    assert out.read_text() == expected.read_text()


@pytest.mark.parametrize("argv", [
    ["generate-app"],
    ["profile", "--app", "{app}", "--requests", "4"],
    ["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "4"],
    ["validate", "--app", "{app}", "--config", "{result}", "--slo", "4", "--requests", "4"],
    ["report", "--results", "{results}"],
], ids=["generate-app", "profile", "optimize", "validate", "report"])
def test_unwritable_out_exits_2_naming_the_file(pipeline_files, argv, capsys):
    out = str(Path(pipeline_files["out"]).parent / "absent-directory" / "out.json")
    argv = [arg.format(**pipeline_files) for arg in argv] + ["--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err


def test_profiles_that_are_not_utf8_exit_2_naming_the_file(pipeline_files, workdir, capsys):
    """The codec's message used to reach the error line without the path."""
    bad = workdir / "not-utf8.csv"
    table = Path(pipeline_files["profiles"]).read_bytes()
    bad.write_bytes(table.replace(b"f2", b"f\xff", 1))
    assert main(["optimize", "--app", pipeline_files["app"], "--profiles", str(bad),
                 "--slo", "4", "--out", pipeline_files["out"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "0xff" in err


def test_readme_walkthrough_names_the_encoding_of_every_file(tmp_path):
    """The README's five steps, run with the locale's default encoding
    turned into an error: every file the CLI reads or writes is opened as
    UTF-8 by name."""
    for argv in (
        ["generate-app", "--shape", "demo3", "--seed", "11", "--out", "app.json"],
        ["profile", "--app", "app.json", "--requests", "50", "--seed", "11",
         "--out", "profiles.csv"],
        ["optimize", "--app", "app.json", "--profiles", "profiles.csv", "--slo", "2.0",
         "--objective", "min-cost", "--out", "run.result.json"],
        ["validate", "--app", "app.json", "--config", "run.result.json", "--slo", "2.0",
         "--requests", "100", "--seed", "99", "--out", "run.validation.json"],
        ["report", "--results", ".", "--out", "summary.md"],
    ):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "faastune.cli", *argv],
            cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, (argv[0], done.stderr)


def test_absurd_estimate_validates_without_an_accuracy(pipeline_files, capsys):
    record = json.loads(Path(pipeline_files["result"]).read_text())
    record["estimated_time_s"] = 1e200  # its squared error overflows a float
    config = Path(pipeline_files["out"]).with_name("absurd-estimate.json")
    config.write_text(json.dumps(record))
    out = Path(pipeline_files["out"]).with_name("absurd.validation.json")
    assert main(["validate", "--app", pipeline_files["app"], "--config", str(config),
                 "--slo", "4", "--out", str(out)]) == 0
    assert "accuracy" not in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"not standard JSON: {constant}")

    validation = json.loads(out.read_text(), parse_constant=reject)
    assert validation["accuracy_pct"] is None
    assert validation["estimated_time_s"] == 1e200


def test_graph_without_entry_function_still_optimizes_from_graph_file(pipeline_files):
    graph = json.loads(Path(pipeline_files["parallel_app"]).read_text())["graph"]
    graph_file = Path(pipeline_files["out"]).with_name("parallel-root.graph.json")
    graph_file.write_text(json.dumps(graph))
    assert main(["optimize", "--graph", str(graph_file), "--profiles", pipeline_files["profiles"],
                 "--slo", "4", "--out", pipeline_files["out"]]) == 0


def test_mismatched_config_and_app_exit_2(workdir):
    app2 = workdir / "other.json"
    _, _, result, _, code = _pipeline(workdir, slo="5.0")
    assert code == 0
    assert main(["generate-app", "--shape", "demo6", "--out", str(app2)]) == 0
    assert main(["validate", "--app", str(app2), "--config", str(result),
                 "--slo", "5.0", "--out", str(workdir / "v.json")]) == 2


def test_space_guard_exits_5(workdir):
    big = workdir / "big.json"
    assert main(["generate-app", "--shape", "chain", "--functions", "10",
                 "--seed", "1", "--out", str(big)]) == 0
    big_profiles = workdir / "big_profiles.csv"
    assert main(["profile", "--app", str(big), "--requests", "4", "--seed", "1",
                 "--ladder", "128,256,512,1024,2048,4096,8192,10240",
                 "--out", str(big_profiles)]) == 0
    code = main(["optimize", "--app", str(big), "--profiles", str(big_profiles),
                 "--slo", "0.5", "--algorithm", "brute",
                 "--out", str(workdir / "never.json")])
    assert code == 5  # 8^10 combinations exceed the guard


def _chain_files(workdir, rows):
    """A sequence f1 then f2, and a profile table of ``(function, memory_mb,
    representative_s)`` rows."""
    graph = workdir / "chain.graph.json"
    graph.write_text(json.dumps({"kind": "sequence", "children": [
        {"kind": "function", "name": "f1"}, {"kind": "function", "name": "f2"}]}))
    profiles = workdir / "chain.csv"
    profiles.write_text("function,memory_mb,alpha,representative_s,sample_count\n" + "".join(
        f"{name},{memory_mb},50.0,{seconds},3\n" for name, memory_mb, seconds in rows))
    return ["optimize", "--graph", str(graph), "--profiles", str(profiles),
            "--out", str(workdir / "run.result.json")]


@pytest.mark.parametrize("algorithm", ["greedy", "brute"])
def test_a_duration_too_long_to_bill_exits_2(workdir, algorithm, capsys):
    """1e306 s bills an infinite number of milliseconds: one error line, not
    a traceback."""
    argv = _chain_files(workdir, [(name, memory_mb, 1e306) for name in ("f1", "f2")
                                  for memory_mb in (128, 256)])
    assert main(argv + ["--slo", "1e307", "--algorithm", algorithm]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite number of ticks" in err


def test_a_billing_granularity_beyond_the_float_range_exits_2(workdir, capsys):
    """10**400 ms is an integer argparse takes, but no float: one error
    line, not a traceback."""
    argv = _chain_files(workdir, [(name, memory_mb, 1.0) for name in ("f1", "f2")
                                  for memory_mb in (128, 256)])
    assert main(argv + ["--slo", "4", "--billing-granularity-ms", "1" + "0" * 400]) == 2
    assert capsys.readouterr().err == (
        "error: billing_granularity_ms must be a positive integer within the float range\n")


def test_tables_sharing_no_memory_size_exit_2(workdir, capsys):
    argv = _chain_files(workdir, [("f1", 128, 1.0), ("f2", 256, 1.0)])
    assert main(argv + ["--slo", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: profiles share no common memory sizes; pass --ladder\n")


@pytest.mark.parametrize("config", [None, [128], "f1"], ids=["null", "list", "text"])
def test_validate_a_record_without_a_configuration_object_exits_2(
        pipeline_files, workdir, config, capsys):
    record = json.loads(Path(pipeline_files["result"]).read_text())
    record["config"] = config
    path = workdir / "run.result.json"
    path.write_text(json.dumps(record))
    assert main(["validate", "--app", pipeline_files["app"], "--config", str(path),
                 "--slo", "4", "--out", str(workdir / "v.json")]) == 2
    err = capsys.readouterr().err
    expected = "empty (infeasible) configuration" if config is None else "expected an object"
    assert err.startswith("error: ") and expected in err


def test_ladder_that_is_not_integers_exits_2_with_usage(pipeline_files, capsys):
    assert main(["profile", "--app", pipeline_files["app"], "--ladder", "128,abc",
                 "--out", pipeline_files["out"]]) == 2
    err = capsys.readouterr().err
    assert "usage: faastune" in err and "invalid ladder '128,abc'" in err


@pytest.mark.parametrize("argv", [
    ["profile", "--app", "{app}"],
    ["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "4"],
], ids=["profile", "optimize"])
def test_ladder_that_is_not_increasing_exits_2_with_usage(pipeline_files, argv, capsys):
    argv = [arg.format(**pipeline_files) for arg in argv]
    assert main(argv + ["--ladder", "256,128", "--out", pipeline_files["out"]]) == 2
    err = capsys.readouterr().err
    assert "usage: faastune" in err and "memory ladder must be strictly increasing: (256, 128)" in err


def test_profile_with_a_fixed_alpha(pipeline_files, workdir):
    """``--alpha`` skips the selection: every row is fitted at that
    percentile, then repaired."""
    out = workdir / "profiles.csv"
    assert main(["profile", "--app", pipeline_files["app"], "--requests", "20",
                 "--seed", "3", "--alpha", "95", "--out", str(out)]) == 0
    app, ladder = load_app(pipeline_files["app"]), MemoryLadder()
    samples = profile_samples(app, ladder, k_per_level=20, rng=random.Random(3))
    expected = {name: monotone_repair(p)
                for name, p in build_profiles(samples, ladder, 95).items()}
    loaded = load_profiles(out)
    assert {p.alpha for p in loaded.values()} == {95.0}
    assert {name: dict(p.representatives) for name, p in loaded.items()} == {
        name: dict(p.representatives) for name, p in expected.items()}


def test_optimize_on_manual_graph(workdir):
    app, profiles, _, _, code = _pipeline(workdir, slo="4.0")
    assert code == 0
    graph_file = workdir / "graph.json"
    graph = generate_app(shape="demo3", seed=3).graph
    graph_file.write_text(json.dumps(graph_to_dict(graph.root)))
    out = workdir / "manual.result.json"
    assert main(["optimize", "--graph", str(graph_file), "--profiles", str(profiles),
                 "--slo", "4.0", "--out", str(out)]) == 0


def test_artifacts_are_deterministic(workdir):
    app, profiles, result, _, code = _pipeline(workdir, slo="4.0")
    assert code == 0
    first = result.read_text()

    result2 = workdir / "again.result.json"
    assert main(["optimize", "--app", str(app), "--profiles", str(profiles),
                 "--slo", "4.0", "--out", str(result2)]) == 0
    assert result2.read_text() == first

    profiles2 = workdir / "profiles2.csv"
    assert main(["profile", "--app", str(app), "--requests", "20", "--seed", "3",
                 "--out", str(profiles2)]) == 0
    assert profiles2.read_text() == profiles.read_text()


@pytest.mark.parametrize("shape,seed,slo", RESULT_CASES)
def test_result_artifacts_match_golden_records(workdir, shape, seed, slo):
    golden = json.loads((Path(__file__).parent / "golden_results.json").read_text())
    for key, result in optimize_results(workdir, shape, seed, slo).items():
        expected = json.dumps(golden[key], indent=2, sort_keys=True) + "\n"
        assert result.read_text() == expected, key


def test_petstore_validation_and_traces_are_pinned(workdir):
    """sha256 of petstore's three `validate` reports (one per objective, 200
    requests) and of a 20-request `run_load` trace file, the outputs that
    depend on how backend calls are laid out."""
    golden = json.loads((Path(__file__).parent / "golden_digests.json").read_text(encoding="utf-8"))
    results = optimize_results(workdir, "petstore", "13", "1.5")
    assert validate_reports_digest(workdir, results, "1.5") == golden[REPORTS_KEY]
    petstore = load_app(workdir / "app.json")
    config = dict.fromkeys(petstore.graph.functions(), 512)
    trace = io.StringIO()
    write_trace_file(run_load(petstore, config, 20, random.Random(13)), trace)
    digest = hashlib.sha256(trace.getvalue().encode()).hexdigest()
    assert digest == golden["petstore/run-load-trace"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_generated_apps_are_pinned(workdir, shape, seed):
    """sha256 of the `generate-app` spec file of every shape at two seeds
    (``tests/profile_digests.py`` checks the same under any interpreter)."""
    golden = json.loads((Path(__file__).parent / "golden_digests.json").read_text(encoding="utf-8"))
    assert app_digest(workdir, shape, seed) == golden[app_key(shape, seed)]


@pytest.mark.parametrize("noisy", [False, True], ids=["default", "noisy"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_profile_tables_are_pinned(workdir, shape, seed, noisy):
    """sha256 of the `profile` table of every shape at two seeds, at the
    simulator's default noise and at jitter cv 0.05 with 2 % cold starts
    (``tests/profile_digests.py`` checks the same under any interpreter)."""
    golden = json.loads((Path(__file__).parent / "golden_digests.json").read_text(encoding="utf-8"))
    assert profile_digest(workdir, shape, seed, noisy) == golden[profile_key(shape, seed, noisy)]


def test_timing_sidecar_keeps_wall_time_out_of_artifacts(workdir):
    _, _, result, _, code = _pipeline(workdir, slo="4.0")
    assert code == 0
    assert "elapsed" not in result.read_text()
    sidecar = Path(str(result) + ".timing")
    assert sidecar.exists()
    assert sidecar.read_text().startswith("elapsed_s=")


def test_report_on_empty_directory_exits_2(workdir):
    empty = workdir / "empty"
    empty.mkdir()
    assert main(["report", "--results", str(empty), "--out", str(workdir / "t.md")]) == 2


def test_report_csv_and_wall_ratio(workdir, capsys):
    app, profiles, _, _, code = _pipeline(workdir, slo="4.0", name="greedy")
    assert code == 0
    assert main(["optimize", "--app", str(app), "--profiles", str(profiles),
                 "--slo", "4.0", "--algorithm", "brute",
                 "--out", str(workdir / "bf.result.json")]) == 0
    capsys.readouterr()
    table = workdir / "cmp.csv"
    assert main(["report", "--results", str(workdir), "--out", str(table)]) == 0
    out = capsys.readouterr().out
    assert "wall-time ratio brute-force/greedy" in out
    lines = table.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 result rows


@pytest.mark.parametrize("text", [
    b"elapsed_s=nan\n", b"elapsed_s=inf\n", b"elapsed_s=-0.5\n", b"elapsed_s=\n",
    b"elapsed_s=fast\n", b"wall_s=0.5\n", b"0.5\n", b"", b"\xff\xfe\x00",
], ids=["nan", "inf", "negative", "empty-value", "word", "other-key", "no-key", "empty",
        "binary"])
def test_report_on_a_malformed_timing_sidecar_exits_2_naming_it(workdir, capsys, text):
    """A sidecar that exists must hold elapsed_s=<finite, non-negative
    number>; anything else used to become a blank cell, and nan, inf or a
    negative value reached the table and the brute-force/greedy ratio."""
    _, _, result, _, code = _pipeline(workdir, slo="4.0")
    assert code == 0
    sidecar = Path(str(result) + ".timing")
    sidecar.write_bytes(text)
    capsys.readouterr()
    table = workdir / "t.csv"
    assert main(["report", "--results", str(workdir), "--out", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar}: expected elapsed_s=") and err.count("\n") == 1
    assert not table.exists()


def test_report_leaves_wall_time_blank_without_a_timing_sidecar(workdir):
    _, _, result, _, code = _pipeline(workdir, slo="4.0")
    assert code == 0
    Path(str(result) + ".timing").unlink()
    table = workdir / "t.csv"
    assert main(["report", "--results", str(workdir), "--out", str(table)]) == 0
    (row,) = csv.DictReader(table.open())
    assert row["name"] == "run" and row["wall_s"] == ""


def test_help_lists_exit_codes(capsys):
    code = main(["--help"])
    assert code == 0
    assert "exit codes" in capsys.readouterr().out


# --- every file argument swapped for input that cannot be used -----------------

#: Each command's arguments, the file arguments the property swaps and the
#: exit codes it may fail with: 3 from a simulation, 4 from a search that
#: finds no configuration.
_FUZZ_COMMANDS = {
    "profile": (["profile", "--app", "{app}", "--requests", "4"], ("app",), {2, 3}),
    "optimize": (["optimize", "--app", "{app}", "--profiles", "{profiles}", "--slo", "30"],
                 ("app", "profiles"), {2, 4}),
    "optimize-graph": (["optimize", "--graph", "{graph}", "--profiles", "{profiles}",
                        "--slo", "30"], ("graph",), {2, 4}),
    "validate": (["validate", "--app", "{app}", "--config", "{config}", "--slo", "30",
                  "--requests", "4"], ("app", "config"), {2, 3}),
    "report": (["report", "--results", "{results}"], ("results",), {2}),
}

_SWAPS = ("random bytes", "truncated", "not an object", "directory", "missing")

#: Every file format here is a JSON object or a CSV table, never another JSON value.
_NOT_AN_OBJECT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
).filter(lambda value: not isinstance(value, dict))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    app, profiles = workdir / "app.json", workdir / "profiles.csv"
    config = workdir / "run.result.json"
    assert main(["generate-app", "--shape", "demo3", "--seed", "3", "--out", str(app)]) == 0
    assert main(["profile", "--app", str(app), "--requests", "4", "--seed", "3",
                 "--out", str(profiles)]) == 0
    assert main(["optimize", "--app", str(app), "--profiles", str(profiles), "--slo", "30",
                 "--out", str(config)]) == 0
    graph = workdir / "app.graph.json"
    graph.write_text(json.dumps(json.loads(app.read_text())["graph"]))
    return workdir, {"app": app, "profiles": profiles, "config": config, "graph": graph,
                     "results": config}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_unusable_input_files_exit_with_one_error_line(fuzz_inputs, data):
    workdir, valid = fuzz_inputs
    command = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)), label="command")
    argv, targets, failure_codes = _FUZZ_COMMANDS[command]
    target = data.draw(st.sampled_from(targets), label="argument")
    swap = data.draw(st.sampled_from(_SWAPS), label="swap")

    where = Path(tempfile.mkdtemp(dir=workdir))
    path = where / valid[target].name
    if swap == "random bytes":
        path.write_bytes(data.draw(st.binary(max_size=64)))
    elif swap == "truncated":
        text = valid[target].read_bytes().rstrip()
        path.write_bytes(text[: data.draw(st.integers(0, len(text) - 1))])
    elif swap == "not an object":
        path.write_text(json.dumps(data.draw(_NOT_AN_OBJECT)))
    elif swap == "directory":
        path.mkdir()
    # "report --results" names a directory: swap the result record inside it,
    # or, for a missing path, the directory itself.
    swapped = where if target == "results" and swap != "missing" else path
    files = {name: str(file) for name, file in valid.items()}
    files[target] = str(swapped)
    argv = [arg.format(**files) for arg in argv] + ["--out", str(where / "out")]

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    allowed = set(failure_codes)
    # A profile table cut at a row boundary is still a table, and a few
    # random bytes can spell a JSON object, which is a result record.
    if (target, swap) in {("profiles", "truncated"), ("results", "random bytes")}:
        allowed.add(0)
    assert code in allowed, (argv, code, err.getvalue())
    if code not in (0, 4):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
