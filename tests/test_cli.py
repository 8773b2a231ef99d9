import json
from pathlib import Path

import pytest

from faastune.cli import main
from faastune.traces import graph_to_dict
from faastune import generate_app


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


def test_zero_functions_exits_2(workdir):
    assert main(["generate-app", "--shape", "chain", "--functions", "0",
                 "--out", str(workdir / "x.json")]) == 2


def test_missing_app_file_exits_2(workdir):
    assert main(["profile", "--app", str(workdir / "absent.json"),
                 "--out", str(workdir / "p.csv")]) == 2
    assert main(["optimize", "--app", str(workdir / "absent.json"),
                 "--profiles", str(workdir / "p.csv"), "--slo", "1",
                 "--out", str(workdir / "r.json")]) == 2


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
    header, _, *rest = profiles.read_text().splitlines(keepends=True)
    short_profiles = workdir / "short-row.csv"
    short_profiles.write_text(header + "f1,128\n" + "".join(rest))
    nan_profiles = workdir / "nan.csv"
    nan_profiles.write_text(header + "f1,128,50.0,nan,20\n" + "".join(rest))
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
    return {"app": str(app), "profiles": str(profiles), "result": str(result),
            "parallel_app": str(parallel_app), "short_profiles": str(short_profiles),
            "nan_profiles": str(nan_profiles), "list_config": str(list_config),
            "text_memory": str(text_memory), "zero_memory": str(zero_memory),
            "text_estimate": str(text_estimate), "duplicate_profiles": str(duplicate_profiles),
            "malformed_results": str(malformed_results), "int_algorithm": str(int_algorithm),
            "text_conformance": str(text_conformance), "float_memory": str(float_memory),
            "bool_memory": str(bool_memory), "nan_estimate": str(nan_estimate),
            "inf_estimate": str(inf_estimate), "nan_conformance": str(nan_conformance),
            "deep_json": str(deep_json), "nan_work_app": str(nan_work_app),
            "out": str(workdir / "out.json")}


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
        "optimize-graph-deeply-nested", "profile-app-deeply-nested", "profile-app-nan-work"])
def test_out_of_range_input_exits_2_with_error_line(pipeline_files, argv, capsys):
    argv = [arg.format(**pipeline_files) for arg in argv] + ["--out", pipeline_files["out"]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("shape,seed,slo", [("demo3", "11", "2.0"), ("demo6", "12", "2.5"),
                                           ("petstore", "13", "1.5")])
def test_result_artifacts_match_golden_records(workdir, shape, seed, slo):
    golden = json.loads((Path(__file__).parent / "golden_results.json").read_text())
    app, profiles, _, _, code = _pipeline(workdir, shape=shape, seed=seed, slo=slo)
    assert code == 0
    for objective in ("feasible", "min-cost", "min-time"):
        out = workdir / f"{objective}.result.json"
        assert main(["optimize", "--app", str(app), "--profiles", str(profiles),
                     "--slo", slo, "--objective", objective, "--out", str(out)]) == 0
        expected = json.dumps(golden[f"{shape}/{objective}"], indent=2, sort_keys=True) + "\n"
        assert out.read_text() == expected, f"{shape}/{objective}"


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


def test_help_lists_exit_codes(capsys):
    code = main(["--help"])
    assert code == 0
    assert "exit codes" in capsys.readouterr().out
