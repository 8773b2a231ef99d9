"""Smoke test of the benchmark at tiny sizes: one seed gives one digest.

    python3 -m pytest -q perfbench/test_determinism.py
"""

import json
import shutil

import pytest

import run


def tiny_mix() -> dict:
    mix = json.loads((run.HERE / "workloads.json").read_text())
    w = mix["workloads"]
    w["cli-pipeline"].update(apps=[{"shape": "demo3"}], requests_per_rung=8, validate_requests=20,
                             slo_multipliers=[1.5])
    w["search-scale"].update(functions=[12], oracle_functions=[3])
    w["trace-ingest"].update(apps=[{"shape": "demo3", "requests_per_rung": 8}], validate_requests=20,
                             slo_multipliers=[1.5])
    return mix


@pytest.fixture(scope="module")
def mix():
    run.import_program()
    return tiny_mix()


@pytest.fixture
def workdir(tmp_path):
    yield tmp_path / "work"
    shutil.rmtree(tmp_path, ignore_errors=True)


@pytest.mark.parametrize("workload", ["cli-pipeline", "search-scale", "trace-ingest"])
def test_same_seed_same_digest_and_metrics(mix, workdir, workload):
    first = run.run(workload, 7, 0.0, False, mix, workdir / "a", 0.0)
    second = run.run(workload, 7, 0.0, True, mix, workdir / "b", 0.0)
    other = run.run(workload, 8, 0.0, False, mix, workdir / "c", 0.0)
    assert first["correct"] and second["correct"] and other["correct"], first["failures"] + second["failures"]
    assert first["failed"] == 0
    assert first["digest"] == second["digest"]
    assert first["digest"] != other["digest"]
    assert first["quality"] == second["quality"]
    for name in ("min_cost_ratio", "min_time_ratio", "jobs_ok_pct"):
        assert first["end_to_end"][name] == second["end_to_end"][name]
    line = run.result_line(second)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.PER_LAYER_UNITS)
    assert line["metrics"]["search.greedy_slo.evaluations"]["value"] > 0


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    mix = json.loads((run.HERE / "workloads.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(mix["workloads"])
