"""The golden artifacts, recomputed through the CLI and through trace ingestion.

``test_cli.test_profile_tables_are_pinned`` checks each ``profile/*`` table
with :func:`profile_digest`, ``test_cli.test_generated_apps_are_pinned``
each ``app/*`` spec file with :func:`app_digest`,
``test_traces.test_trace_files_are_pinned`` each ``trace/*`` profiling log
file with :func:`trace_digest`, and
``test_traces.test_trace_ingestion_is_pinned`` each ``ingest/*`` record of
what trace ingestion learns with :func:`ingest_digest`. Run as a script,
this module recomputes all 24 tables, 12 spec files, 24 trace files and 24
ingestion records and compares them with ``golden_digests.json``; it also recomputes
the nine ``optimize`` records of ``golden_results.json`` and the
``petstore/validate-reports`` digest, which ``test_cli`` checks too, and
the search records ``test_search.test_search_records_are_pinned`` checks
against ``helpers.PINNED_RECORDS_SHA256``. It needs nothing but the
standard library and faastune, so it also runs under interpreters that
have no pytest:

    PYTHONPATH=src python3 -B tests/profile_digests.py

The simulator draws its jitter with the operations of CPython's
``random.Random.normalvariate``, so a change to that method in some CPython
release shows up here as a mismatch. The latency estimate composes exact
integers and rounds once, so it does not depend on how an interpreter adds
floats (CPython 3.12 made the builtin ``sum`` compensated), and every
CPython from 3.10 on gives the pinned records;
``test_interpreters.py`` runs this script under each one pyenv lists.
Exits 1 if anything differs.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from faastune import cli, sim
from faastune.model import MemoryLadder
from faastune.profiles import build_profiles, monotone_repair, select_alpha
from faastune.sim import SHAPES
from faastune.traces import (
    build_call_graph,
    extract_samples,
    graph_to_dict,
    parse_trace_file,
    write_trace_file,
)
from helpers import PINNED_RECORDS_SHA256, pinned_records_digest

GOLDEN = Path(__file__).with_name("golden_digests.json")
GOLDEN_RESULTS = Path(__file__).with_name("golden_results.json")
SEEDS = ("5", "8")
#: The (shape, seed, SLO) of each app whose ``optimize`` records are pinned.
RESULT_CASES = (("demo3", "11", "2.0"), ("demo6", "12", "2.5"), ("petstore", "13", "1.5"))
OBJECTIVES = ("feasible", "min-cost", "min-time")
#: The ``golden_digests.json`` key of petstore's three `validate` reports.
REPORTS_KEY = "petstore/validate-reports"


def profile_key(shape: str, seed: str, noisy: bool) -> str:
    return f"profile/{shape}-{seed}" + ("-noisy" if noisy else "")


def app_key(shape: str, seed: str) -> str:
    return f"app/{shape}-{seed}"


def trace_key(shape: str, seed: str, noisy: bool) -> str:
    return f"trace/{shape}-{seed}" + ("-noisy" if noisy else "")


def ingest_key(shape: str, seed: str, noisy: bool) -> str:
    return f"ingest/{shape}-{seed}" + ("-noisy" if noisy else "")


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"faastune {' '.join(argv)} exited {code}")


def app_digest(workdir: Path, shape: str, seed: str) -> str:
    """sha256 of the `generate-app` spec file of a 6-function app of
    ``shape`` at ``seed``, written to ``workdir / "app.json"``."""
    app = workdir / "app.json"
    _run(["generate-app", "--shape", shape, "--functions", "6", "--seed", seed,
          "--out", str(app)])
    return hashlib.sha256(app.read_bytes()).hexdigest()


def _write_app(workdir: Path, shape: str, seed: str, noisy: bool) -> Path:
    """The spec file :func:`app_digest` writes, at the simulator's default
    noise or, if ``noisy``, at jitter cv 0.05 with 2 % cold starts."""
    app = workdir / "app.json"
    app_digest(workdir, shape, seed)
    if noisy:
        spec = json.loads(app.read_text(encoding="utf-8"))
        for fields in spec["functions"].values():
            fields.update(jitter_cv=0.05, cold_start_prob=0.02)
        app.write_text(json.dumps(spec), encoding="utf-8")
    return app


def profile_digest(workdir: Path, shape: str, seed: str, noisy: bool) -> str:
    """sha256 of the `profile` table of the app :func:`_write_app` writes,
    profiled at ``seed``."""
    app = _write_app(workdir, shape, seed, noisy)
    profiles = workdir / "profiles.csv"
    _run(["profile", "--app", str(app), "--seed", seed, "--out", str(profiles)])
    return hashlib.sha256(profiles.read_bytes()).hexdigest()


def _write_profiling_trace(workdir: Path, shape: str, seed: str, noisy: bool) -> Path:
    """``workdir / "trace.ndjson"``, holding the `profile_application` log
    (default ladder, 50 requests per rung, drawn at ``seed``) of the app
    :func:`_write_app` writes, as :func:`write_trace_file` writes it."""
    app = sim.load_app(_write_app(workdir, shape, seed, noisy))
    trace = workdir / "trace.ndjson"
    write_trace_file(sim.profile_application(app, MemoryLadder(), 50, random.Random(int(seed))), trace)
    return trace


def trace_digest(workdir: Path, shape: str, seed: str, noisy: bool) -> str:
    """sha256 of the trace file :func:`_write_profiling_trace` writes."""
    return hashlib.sha256(_write_profiling_trace(workdir, shape, seed, noisy).read_bytes()).hexdigest()


def ingest_digest(workdir: Path, shape: str, seed: str, noisy: bool) -> str:
    """sha256 of what trace ingestion learns from the trace file
    :func:`_write_profiling_trace` writes: it is parsed back, and the digest
    covers the rebuilt graph (as :func:`graph_to_dict` writes it), every
    extracted sample, the alpha :func:`select_alpha` picks at ``seed`` and
    the monotone-repaired profiles :func:`build_profiles` fits with it.

    The samples enter as ``[function, memory_mb, duration_s, cold_start]``
    rows: the sample table flattened rung by rung, then request by request,
    then column by column. In a profiling log that is trace order, in which
    the pinned digests were first taken from a flat list of samples, so each
    row's ``cold_start`` is that of the log's function segment in the same
    place in trace order: the table holds durations only."""
    ladder = MemoryLadder()
    log = parse_trace_file(_write_profiling_trace(workdir, shape, seed, noisy))
    graph = build_call_graph(log)
    samples = extract_samples(log)
    alpha = select_alpha(samples, ladder, graph, seed=int(seed))
    profiles = {name: monotone_repair(p) for name, p in build_profiles(samples, ladder, alpha).items()}
    rows = [[function, memory_mb, duration_s]
            for memory_mb, by_function in samples.items()
            for request in zip(*by_function.values())
            for function, duration_s in zip(by_function, request)]
    segments = [s for trace in log.traces.values() for s in trace if s.kind == "function"]
    learned = {
        "graph": graph_to_dict(graph.root),
        "samples": [[*row, s.cold_start] for row, s in zip(rows, segments, strict=True)],
        "alpha": alpha,
        "profiles": {name: [[m, p.representatives[m], p.sample_counts[m]] for m in p.memories()]
                     for name, p in profiles.items()},
    }
    return hashlib.sha256(json.dumps(learned, sort_keys=True).encode()).hexdigest()


def optimize_results(workdir: Path, shape: str, seed: str, slo: str) -> dict[str, Path]:
    """The `optimize` record of each objective, keyed ``{shape}/{objective}``,
    for an app of ``shape`` generated at ``seed`` and profiled there with 20
    requests per memory size."""
    app = workdir / "app.json"
    profiles = workdir / "profiles.csv"
    _run(["generate-app", "--shape", shape, "--seed", seed, "--out", str(app)])
    _run(["profile", "--app", str(app), "--requests", "20", "--seed", seed,
          "--out", str(profiles)])
    results = {}
    for objective in OBJECTIVES:
        results[f"{shape}/{objective}"] = out = workdir / f"{objective}.result.json"
        _run(["optimize", "--app", str(app), "--profiles", str(profiles), "--slo", slo,
              "--objective", objective, "--out", str(out)])
    return results


def validate_reports_digest(workdir: Path, results: dict[str, Path], slo: str) -> str:
    """sha256 of the `validate` reports (200 requests, seed 99) of
    ``results``, in order, against the app :func:`optimize_results` wrote."""
    reports = hashlib.sha256()
    for result in results.values():
        report = result.with_name(result.name.replace(".result.", ".validation."))
        _run(["validate", "--app", str(workdir / "app.json"), "--config", str(result),
              "--slo", slo, "--requests", "200", "--seed", "99", "--out", str(report)])
        reports.update(report.read_bytes())
    return reports.hexdigest()


def check() -> int:
    """Print one line per mismatch and a summary; 1 if anything differs."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    golden_results = json.loads(GOLDEN_RESULTS.read_text(encoding="utf-8"))
    apps = [(shape, seed) for shape in SHAPES for seed in SEEDS]
    keys = [(shape, seed, noisy) for shape, seed in apps for noisy in (False, True)]
    app_mismatches, profile_mismatches, trace_mismatches, ingest_mismatches = [], [], [], []
    result_mismatches = []
    with tempfile.TemporaryDirectory() as workdir, redirect_stdout(io.StringIO()):
        for shape, seed in apps:
            if app_digest(Path(workdir), shape, seed) != golden[app_key(shape, seed)]:
                app_mismatches.append(app_key(shape, seed))
        for shape, seed, noisy in keys:
            key = profile_key(shape, seed, noisy)
            if profile_digest(Path(workdir), shape, seed, noisy) != golden[key]:
                profile_mismatches.append(key)
            key = trace_key(shape, seed, noisy)
            if trace_digest(Path(workdir), shape, seed, noisy) != golden[key]:
                trace_mismatches.append(key)
            key = ingest_key(shape, seed, noisy)
            if ingest_digest(Path(workdir), shape, seed, noisy) != golden[key]:
                ingest_mismatches.append(key)
        for shape, seed, slo in RESULT_CASES:
            results = optimize_results(Path(workdir), shape, seed, slo)
            for key, result in results.items():
                expected = json.dumps(golden_results[key], indent=2, sort_keys=True) + "\n"
                if result.read_text(encoding="utf-8") != expected:
                    result_mismatches.append(key)
            if shape == "petstore":
                if validate_reports_digest(Path(workdir), results, slo) != golden[REPORTS_KEY]:
                    result_mismatches.append(REPORTS_KEY)
    search_digest = pinned_records_digest()
    search_mismatches = [] if search_digest == PINNED_RECORDS_SHA256 else [
        f"search records (sha256 {search_digest})"
    ]
    mismatches = (app_mismatches + profile_mismatches + trace_mismatches + ingest_mismatches
                  + result_mismatches + search_mismatches)
    for key in mismatches:
        print(f"mismatch: {key}")
    checked = len(RESULT_CASES) * len(OBJECTIVES) + 1
    print(f"{platform.python_implementation()} {platform.python_version()}: "
          f"{len(apps) - len(app_mismatches)} of {len(apps)} app, "
          f"{len(keys) - len(profile_mismatches)} of {len(keys)} profile, "
          f"{len(keys) - len(trace_mismatches)} of {len(keys)} trace and "
          f"{len(keys) - len(ingest_mismatches)} of {len(keys)} ingest digests match "
          f"{GOLDEN.name}; {checked - len(result_mismatches)} of {checked} results and "
          f"reports match {GOLDEN_RESULTS.name} and {GOLDEN.name}; the search records "
          f"{'differ from' if search_mismatches else 'match'} PINNED_RECORDS_SHA256")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(check())
