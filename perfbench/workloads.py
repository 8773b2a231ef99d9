"""The benchmark's three workloads: set-up, tuning jobs and output checks.

Each ``build_<workload>`` function generates the workload's inputs from the
seed and returns its pool of jobs. A job's ``run`` is the timed part: only
faastune calls (library functions, or the CLI invoked in-process). Its
``check`` runs afterwards, outside the timed interval, and verifies the
outputs with code independent of faastune: a schedule-propagation latency
oracle, its own reading of the CLI's files and the generating app's graph.
``check`` returns the job's canonical outputs (for the determinism digest)
and its quality records; it raises :class:`CheckFailed` on a wrong output.

faastune is reached through module attributes (``sim.validate_config``), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from faastune import cli, estimate, profiles, search, sim, traces
from faastune.model import (
    FunctionNode,
    FunctionProfile,
    MemoryLadder,
    Objective,
    Sequence,
    SloSpec,
)

#: Relative tolerance between faastune's composed estimate and the
#: schedule-propagation oracle, which adds in a different order.
REL_TOL = 1e-9


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    id: str
    run: Callable[[object], object]
    check: Callable[[object], tuple[str, dict]]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- independent oracles ---------------------------------------------------------


def schedule_latency(node, times: dict[str, float], start: float = 0.0) -> float:
    """Finish instant of ``node`` started at ``start``: propagates start and
    finish instants through the schedule instead of composing durations."""
    if isinstance(node, FunctionNode):
        return start + times[node.name]
    if isinstance(node, Sequence):
        for child in node.children:
            start = schedule_latency(child, times, start)
        return start
    return max(schedule_latency(child, times, start) for child in node.children)


def check_config(config, functions: tuple[str, ...], rungs: tuple[int, ...]) -> dict[str, int]:
    require(bool(config), "empty configuration")
    require(set(config) == set(functions), "configuration does not cover exactly the app's functions")
    require(all(config[f] in rungs for f in functions), "configuration leaves the memory ladder")
    return {f: int(config[f]) for f in functions}


def check_estimate(record: dict, graph, reps: dict[str, dict[int, float]],
                   rungs: tuple[int, ...], slo_s: float) -> dict[str, int]:
    """Config on the ladder, estimate equal to the oracle and within the SLO."""
    config = check_config(record["config"], graph.functions(), rungs)
    oracle = schedule_latency(graph.root, {f: reps[f][m] for f, m in config.items()})
    estimated = record["estimated_time_s"]
    require(abs(estimated - oracle) <= REL_TOL * oracle,
            f"estimate {estimated!r} differs from the schedule oracle {oracle!r}")
    require(estimated <= slo_s, f"estimate {estimated!r} exceeds the SLO {slo_s!r}")
    return config


def check_search_family(records: dict[str, dict], graph, reps, rungs, slo_s: float) -> dict:
    """Checks shared by every workload that runs the three greedy variants.

    ``records`` maps feasible/min-cost/min-time (and optionally brute-min-cost,
    brute-min-time) to ``SearchResult.to_record()`` dicts. Returns the
    instance's quality record.
    """
    for record in records.values():
        check_estimate(record, graph, reps, rungs, slo_s)
    greedy, min_cost, min_time = records["feasible"], records["min-cost"], records["min-time"]
    bound = len(graph.functions()) * (len(rungs) - 1) + 1
    require(greedy["evaluations"] <= bound,
            f"greedy_slo used {greedy['evaluations']} evaluations, bound {bound}")
    require(min_cost["estimated_cost_usd"] <= greedy["estimated_cost_usd"],
            "min-cost result costs more than the greedy result")
    require(min_time["estimated_time_s"] <= greedy["estimated_time_s"],
            "min-time result is slower than the greedy result")
    instance = {
        "greedy_cost": greedy["estimated_cost_usd"],
        "greedy_time": greedy["estimated_time_s"],
        "min_cost": min_cost["estimated_cost_usd"],
        "min_time": min_time["estimated_time_s"],
    }
    if "brute-min-cost" in records:
        brute_cost = records["brute-min-cost"]["estimated_cost_usd"]
        brute_time = records["brute-min-time"]["estimated_time_s"]
        require(brute_cost <= min_cost["estimated_cost_usd"] * (1 + REL_TOL),
                "brute-force min-cost is dearer than greedy_min_cost")
        require(brute_time <= min_time["estimated_time_s"] * (1 + REL_TOL),
                "brute-force min-time is slower than greedy_min_time")
        instance.update(brute_cost=brute_cost, brute_time=brute_time)
    return instance


def validation_record(conformance: float, estimated: float, observed: float) -> dict:
    require(0.0 <= conformance <= 1.0, f"conformance {conformance!r} out of range")
    require(observed > 0, "observed latency must be positive")
    return {"conformance": conformance, "estimated": estimated, "observed": observed}


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# --- shared set-up helpers -------------------------------------------------------


def ladder_of(mix: dict) -> MemoryLadder:
    return MemoryLadder(values=tuple(mix["ladder_mb"]), cap_mb=None)


def with_noise(app: sim.SimApp, noise: dict) -> sim.SimApp:
    specs = {
        name: dataclasses.replace(spec, jitter_cv=noise["jitter_cv"], cold_start_prob=noise["cold_start_prob"])
        for name, spec in app.specs.items()
    }
    return dataclasses.replace(app, specs=specs)


def run_cli(tracer, argv: list[str]) -> None:
    """Run one CLI command in-process; its console output is discarded."""
    err = io.StringIO()
    with tracer.span(f"cli.{argv[0]}"), redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"faastune {argv[0]} exited {code}: {err.getvalue().strip()}")


# --- cli-pipeline ----------------------------------------------------------------


def _read_profiles_csv(path: Path) -> dict[str, dict[int, float]]:
    reps: dict[str, dict[int, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            reps.setdefault(row["function"], {})[int(row["memory_mb"])] = float(row["representative_s"])
    return reps


def _report_without_wall_time(text: str) -> str:
    rows = [line.split(" | ") for line in text.splitlines()]
    column = rows[0].index("wall_s")
    return "\n".join(" | ".join(r[:column] + r[column + 1:]) for r in rows)


def build_cli_pipeline(mix: dict, seed: int, workdir: Path, tracer) -> list[Job]:
    spec = mix["workloads"]["cli-pipeline"]
    ladder = ladder_of(mix)
    rungs = ladder.effective()
    percentile = mix["slo_percentile"]
    ladder_arg = ",".join(str(m) for m in rungs)
    rng = random.Random(seed)
    jobs = []
    for noise_name in spec["noise"]:
        noise = mix["noise"][noise_name]
        for entry in spec["apps"]:
            app_seed, profile_seed, validate_seed = (rng.randrange(2**31) for _ in range(3))
            job_id = f"{entry['shape']}{entry.get('functions', '')}-{noise_name}"
            job_dir = workdir / job_id
            (job_dir / "results").mkdir(parents=True)
            app_path = job_dir / "app.json"
            functions = str(entry.get("functions", 3))
            if noise_name == "default":
                run_cli(tracer, ["generate-app", "--shape", entry["shape"], "--functions", functions,
                                 "--seed", str(app_seed), "--out", str(app_path)])
                app = sim.load_app(app_path)
            else:
                app = with_noise(sim.generate_app(int(functions), entry["shape"], app_seed), noise)
                sim.save_app(app, app_path)
            jobs.append(_cli_job(job_id, job_dir, app, spec, rungs, ladder_arg, percentile,
                                 profile_seed, validate_seed))
    return jobs


def _cli_job(job_id, job_dir, app, spec, rungs, ladder_arg, percentile, profile_seed, validate_seed) -> Job:
    app_path, profile_path, results = job_dir / "app.json", job_dir / "profiles.csv", job_dir / "results"
    report_path = job_dir / "report.md"
    graph = app.graph
    stems = [(m, o, f"{o}-x{m}") for m in spec["slo_multipliers"] for o in spec["objectives"]]

    def run(tracer):
        run_cli(tracer, ["profile", "--app", str(app_path), "--ladder", ladder_arg,
                         "--requests", str(spec["requests_per_rung"]), "--seed", str(profile_seed),
                         "--out", str(profile_path)])
        profs = profiles.load_profiles(profile_path)
        all_max = estimate.estimate_time(graph, {f: rungs[-1] for f in graph.functions()}, profs)
        slos = {m: all_max * m for m in spec["slo_multipliers"]}
        for m, objective, stem in stems:
            run_cli(tracer, ["optimize", "--app", str(app_path), "--profiles", str(profile_path),
                             "--slo", repr(slos[m]), "--objective", objective,
                             "--out", str(results / f"{stem}.result.json")])
        for m, objective, stem in stems:
            run_cli(tracer, ["validate", "--app", str(app_path),
                             "--config", str(results / f"{stem}.result.json"), "--slo", repr(slos[m]),
                             "--requests", str(spec["validate_requests"]), "--seed", str(validate_seed),
                             "--percentile", repr(percentile),
                             "--out", str(results / f"{stem}.validation.json")])
        run_cli(tracer, ["report", "--results", str(results), "--out", str(report_path)])
        return slos

    def check(slos):
        reps = _read_profiles_csv(profile_path)
        require(set(reps) == set(graph.functions()), "profiles do not cover the app's functions")
        require(all(tuple(sorted(r)) == rungs for r in reps.values()), "profiles do not cover the ladder")
        outputs = {"profiles": profile_path.read_text()}
        instances, validations = [], []
        for m in spec["slo_multipliers"]:
            records = {}
            for objective in spec["objectives"]:
                stem = f"{objective}-x{m}"
                result_text = (results / f"{stem}.result.json").read_text()
                validation_text = (results / f"{stem}.validation.json").read_text()
                outputs[stem] = [result_text, validation_text]
                record = records[objective] = json.loads(result_text)
                require(record["slo_seconds"] == slos[m], "result records another SLO")
                validation = json.loads(validation_text)
                require(validation["config"] == record["config"], "validation ran another config")
                require(validation["n_requests"] == spec["validate_requests"], "validation request count")
                validations.append(validation_record(
                    validation["conformance"], record["estimated_time_s"],
                    validation["observed"]["at_percentile_s"]))
            instances.append(check_search_family(records, graph, reps, rungs, slos[m]))
        report = report_path.read_text()
        require(len(report.splitlines()) == 2 + len(stems), "report does not list every result")
        outputs["report"] = _report_without_wall_time(report)
        return canonical(outputs), {"instances": instances, "validations": validations}

    return Job(job_id, run, check)


# --- search-scale ----------------------------------------------------------------


def monotone_profile(name: str, rungs: tuple[int, ...], rng: random.Random) -> FunctionProfile:
    """Synthetic profile: each rung's representative is the previous one
    times U(0.3, 1.0), starting from U(1, 10) s."""
    value = rng.uniform(1.0, 10.0)
    reps = {}
    for m in rungs:
        reps[m] = value
        value *= rng.uniform(0.3, 1.0)
    return FunctionProfile(function=name, alpha=95.0, representatives=reps)


def build_search_scale(mix: dict, seed: int, workdir: Path, tracer) -> list[Job]:
    spec = mix["workloads"]["search-scale"]
    ladder = ladder_of(mix)
    rng = random.Random(seed)
    sizes = [(shape, n, False) for n in spec["functions"] for shape in spec["shapes"]]
    sizes += [(shape, n, True) for n in spec["oracle_functions"] for shape in spec["shapes"]]
    jobs = []
    for i, (shape, n, oracle) in enumerate(sizes):
        graph = sim.generate_app(n, shape, rng.randrange(2**31)).graph
        profs = {f: monotone_profile(f, ladder.effective(), rng) for f in graph.functions()}
        all_max = estimate.estimate_time(graph, {f: ladder.maximum for f in graph.functions()}, profs)
        multiplier = spec["slo_multipliers"][i % len(spec["slo_multipliers"])]
        slo = SloSpec(all_max * multiplier, mix["slo_percentile"])
        jobs.append(_search_job(f"{shape}{n}", graph, profs, ladder, slo, oracle))
    return jobs


def _search_job(job_id, graph, profs, ladder, slo, oracle) -> Job:
    reps = {f: dict(p.representatives) for f, p in profs.items()}

    def run(tracer):
        results = {
            "feasible": search.greedy_slo(graph, profs, ladder, slo),
            "min-cost": search.greedy_min_cost(graph, profs, ladder, slo),
            "min-time": search.greedy_min_time(graph, profs, ladder, slo),
        }
        if oracle:
            results["brute-min-cost"] = search.brute_force(graph, profs, ladder, slo, Objective.MIN_COST)
            results["brute-min-time"] = search.brute_force(graph, profs, ladder, slo, Objective.MIN_TIME)
        return results

    def check(results):
        records = {name: r.to_record() for name, r in results.items()}
        instance = check_search_family(records, graph, reps, ladder.effective(), slo.slo_seconds)
        return canonical(records), {"instances": [instance], "validations": []}

    return Job(job_id, run, check)


# --- trace-ingest ----------------------------------------------------------------


def build_trace_ingest(mix: dict, seed: int, workdir: Path, tracer) -> list[Job]:
    spec = mix["workloads"]["trace-ingest"]
    ladder = ladder_of(mix)
    rng = random.Random(seed)
    jobs = []
    for noise_name in spec["noise"]:
        for entry in spec["apps"]:
            app_seed, sim_seed, alpha_seed, validate_seed = (rng.randrange(2**31) for _ in range(4))
            app = sim.generate_app(entry.get("functions", 3), entry["shape"], app_seed)
            app = with_noise(app, mix["noise"][noise_name])
            log = sim.profile_application(app, ladder, entry["requests_per_rung"], random.Random(sim_seed))
            job_id = f"{entry['shape']}{entry.get('functions', '')}-{noise_name}"
            path = workdir / f"{job_id}.ndjson"
            traces.write_trace_file(log, path)
            jobs.append(_ingest_job(job_id, path, app, ladder, spec, mix["slo_percentile"],
                                    alpha_seed, validate_seed))
    return jobs


def _ingest_job(job_id, path, app, ladder, spec, percentile, alpha_seed, validate_seed) -> Job:
    rungs = ladder.effective()

    def run(tracer):
        log = traces.parse_trace_file(path)
        graph = traces.build_call_graph(log)
        samples = traces.extract_samples(log)
        alpha = profiles.select_alpha(samples, ladder, graph, seed=alpha_seed)
        profs = {name: profiles.monotone_repair(p)
                 for name, p in profiles.build_profiles(samples, ladder, alpha).items()}
        all_max = estimate.estimate_time(graph, {f: ladder.maximum for f in graph.functions()}, profs)
        cells = []
        for m in spec["slo_multipliers"]:
            slo = SloSpec(all_max * m, percentile)
            results = {
                "feasible": search.greedy_slo(graph, profs, ladder, slo),
                "min-cost": search.greedy_min_cost(graph, profs, ladder, slo),
                "min-time": search.greedy_min_time(graph, profs, ladder, slo),
            }
            report = None
            if results["min-cost"].found:
                report = sim.validate_config(app, results["min-cost"].config, slo,
                                             n_requests=spec["validate_requests"],
                                             rng=random.Random(validate_seed))
            cells.append((slo, results, report))
        return graph, alpha, profs, cells

    def check(state):
        graph, alpha, profs, cells = state
        require(graph == app.graph, "call graph rebuilt from traces differs from the app's graph")
        reps = {f: dict(p.representatives) for f, p in profs.items()}
        require(set(reps) == set(graph.functions()), "profiles do not cover the app's functions")
        outputs = {"alpha": alpha, "profiles": {f: sorted(r.items()) for f, r in sorted(reps.items())},
                   "cells": []}
        instances, validations = [], []
        for slo, results, report in cells:
            records = {name: r.to_record() for name, r in results.items()}
            instances.append(check_search_family(records, graph, reps, rungs, slo.slo_seconds))
            require(report is not None and report.n_requests == spec["validate_requests"],
                    "min-cost result was not validated")
            validations.append(validation_record(
                report.conformance, records["min-cost"]["estimated_time_s"], report.at_percentile_s))
            outputs["cells"].append({"records": records, "validation": report.to_dict()})
        return canonical(outputs), {"instances": instances, "validations": validations}

    return Job(job_id, run, check)


BUILDERS = {
    "cli-pipeline": build_cli_pipeline,
    "search-scale": build_search_scale,
    "trace-ingest": build_trace_ingest,
}
