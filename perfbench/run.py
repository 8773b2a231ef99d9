"""faastune benchmark: closed loop, one client, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
Set-up builds the workload's job pool from the seed (see workloads.json);
the timed phase then runs the pool in passes, one job after another on one
thread, until ``--seconds`` have gone by and at least one pass is complete.
Every job's outputs are checked, and every repeat of a job must reproduce
the first pass's outputs exactly.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics. With ``--trace 1`` half the time runs untraced and half
traced (layer entry points wrapped, see tracing.py), and the JSON carries
the per-layer metrics, quality metrics and the tracing overhead. Lines
before it print every metric by name and unit; a result file and, when
traced, the spans are written under ``perfbench/out/``.

Every time is CPU time of the benchmark's one thread (user + system). The
jobs are single-threaded and do no blocking I/O, so on an idle core this is
their wall time; unlike wall time it leaves out time other tenants of the
machine take from the thread. Tenants sharing the core's caches still slow
it by up to 2x for minutes at a time, so a fixed reference kernel is timed
before every job, and each job time is scaled by REF_S over the median
kernel time of the jobs around it, raised to the workload's
speed_sensitivity (see ``speed_scales`` and workloads.json): times read as
on a machine where the kernel takes REF_S. Raw times are kept in the result
file.

A job's time is its median over the complete passes, so a burst of
interference during one repeat does not move it. job_p50_s and job_tail_s
are percentiles of the job times with each job counted once per complete
pass; jobs_per_s is the pool size over the median pass time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run; setup_s is the median.
SETUP_REPEATS = 3
#: job_tail_s is the slowest job time with at least this many jobs beyond it.
TAIL_JOBS_BEYOND = 10
#: Nominal CPU time of reference_kernel(), the machine speed times are scaled to.
REF_S = 0.0075
#: speed_scales() takes the median kernel time over this many jobs each side.
REF_WINDOW = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_ok_pct": "%",
    "peak_rss_mb": "MB",
    "min_cost_ratio": "x",
    "min_time_ratio": "x",
}

#: Quality metrics that only some workloads can measure; they are printed
#: where they apply and carried in the traced run's JSON, where a workload
#: that does not measure one reports 0 beside a zero count
#: (sim.validations, search.oracle_instances).
QUALITY_UNITS = {
    "sim.validations": "count",
    "sim.slo_met_pct": "%",
    "estimate.error_pct": "%",
    "search.oracle_instances": "count",
    "search.cost_gap_pct": "%",
    "search.time_gap_pct": "%",
}

#: Every metric of a traced run's JSON line.
PER_LAYER_UNITS = {**tracing.PER_LAYER_UNITS, **QUALITY_UNITS}


def import_program() -> float:
    """Import faastune from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "faastune" / "__init__.py").is_file():
        raise SystemExit(f"error: no faastune package under {src}")
    sys.path.insert(0, str(src))
    started = time.thread_time()
    import faastune  # noqa: F401  (imports every layer module)
    elapsed = time.thread_time() - started
    if Path(faastune.__file__).resolve().parent != (src / "faastune").resolve():
        raise SystemExit(f"error: imported faastune from {faastune.__file__}, not from {src}")
    return elapsed


# --- the closed loop -------------------------------------------------------------


def reference_kernel() -> float:
    """CPU seconds of a fixed mix of the work faastune does: JSON and dict
    allocation, then heap pops with list sums and maxima. Run with the cycle
    collector off so faastune's heap does not change it. Over 1-second
    windows on a 2-vCPU host with noisy neighbours, dividing job times by
    it halved their variation (cv 0.2 to 0.07-0.1) for search, trace
    parsing and simulation alike."""
    rng = random.Random(12345)
    gc.disable()
    try:
        started = time.thread_time()
        items = [{"id": f"s{i}", "v": rng.random(), "k": [i, 2 * i]} for i in range(300)]
        back = [json.loads(json.dumps(item)) for item in items]
        back.sort(key=lambda item: item["v"])
        heap = [(-rng.random(), i) for i in range(600)]
        heapq.heapify(heap)
        groups = [[rng.random() for _ in range(8)] for _ in range(200)]
        total = 0.0
        for step in range(1500):
            key, i = heapq.heappop(heap)
            heapq.heappush(heap, (key * 0.99, i))
            group = groups[i % 200]
            group[step % 8] = -key
            total += sum(group) + max(group)
        return time.thread_time() - started
    finally:
        gc.enable()


def speed_scales(refs: list[float], sensitivity: float) -> list[float]:
    """Per job: REF_S over the median kernel time of the jobs within
    REF_WINDOW, to the power ``sensitivity``."""
    return [(REF_S / statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])) ** sensitivity
            for i in range(len(refs))]


@dataclass
class Phase:
    """Outcome of running a job pool in passes."""

    pool_size: int
    sensitivity: float
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: reference kernel time before each attempted job, in order
    refs: list[float] = field(default_factory=list)
    #: per complete pass, in pool order: (attempt number, raw job CPU time)
    passes: list[list[tuple[int, float]]] = field(default_factory=list)
    #: first pass: job id -> (canonical outputs, quality record)
    first: dict[str, tuple[str, dict]] = field(default_factory=dict)
    #: job ids ("<pass>.<index>") of the jobs in complete passes
    job_ids: set[str] = field(default_factory=set)

    def scaled_passes(self) -> list[list[float]]:
        scales = speed_scales(self.refs, self.sensitivity)
        return [[t * scales[i] for i, t in times] for times in self.passes]

    def jobs_per_s(self) -> float:
        return self.pool_size / statistics.median(sum(times) for times in self.scaled_passes())


def run_phase(jobs, seconds: float, tracer, sensitivity: float) -> Phase:
    """Run passes over ``jobs`` until ``seconds`` elapsed, at least one pass is
    complete and complete passes hold more than TAIL_JOBS_BEYOND jobs."""
    phase = Phase(pool_size=len(jobs), sensitivity=sensitivity)
    deadline = time.perf_counter() + seconds
    pass_index = 0
    while True:
        times: list[tuple[int, float]] = []
        for index, job in enumerate(jobs):
            timed = sum(len(p) for p in phase.passes)
            if phase.passes and timed > TAIL_JOBS_BEYOND and time.perf_counter() >= deadline:
                return phase
            tracer.job = f"{pass_index}.{index}"
            phase.refs.append(reference_kernel())
            phase.attempted += 1
            try:
                with tracer.span("bench.job"):
                    started = time.thread_time()
                    state = job.run(tracer)
                    elapsed = time.thread_time() - started
                outputs, quality = job.check(state)
                if pass_index == 0:
                    phase.first[job.id] = (outputs, quality)
                elif outputs != phase.first[job.id][0]:
                    raise AssertionError("outputs differ from the first pass's outputs for this job")
            except Exception as exc:  # a failed job is counted, and the loop goes on
                phase.failed += 1
                if len(phase.failures) < 5:
                    phase.failures.append(f"{job.id}: {type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}")
                elapsed = math.nan
            times.append((phase.attempted - 1, elapsed))
        if not any(math.isnan(t) for _, t in times):
            phase.passes.append(times)
            phase.job_ids.update(f"{pass_index}.{i}" for i in range(len(jobs)))
        elif not phase.passes and pass_index > 0:
            return phase  # no complete pass possible: every pass has a failing job
        pass_index += 1


def tail(times: list[float]) -> tuple[float, float, int]:
    """Slowest job time with TAIL_JOBS_BEYOND jobs beyond it: (value,
    percentile under linear ranks, jobs beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(0, n - 1 - TAIL_JOBS_BEYOND)
    return ordered[index], 100.0 * index / (n - 1) if n > 1 else 100.0, n - 1 - index


def percentile_linear(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile; the benchmark's own, so a change to
    faastune's percentile code cannot change how faastune is measured."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def quality_metrics(phase: Phase, percentile: float) -> dict[str, float]:
    """Deterministic metrics over the pool's first-pass outputs."""
    instances = [i for _, q in phase.first.values() for i in q["instances"]]
    validations = [v for _, q in phase.first.values() for v in q["validations"]]
    oracle = [i for i in instances if "brute_cost" in i]
    out = {
        "min_cost_ratio": geomean([i["min_cost"] / i["greedy_cost"] for i in instances]),
        "min_time_ratio": geomean([i["min_time"] / i["greedy_time"] for i in instances]),
        "sim.validations": len(validations),
        "search.oracle_instances": len(oracle),
    }
    if validations:
        met = sum(1 for v in validations if v["conformance"] >= percentile / 100.0)
        out["sim.slo_met_pct"] = 100.0 * met / len(validations)
        out["estimate.error_pct"] = statistics.median(
            abs(v["estimated"] - v["observed"]) / v["observed"] * 100.0 for v in validations)
    if oracle:
        out["search.cost_gap_pct"] = statistics.fmean(
            (i["min_cost"] - i["brute_cost"]) / i["brute_cost"] * 100.0 for i in oracle)
        out["search.time_gap_pct"] = statistics.fmean(
            (i["min_time"] - i["brute_time"]) / i["brute_time"] * 100.0 for i in oracle)
    return out


def digest(phase: Phase) -> str:
    h = hashlib.sha256()
    for job_id in sorted(phase.first):
        h.update(job_id.encode() + b"\0" + phase.first[job_id][0].encode() + b"\0")
    return h.hexdigest()


# --- one benchmark run ------------------------------------------------------------


def setup(build, mix: dict, seed: int, workdir: Path, tracer):
    """Build the job pool; returns it with the set-up CPU time and the
    reference kernel times taken just before."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    refs = [reference_kernel() for _ in range(2 * REF_WINDOW + 1)]
    started = time.thread_time()
    jobs = build(mix, seed, workdir, tracer)
    return jobs, time.thread_time() - started, refs


def run(workload: str, seed: int, seconds: float, traced: bool, mix: dict, workdir: Path,
        import_s: float, spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the full result record. A traced run
    writes its spans to ``spans_path`` when one is given."""
    import workloads  # imports faastune, so only after import_program()

    build = workloads.BUILDERS[workload]
    sensitivity = mix["workloads"][workload]["speed_sensitivity"]
    null = tracing.NullTracer()
    setup_times, setup_refs = [], []
    for r in range(SETUP_REPEATS if not traced else 1):
        jobs, elapsed, refs = setup(build, mix, seed, workdir / f"setup{r}", null)
        setup_times.append(elapsed)
        setup_refs += refs
    untraced = run_phase(jobs, seconds / 2 if traced else seconds, null, sensitivity)
    phases = [untraced]
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced)}

    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_jobs, _, _ = setup(build, mix, seed, workdir / "traced", tracer)
            traced_phase = run_phase(traced_jobs, seconds / 2, tracer, sensitivity)
        finally:
            tracer.uninstall()
        phases.append(traced_phase)
        if spans_path is not None:
            tracer.write(spans_path)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record.update(attempted=attempted, failed=failed, failures=[f for p in phases for f in p.failures])
    if any(not p.passes for p in phases):
        record["correct"] = False
        return record
    digests = {digest(p) for p in phases}
    record["digest"] = digests.pop()
    record["correct"] = failed == 0 and not digests
    if digests:
        record["failures"].append("traced and untraced runs produced different outputs")

    scaled = untraced.scaled_passes()
    job_s = [statistics.median(p[i] for p in scaled) for i in range(untraced.pool_size)]
    times = [t for t in job_s for _ in scaled]
    tail_s, tail_pct, beyond = tail(times)
    percentile = mix["slo_percentile"]
    quality = quality_metrics(untraced, percentile)
    record["end_to_end"] = {
        "setup_s": (import_s + statistics.median(setup_times))
                   * (REF_S / statistics.median(setup_refs)) ** sensitivity,
        "jobs_per_s": untraced.jobs_per_s(),
        "job_p50_s": percentile_linear(times, 50.0),
        "job_tail_s": tail_s,
        "jobs_ok_pct": 100.0 * (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "min_cost_ratio": quality.pop("min_cost_ratio"),
        "min_time_ratio": quality.pop("min_time_ratio"),
    }
    record["quality"] = quality
    record["detail"] = {
        "failed_pct": 100.0 * failed / attempted,
        "job_tail_percentile": tail_pct,
        "job_tail_jobs_beyond": beyond,
        "jobs_timed": len(times),
        "pool_size": untraced.pool_size,
        "complete_passes": len(untraced.passes),
        "raw_passes_s": [[t for _, t in times] for times in untraced.passes],
        "refs_s": untraced.refs,
        "setup_times_s": setup_times,
        "job_median_s": dict(zip((job.id for job in jobs), job_s)),
        "import_s": import_s,
    }
    if traced:
        job_s = sum(t for times in traced_phase.passes for _, t in times)
        scale = (REF_S / statistics.median(traced_phase.refs)) ** sensitivity
        layers = tracing.layer_metrics(tracer.spans, traced_phase.job_ids, job_s, scale)
        layers["trace.overhead_pct"] = 100.0 * (1.0 - traced_phase.jobs_per_s() / untraced.jobs_per_s())
        layers["trace.jobs_per_s"] = traced_phase.jobs_per_s()
        layers["trace.spans_per_job"] = sum(
            1 for s in tracer.spans if s.job in traced_phase.job_ids) / len(traced_phase.job_ids)
        record["per_layer"] = layers
    return record


def result_line(record: dict) -> dict:
    """The last stdout line: end-to-end metrics, or per-layer metrics when traced."""
    if "end_to_end" not in record:
        metrics = {}
    elif record["trace"]:
        values = {**record["per_layer"], **record["quality"]}
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": record["correct"], "attempted": max(1, record["attempted"]),
            "failed": record["failed"], "metrics": metrics}


def print_report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} jobs attempted, {record['failed']} failed, correct={record['correct']}")
    for failure in record["failures"]:
        print("FAILED " + failure.rstrip().replace("\n", "\n    "))
    if "end_to_end" not in record:
        return
    detail = record["detail"]
    print(f"digest {record['digest']}")
    for name, value in record["end_to_end"].items():
        print(f"{name:<34} {value:>14.6g} {END_TO_END_UNITS[name]}")
    print(f"{'failed_pct':<34} {detail['failed_pct']:>14.6g} %")
    print(f"  job_tail_s is the p{detail['job_tail_percentile']:.2f} of {detail['jobs_timed']} job times "
          f"({detail['job_tail_jobs_beyond']} beyond it): each job's median counted once for each of "
          f"{detail['complete_passes']} complete passes of {detail['pool_size']} jobs")
    for name, value in record["quality"].items():
        print(f"{name:<34} {value:>14.6g} {QUALITY_UNITS[name]}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name:<34} {value:>14.6g} {PER_LAYER_UNITS[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-pipeline", "search-scale", "trace-ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    mix = json.loads((HERE / "workloads.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), mix, workdir, import_s,
                     OUT / f"spans-{args.workload}.ndjson")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
