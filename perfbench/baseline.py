"""Layer-rate cross-check: times each layer on its own and compares the rates
with the single-run baselines in ROADMAP.md, open item 1.

    python3 perfbench/baseline.py [--repeats 5] [--out perfbench/baseline.json]

Each rate is the median of ``--repeats`` runs, reported with the best run
and the spread (max/min of the times). Times are taken as the benchmark
takes them (run.py): CPU time of the thread, scaled by the reference kernel
timed just before each run, so they share the benchmark's time base. A rate
that differs from the ROADMAP figure by more than 2x is flagged. The numbers
depend on the hardware; the output records the processor and the Python
version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from faastune import search, sim, traces  # noqa: E402
from faastune.estimate import estimate_time  # noqa: E402
from faastune.model import MemoryLadder, Objective, SloSpec  # noqa: E402
from workloads import monotone_profile  # noqa: E402

#: ROADMAP item 1's single-run figures: (value, unit).
ROADMAP = {
    "sim.segments_per_s": (81_000, "1/s"),
    "traces.write_segments_per_s": (85_000, "1/s"),
    "traces.parse_segments_per_s": (44_000, "1/s"),
    "traces.build_call_graph_n50_2500traces_ms": (58, "ms"),
    "search.greedy_slo_random_n100_ms": (3, "ms"),
    "search.greedy_slo_random_n400_ms": (15, "ms"),
    "search.brute_force.configs_per_s": (79_000, "1/s"),
}


def processor() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def timed(fn, repeats: int) -> tuple[float, float, float]:
    """(median, best, max/min) scaled CPU seconds of ``fn`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        ref = statistics.median(run.reference_kernel() for _ in range(5))
        started = time.thread_time()
        fn()
        times.append((time.thread_time() - started) * run.REF_S / ref)
    return statistics.median(times), min(times), max(times) / min(times)


def measure(repeats: int, workdir: Path) -> dict[str, dict]:
    ladder = MemoryLadder()
    rungs = ladder.effective()
    rows: dict[str, dict] = {}

    def rate(name: str, items: int, fn) -> None:
        median, best, spread = timed(fn, repeats)
        rows[name] = {"value": items / median, "unit": "1/s", "best": items / best, "spread": spread,
                      "items": items}

    def wall_ms(name: str, fn, **size) -> None:
        median, best, spread = timed(fn, repeats)
        rows[name] = {"value": median * 1e3, "unit": "ms", "best": best * 1e3, "spread": spread, **size}

    app = sim.generate_app(50, "random", seed=1)
    log = sim.profile_application(app, ladder, 40, random.Random(1))
    segments = sum(len(s) for s in log.traces.values())
    rate("sim.segments_per_s", segments,
         lambda: sim.profile_application(app, ladder, 40, random.Random(1)))
    path = workdir / "baseline-trace.ndjson"
    rate("traces.write_segments_per_s", segments, lambda: traces.write_trace_file(log, path))
    rate("traces.parse_segments_per_s", segments, lambda: traces.parse_trace_file(path))
    path.unlink()
    big = sim.profile_application(app, ladder, 500, random.Random(2))
    wall_ms("traces.build_call_graph_n50_2500traces_ms", lambda: traces.build_call_graph(big),
            traces=len(big.traces))

    rng = random.Random(3)
    for shape in ("random", "chain"):
        for n in (100, 400):
            graph = sim.generate_app(n, shape, seed=n).graph
            profiles = {f: monotone_profile(f, rungs, rng) for f in graph.functions()}
            slo = SloSpec(1.5 * estimate_time(graph, {f: rungs[-1] for f in graph.functions()}, profiles))
            for variant in ("greedy_slo", "greedy_min_cost", "greedy_min_time"):
                fn = getattr(search, variant)
                wall_ms(f"search.{variant}_{shape}_n{n}_ms", lambda: fn(graph, profiles, ladder, slo),
                        evaluations=fn(graph, profiles, ladder, slo).evaluations)

    for n, ladder_mb in ((6, rungs), (8, (128, 256, 512, 1024))):
        small_ladder = MemoryLadder(values=tuple(ladder_mb), cap_mb=None)
        graph = sim.generate_app(n, "random", seed=n).graph
        profiles = {f: monotone_profile(f, small_ladder.effective(), rng) for f in graph.functions()}
        slo = SloSpec(1.5 * estimate_time(graph, {f: ladder_mb[-1] for f in graph.functions()}, profiles))
        configs = len(ladder_mb) ** n
        name = f"search.brute_force.configs_per_s_n{n}_m{len(ladder_mb)}"
        rate(name, configs, lambda: search.brute_force(graph, profiles, small_ladder, slo, Objective.MIN_COST))
    rows["search.brute_force.configs_per_s"] = rows["search.brute_force.configs_per_s_n6_m5"]

    for name, (reference, unit) in ROADMAP.items():
        row = rows[name]
        row["roadmap"] = reference
        ratio = row["value"] / reference
        row["ratio_to_roadmap"] = ratio
        row["differs_over_2x"] = not 0.5 <= ratio <= 2.0
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    rows = measure(args.repeats, out_dir)
    record = {
        "method": f"median of {args.repeats} runs per rate, in CPU time scaled to a reference kernel time of "
                  f"{run.REF_S} s (as the benchmark scales its times); best run and spread (max/min) beside it",
        "processor": processor(),
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "rates": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, row in rows.items():
        flag = "  (differs >2x from ROADMAP)" if row.get("differs_over_2x") else ""
        print(f"{name:<48} {row['value']:>12.6g} {row['unit']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
