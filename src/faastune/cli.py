"""Command-line driver: generate apps, profile, optimize, validate, report.

All artifact files are deterministic given --seed; wall-clock timings go to
``<out>.timing`` sidecars so the main artifacts diff cleanly between runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import random
import sys
import time
from pathlib import Path

from . import profiles as profiling
from . import search, sim
from .errors import FaastuneError, SearchSpaceTooLarge
from .model import (
    DEFAULT_MEMORY_CAP_MB,
    DEFAULT_PERCENTILE,
    CallGraph,
    CostModel,
    MemoryLadder,
    Objective,
    SloSpec,
    _is_number,
    check_configuration,
)
from .traces import load_manual_graph, read_json, write_json

EXIT_CODES_HELP = """exit codes:
  0  success
  2  invalid flags or input files
  3  simulation or profiling failure
  4  no configuration satisfies the SLO (infeasible)
  5  exhaustive search space exceeds the evaluation guard
"""


def _write_timing_sidecar(path: Path, elapsed_s: float) -> None:
    Path(str(path) + ".timing").write_text(f"elapsed_s={elapsed_s!r}\n", encoding="utf-8")


def _finite_or_null(value: object) -> bool:
    return value is None or (_is_number(value) and abs(value) <= sys.float_info.max)


#: Record fields that ``validate`` and ``report`` compute with: the test
#: each must pass when present, and its description for error messages.
_RECORD_FIELDS = {
    "algorithm": (lambda value: isinstance(value, str), "a string"),
    "estimated_time_s": (_finite_or_null, "a finite number or null"),
    "conformance": (_finite_or_null, "a finite number or null"),
    "config": (lambda value: value is None or isinstance(value, dict), "an object or null"),
}


def _read_record(path: Path) -> dict:
    """The JSON object stored at ``path``. Raises ValueError, naming the
    file, if it holds another JSON value or a field that fails its test in
    :data:`_RECORD_FIELDS` (a number fails if it is NaN or infinite, which
    standard JSON cannot hold, or an int no float arithmetic can take)."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for name, (valid, expected) in _RECORD_FIELDS.items():
        if name in data and not valid(data[name]):
            raise ValueError(f"{path}: field {name!r} must be {expected}, got {data[name]!r}")
    return data


def _read_timing_sidecar(path: Path) -> float | None:
    """The seconds in ``path``'s ``.timing`` sidecar, None without one; a
    ValueError naming the sidecar if it holds anything else."""
    sidecar = Path(str(path) + ".timing")
    if not sidecar.exists():
        return None
    key, _, value = sidecar.read_text(encoding="utf-8", errors="replace").strip().partition("=")
    try:
        elapsed_s = float(value) if key == "elapsed_s" else math.nan
    except ValueError:
        elapsed_s = math.nan
    if not 0 <= elapsed_s < math.inf:
        raise ValueError(f"{sidecar}: expected elapsed_s=<finite, non-negative number>")
    return elapsed_s


def _parse_ladder(text: str) -> MemoryLadder:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid ladder {text!r}: expected comma-separated integers")
    try:
        return MemoryLadder(values=values, cap_mb=None)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


class _SimulationFailed(Exception):
    """Simulating the app or fitting its profiles failed (exit 3)."""


def cmd_generate_app(args: argparse.Namespace) -> int:
    # Only the flags given: ``generate_app``'s signature owns the defaults.
    given = {key: getattr(args, key) for key in ("n_functions", "shape", "seed") if key in args}
    app = sim.generate_app(**given)
    sim.save_app(app, args.out)
    print(f"wrote {args.out}: shape={app.shape} functions={len(app.graph.functions())}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    app = sim.load_app(args.app)
    if args.alpha is not None and not 0 <= args.alpha <= 100:
        raise ValueError(f"--alpha must be in [0, 100], got {args.alpha}")
    if args.requests < 1:
        raise ValueError(f"--requests must be at least 1, got {args.requests}")
    ladder = args.ladder or MemoryLadder()
    rng = random.Random(args.seed)
    try:
        samples = sim.profile_samples(app, ladder, k_per_level=args.requests, rng=rng)
        if args.alpha is not None:
            alpha = args.alpha
        else:
            alpha = profiling.select_alpha(samples, ladder, app.graph, seed=args.seed)
        built = {name: profiling.monotone_repair(p)
                 for name, p in profiling.build_profiles(samples, ladder, alpha).items()}
    except (FaastuneError, ValueError, OverflowError) as exc:
        raise _SimulationFailed(f"profiling failed: {exc}") from exc
    profiling.save_profiles(built, args.out)
    print(f"wrote {args.out}: alpha={alpha} functions={len(built)} ladder={ladder.effective()}")
    return 0


def _infer_ladder(profs: dict) -> MemoryLadder:
    """The memory sizes every one of ``profs`` (not empty) has, as a ladder."""
    common = set.intersection(*(set(profile.representatives) for profile in profs.values()))
    if not common:
        raise ValueError("profiles share no common memory sizes; pass --ladder")
    return MemoryLadder(values=tuple(sorted(common)), cap_mb=None)


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.app:
        graph: CallGraph = sim.load_app(args.app).graph
    else:
        graph = load_manual_graph(args.graph)
    profs = profiling.load_profiles(args.profiles)
    if not profs:
        raise ValueError(f"{args.profiles} holds no profiles")
    ladder = args.ladder or _infer_ladder(profs)
    slo = SloSpec(slo_seconds=args.slo)
    cost_model = CostModel(
        usd_per_gb_second=args.usd_per_gb_second,
        billing_granularity_ms=args.billing_granularity_ms,
    )
    objective = Objective(args.objective)
    # Looked up at call time, so a search patched on the module is the one that runs.
    if args.algorithm == "brute":
        run = functools.partial(search.brute_force, objective=objective)
    else:
        run = {
            Objective.FEASIBLE: search.greedy_slo,
            Objective.MIN_COST: search.greedy_min_cost,
            Objective.MIN_TIME: search.greedy_min_time,
        }[objective]
    started = time.perf_counter()
    result = run(graph, profs, ladder, slo, cost_model=cost_model)
    elapsed_s = time.perf_counter() - started

    record = result.to_record()
    record["objective"] = objective.value
    record["slo_seconds"] = slo.slo_seconds
    write_json(args.out, record)
    _write_timing_sidecar(Path(args.out), elapsed_s)
    if not result.found:
        print(
            f"infeasible: no configuration meets SLO {slo.slo_seconds}s "
            f"({result.evaluations} evaluations); wrote empty config to {args.out}"
        )
        return 4
    print(
        f"wrote {args.out}: algorithm={result.algorithm} "
        f"time={result.estimated_time_s:.6g}s cost=${result.estimated_cost_usd:.6g} "
        f"evaluations={result.evaluations}"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if args.requests < 1:
        raise ValueError(f"--requests must be at least 1, got {args.requests}")
    app = sim.load_app(args.app)
    record = _read_record(Path(args.config))
    config = record.get("config")
    if not config:
        raise ValueError(f"{args.config} holds an empty (infeasible) configuration")
    try:
        check_configuration(app.graph, config)
    except (FaastuneError, ValueError) as exc:
        raise ValueError(f"{args.config}: invalid configuration for {args.app}: {exc}") from None

    slo = SloSpec(slo_seconds=args.slo, percentile=args.percentile)
    try:
        report = sim.validate_config(
            app, config, slo, n_requests=args.requests, rng=random.Random(args.seed)
        )
    except (FaastuneError, ValueError, OverflowError) as exc:
        raise _SimulationFailed(f"validation failed: {exc}") from exc
    estimated = record.get("estimated_time_s")
    accuracy = None
    if estimated is not None and report.at_percentile_s > 0:
        error_pct = (estimated - report.at_percentile_s) / report.at_percentile_s * 100.0
        try:
            squared_error = error_pct**2
        except OverflowError:
            squared_error = math.inf
        # An absurd estimate has no accuracy that standard JSON can hold.
        if math.isfinite(squared_error):
            accuracy = 100.0 - squared_error

    data = report.to_dict()
    data["app_shape"] = app.shape
    data["config"] = dict(sorted(config.items()))
    data["estimated_time_s"] = estimated
    data["accuracy_pct"] = accuracy
    write_json(args.out, data)
    line = f"wrote {args.out}: conformance={report.conformance * 100:.1f}%"
    if accuracy is not None:
        line += f" accuracy={accuracy:.1f}%"
    print(line)
    return 0


def _report_rows(results_dir: Path) -> list[dict]:
    rows = []
    for result_path in sorted(results_dir.glob("*.result.json")):
        stem = result_path.name[: -len(".result.json")]
        record = _read_record(result_path)
        missing = [key for key in ("algorithm", "config") if key not in record]
        if missing:
            raise ValueError(f"{result_path}: not a search result: missing fields {missing}")
        row = {
            "name": stem,
            "app": "",
            "algorithm": record["algorithm"],
            "objective": record.get("objective", ""),
            "estimated_time_s": record.get("estimated_time_s"),
            "estimated_cost_usd": record.get("estimated_cost_usd"),
            "evaluations": record.get("evaluations"),
            "iterations": record.get("iterations"),
            "wall_s": _read_timing_sidecar(result_path),
            "conformance_pct": None,
            "accuracy_pct": None,
        }
        validation_path = results_dir / f"{stem}.validation.json"
        if validation_path.exists():
            validation = _read_record(validation_path)
            row["app"] = validation.get("app_shape", "")
            if validation.get("conformance") is not None:
                row["conformance_pct"] = validation["conformance"] * 100.0
            row["accuracy_pct"] = validation.get("accuracy_pct")
        rows.append(row)
    return rows


_REPORT_COLUMNS = (
    "name", "app", "algorithm", "objective", "estimated_time_s", "estimated_cost_usd",
    "evaluations", "iterations", "wall_s", "conformance_pct", "accuracy_pct",
)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise ValueError(f"not a directory: {results_dir}")
    rows = _report_rows(results_dir)
    if not rows:
        raise ValueError(f"no *.result.json files in {results_dir}")

    out = Path(args.out)
    if out.suffix == ".csv":
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_REPORT_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _format_cell(row[k]) for k in _REPORT_COLUMNS})
    else:
        lines = ["| " + " | ".join(_REPORT_COLUMNS) + " |",
                 "| " + " | ".join("---" for _ in _REPORT_COLUMNS) + " |"]
        for row in rows:
            lines.append("| " + " | ".join(_format_cell(row[k]) for k in _REPORT_COLUMNS) + " |")
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")

    brute_walls = [r["wall_s"] for r in rows if r["algorithm"].startswith("brute") and r["wall_s"]]
    greedy_walls = [r["wall_s"] for r in rows if r["algorithm"] == "greedy" and r["wall_s"]]
    if brute_walls and greedy_walls:
        ratio = (sum(brute_walls) / len(brute_walls)) / (sum(greedy_walls) / len(greedy_walls))
        print(f"wall-time ratio brute-force/greedy: {ratio:.1f}x")
    print(f"wrote {out}: {len(rows)} result rows")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and building it costs about twenty times a parse."""
    parser = argparse.ArgumentParser(
        prog="faastune",
        description="Find per-function memory sizes that keep a multi-function "
        "serverless application inside a latency SLO.",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-app", help="create a synthetic application spec")
    p.add_argument("--shape", choices=sim.SHAPES, default=argparse.SUPPRESS)
    p.add_argument("--functions", dest="n_functions", type=int, default=argparse.SUPPRESS,
                   help="function count for chain/random shapes")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_app)

    p = sub.add_parser("profile", help="profile an app across the memory ladder")
    p.add_argument("--app", required=True)
    p.add_argument("--ladder", type=_parse_ladder, default=None,
                   help="comma-separated MB values (default: platform ladder capped at "
                   f"{DEFAULT_MEMORY_CAP_MB})")
    p.add_argument("--requests", type=int, default=50, help="requests per memory level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None,
                   help="fix the choice percentile instead of auto-selecting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("optimize", help="search for an SLO-satisfying configuration")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--app", help="app spec file (graph taken from it)")
    source.add_argument("--graph", help="declarative call-graph file")
    p.add_argument("--profiles", required=True)
    p.add_argument("--slo", type=float, required=True, help="latency target in seconds")
    p.add_argument("--objective", choices=[o.value for o in Objective], default="feasible")
    p.add_argument("--algorithm", choices=["greedy", "brute"], default="greedy")
    p.add_argument("--ladder", type=_parse_ladder, default=None,
                   help="restrict to these MB values (default: sizes common to all profiles)")
    p.add_argument("--usd-per-gb-second", type=float, default=CostModel().usd_per_gb_second)
    p.add_argument("--billing-granularity-ms", type=int, default=CostModel().billing_granularity_ms)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate", help="replay requests against a found configuration")
    p.add_argument("--app", required=True)
    p.add_argument("--config", required=True, help="result file from 'optimize'")
    p.add_argument("--slo", type=float, required=True)
    p.add_argument("--requests", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--percentile", type=float, default=DEFAULT_PERCENTILE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="aggregate result/validation files into a table")
    p.add_argument("--results", required=True, help="directory of *.result.json files")
    p.add_argument("--out", required=True, help=".md or .csv output path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (see :data:`EXIT_CODES_HELP`).

    Commands raise on failure; this is the one place that maps an error to
    its exit code and prints it as a single ``error:`` line.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SearchSpaceTooLarge as exc:
        error, code = exc, 5
    except _SimulationFailed as exc:
        error, code = exc, 3
    except (FaastuneError, ValueError, OSError) as exc:
        error, code = exc, 2
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
