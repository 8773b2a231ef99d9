"""Command-line driver: generate apps, profile, optimize, validate, report.

All artifact files are deterministic given --seed; wall-clock timings go to
``<out>.timing`` sidecars so the main artifacts diff cleanly between runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

from . import profiles as profiling
from . import search, sim
from .errors import FaastuneError, SearchSpaceTooLarge
from .model import (
    CallGraph,
    CostModel,
    MemoryLadder,
    Objective,
    SloSpec,
    check_configuration,
)
from .traces import extract_samples, load_manual_graph

EXIT_CODES_HELP = """exit codes:
  0  success
  2  invalid flags or input files
  3  simulation or profiling failure
  4  no configuration satisfies the SLO (infeasible)
  5  exhaustive search space exceeds the evaluation guard
"""


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_timing_sidecar(path: Path, elapsed_s: float) -> None:
    Path(str(path) + ".timing").write_text(f"elapsed_s={elapsed_s!r}\n")


#: Record fields that ``validate`` and ``report`` compute with: the type
#: each must have when present, and its description for error messages.
_RECORD_FIELDS = {
    "algorithm": ((str,), "a string"),
    "estimated_time_s": ((int, float, type(None)), "a number or null"),
    "conformance": ((int, float, type(None)), "a number or null"),
}


def _read_record(path: Path) -> dict:
    """The JSON object stored at ``path``; ValueError, naming the file, if
    it is not one or if a field in :data:`_RECORD_FIELDS` has a wrong type."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for name, (types, expected) in _RECORD_FIELDS.items():
        value = data.get(name)
        if name in data and (not isinstance(value, types) or isinstance(value, bool)):
            raise ValueError(f"{path}: field {name!r} must be {expected}, got {value!r}")
    return data


def _read_timing_sidecar(path: Path) -> float | None:
    sidecar = Path(str(path) + ".timing")
    if not sidecar.exists():
        return None
    text = sidecar.read_text().strip()
    try:
        return float(text.split("=", 1)[1])
    except (IndexError, ValueError):
        return None


def _parse_ladder(text: str) -> MemoryLadder:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid ladder {text!r}: expected comma-separated integers")
    try:
        return MemoryLadder(values=values, cap_mb=None)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_generate_app(args: argparse.Namespace) -> int:
    try:
        app = sim.generate_app(n_functions=args.functions, shape=args.shape, seed=args.seed)
    except FaastuneError as exc:
        return _fail(str(exc), 2)
    sim.save_app(app, args.out)
    print(f"wrote {args.out}: shape={app.shape} functions={len(app.graph.functions())}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if not Path(args.app).exists():
        return _fail(f"app file not found: {args.app}", 2)
    try:
        app = sim.load_app(args.app)
    except FaastuneError as exc:
        return _fail(str(exc), 2)
    if args.alpha is not None and not 0 <= args.alpha <= 100:
        return _fail(f"--alpha must be in [0, 100], got {args.alpha}", 2)
    if args.requests < 1:
        return _fail(f"--requests must be at least 1, got {args.requests}", 2)
    ladder = args.ladder or MemoryLadder()
    rng = random.Random(args.seed)
    try:
        log = sim.profile_application(app, ladder, k_per_level=args.requests, rng=rng)
        samples = extract_samples(log)
        if args.alpha is not None:
            alpha = args.alpha
        else:
            alpha = profiling.select_alpha(samples, ladder, app.graph, seed=args.seed)
        built = profiling.build_profiles(samples, ladder, alpha)
        if not args.no_monotone_repair:
            built = {name: profiling.monotone_repair(p) for name, p in built.items()}
    except FaastuneError as exc:
        return _fail(f"profiling failed: {exc}", 3)
    profiling.save_profiles(built, args.out)
    print(f"wrote {args.out}: alpha={alpha} functions={len(built)} ladder={ladder.effective()}")
    return 0


def _infer_ladder(profs: dict) -> MemoryLadder | None:
    common: set[int] | None = None
    for profile in profs.values():
        memories = set(profile.representatives)
        common = memories if common is None else common & memories
    if not common:
        return None
    return MemoryLadder(values=tuple(sorted(common)), cap_mb=None)


def cmd_optimize(args: argparse.Namespace) -> int:
    for path in (args.app, args.graph, args.profiles):
        if path and not Path(path).exists():
            return _fail(f"file not found: {path}", 2)
    try:
        if args.app:
            graph: CallGraph = sim.load_app(args.app).graph
        else:
            graph = load_manual_graph(args.graph)
        profs = profiling.load_profiles(args.profiles)
        ladder = args.ladder or _infer_ladder(profs)
        if ladder is None:
            return _fail("profiles share no common memory sizes; pass --ladder", 2)
        slo = SloSpec(slo_seconds=args.slo)
        cost_model = CostModel(
            usd_per_gb_second=args.usd_per_gb_second,
            billing_granularity_ms=args.billing_granularity_ms,
        )
    except (FaastuneError, ValueError) as exc:
        return _fail(str(exc), 2)
    objective = Objective(args.objective)
    try:
        if args.algorithm == "brute":
            result = search.brute_force(graph, profs, ladder, slo, objective, cost_model)
        elif objective is Objective.MIN_COST:
            result = search.greedy_min_cost(
                graph, profs, ladder, slo, cost_model,
                allow_non_monotone=args.allow_non_monotone,
            )
        elif objective is Objective.MIN_TIME:
            result = search.greedy_min_time(
                graph, profs, ladder, slo, cost_model,
                allow_non_monotone=args.allow_non_monotone,
            )
        else:
            result = search.greedy_slo(
                graph, profs, ladder, slo, cost_model,
                allow_non_monotone=args.allow_non_monotone,
            )
    except SearchSpaceTooLarge as exc:
        return _fail(str(exc), 5)
    except FaastuneError as exc:
        return _fail(str(exc), 2)

    record = result.to_record()
    record["objective"] = objective.value
    record["slo_seconds"] = slo.slo_seconds
    _write_json(Path(args.out), record)
    _write_timing_sidecar(Path(args.out), result.elapsed_s)
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
    for path in (args.app, args.config):
        if not Path(path).exists():
            return _fail(f"file not found: {path}", 2)
    if args.requests < 1:
        return _fail(f"--requests must be at least 1, got {args.requests}", 2)
    try:
        app = sim.load_app(args.app)
        record = _read_record(Path(args.config))
    except (FaastuneError, ValueError) as exc:
        return _fail(str(exc), 2)
    config = record.get("config")
    if not config:
        return _fail(f"{args.config} holds an empty (infeasible) configuration", 2)
    try:
        config = {name: int(memory) for name, memory in config.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        return _fail(f"{args.config}: invalid configuration: {exc}", 2)
    try:
        check_configuration(app.graph, config)
    except (FaastuneError, ValueError) as exc:
        return _fail(f"configuration does not match app: {exc}", 2)

    try:
        slo = SloSpec(slo_seconds=args.slo, percentile=args.percentile)
    except ValueError as exc:
        return _fail(str(exc), 2)
    report = sim.validate_config(
        app, config, slo, n_requests=args.requests, rng=random.Random(args.seed)
    )
    estimated = record.get("estimated_time_s")
    accuracy = None
    if estimated is not None and report.at_percentile_s > 0:
        error_pct = (estimated - report.at_percentile_s) / report.at_percentile_s * 100.0
        accuracy = 100.0 - error_pct**2

    data = report.to_dict()
    data["app_shape"] = app.shape
    data["config"] = dict(sorted(config.items()))
    data["estimated_time_s"] = estimated
    data["accuracy_pct"] = accuracy
    _write_json(Path(args.out), data)
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
        row = {
            "name": stem,
            "app": "",
            "algorithm": record.get("algorithm", ""),
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
        return _fail(f"not a directory: {results_dir}", 2)
    try:
        rows = _report_rows(results_dir)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if not rows:
        return _fail(f"no *.result.json files in {results_dir}", 2)

    out = Path(args.out)
    if out.suffix == ".csv":
        with open(out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_REPORT_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _format_cell(row[k]) for k in _REPORT_COLUMNS})
    else:
        lines = ["| " + " | ".join(_REPORT_COLUMNS) + " |",
                 "| " + " | ".join("---" for _ in _REPORT_COLUMNS) + " |"]
        for row in rows:
            lines.append("| " + " | ".join(_format_cell(row[k]) for k in _REPORT_COLUMNS) + " |")
        out.write_text("\n".join(lines) + "\n")

    brute_walls = [r["wall_s"] for r in rows if r["algorithm"].startswith("brute") and r["wall_s"]]
    greedy_walls = [r["wall_s"] for r in rows if r["algorithm"] == "greedy" and r["wall_s"]]
    if brute_walls and greedy_walls:
        ratio = (sum(brute_walls) / len(brute_walls)) / (sum(greedy_walls) / len(greedy_walls))
        print(f"wall-time ratio brute-force/greedy: {ratio:.1f}x")
    print(f"wrote {out}: {len(rows)} result rows")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faastune",
        description="Find per-function memory sizes that keep a multi-function "
        "serverless application inside a latency SLO.",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-app", help="create a synthetic application spec")
    p.add_argument("--shape", choices=sim.SHAPES, default="random")
    p.add_argument("--functions", type=int, default=3, help="function count for chain/random shapes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_app)

    p = sub.add_parser("profile", help="profile an app across the memory ladder")
    p.add_argument("--app", required=True)
    p.add_argument("--ladder", type=_parse_ladder, default=None,
                   help="comma-separated MB values (default: platform ladder capped at 2048)")
    p.add_argument("--requests", type=int, default=50, help="requests per memory level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None,
                   help="fix the choice percentile instead of auto-selecting")
    p.add_argument("--no-monotone-repair", action="store_true",
                   help="keep raw representatives even if they increase with memory")
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
    p.add_argument("--billing-granularity-ms", type=int, default=1)
    p.add_argument("--allow-non-monotone", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate", help="replay requests against a found configuration")
    p.add_argument("--app", required=True)
    p.add_argument("--config", required=True, help="result file from 'optimize'")
    p.add_argument("--slo", type=float, required=True)
    p.add_argument("--requests", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--percentile", type=float, default=95.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="aggregate result/validation files into a table")
    p.add_argument("--results", required=True, help="directory of *.result.json files")
    p.add_argument("--out", required=True, help=".md or .csv output path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
