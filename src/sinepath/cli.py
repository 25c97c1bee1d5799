"""Command line front end: solve, bench, ablate, plot.

Exit codes: 0 success, 2 usage error, 3 instance or report parse/read failure,
4 solver domain error (bad robot count, parameter out of range).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .aco import AcoParams
from .bench import (
    DEFAULT_ABLATION_WEIGHTS,
    AlgorithmSpec,
    ExperimentPlan,
    ablation_sweep,
    emit_bench_artifacts,
    format_ablation_csv,
    format_svg_routes,
    run_plan,
)
from .instances import ParseError, load_instance
from .solver import MODE_CLASSIC, MODE_SINE, PARTITION_METHODS, SolveReport, SolverConfig, solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4

# Solver flag -> (AcoParams or SolverConfig field, help).  Each flag takes its
# default and type from the field, so the CLI and the library share them.
_SOLVER_FLAGS = {
    "--seed": ("master_seed", "master seed (default %(default)s)"),
    "--iters": ("max_iter", "iterations (default %(default)s)"),
    "--ants": ("n_ants", "colony size (default %(default)s)"),
    "--alpha": ("alpha", "pheromone exponent"),
    "--beta": ("beta", "visibility exponent"),
    "--rho": ("rho", "evaporation rate"),
    "--q": ("q_scale", "deposit scale"),
    "--kappa": ("kappa", "backbone deposit bonus"),
    "--omega": ("omega", "backbone bias weight"),
    "--lambda": ("lambda_weight", "total-vs-max trade-off in [0, 1]"),
    "--partition": ("partition_method", None),
}
# Flags not shown as their own name in upper case.
_FLAG_OPTIONS = {"--lambda": {"metavar": "LAM"}, "--partition": {"choices": PARTITION_METHODS}}
_ACO_FIELDS = {f.name for f in fields(AcoParams)}


def _add_solver_flags(p: argparse.ArgumentParser):
    for flag, (name, text) in _SOLVER_FLAGS.items():
        default = getattr(AcoParams if name in _ACO_FIELDS else SolverConfig, name)
        options = _FLAG_OPTIONS.get(flag, {"metavar": flag[2:].upper()})
        p.add_argument(flag, dest=name, type=type(default), default=default, help=text,
                       **options)


def _config(args, mode: str) -> SolverConfig:
    given = {name: getattr(args, name) for name, _ in _SOLVER_FLAGS.values()}
    aco = AcoParams(**{name: given.pop(name) for name in _ACO_FIELDS & set(given)})
    if mode == MODE_CLASSIC:
        del given["omega"]  # the plain colony has no backbone bias
        return SolverConfig.classic(aco=aco, **given)
    return SolverConfig(aco=aco, **given)


def _list(cast, what: str):
    """An argparse type: a non-empty comma separated list of ``what`` values.
    Each entry names one result, so a repeated entry is refused."""

    def parse(text: str) -> list:
        try:
            values = [cast(tok.strip()) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma separated {what} list: {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(f"empty {what} list: {text!r}")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentTypeError(f"duplicate entry {value} in {text!r}")
        return values

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinepath",
        description="Spanning-tree guided ant colony routing for robot teams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance and write a JSON report")
    p.add_argument("instance", help=".tsp or geo .csv instance file")
    p.add_argument("--robots", type=int, default=1, help="robot count (default 1)")
    p.add_argument("--mode", choices=(MODE_SINE, MODE_CLASSIC), default=MODE_SINE)
    p.add_argument("--out", default="report.json", help="report path")
    p.add_argument("--svg", default=None, help="also draw the routes to this SVG path")
    _add_solver_flags(p)

    p = sub.add_parser("bench", help="run an instance x robots x algorithm grid")
    p.add_argument("--instances", required=True, help="glob of instance files")
    p.add_argument("--robots", type=_list(int, "int"), required=True, help="e.g. 2,4,8")
    p.add_argument("--repeats", type=int, default=8)
    p.add_argument("--algorithms", type=_list(str, "name"),
                   default=f"{MODE_SINE},{MODE_CLASSIC}",
                   help=f"comma list of {MODE_SINE},{MODE_CLASSIC}")
    p.add_argument("--out-dir", default="bench_out")
    _add_solver_flags(p)

    p = sub.add_parser("ablate", help="sweep the structural deposit weight")
    p.add_argument("instance")
    p.add_argument("--robots", type=_list(int, "int"), default=[2], help="e.g. 2,4,8")
    p.add_argument("--weights", type=_list(float, "float"),
                   default=list(DEFAULT_ABLATION_WEIGHTS))
    p.add_argument("--repeats", type=int, default=8)
    p.add_argument("--out", default=None, help="write the sweep table as csv")
    _add_solver_flags(p)
    for name in ("bench", "ablate"):
        sub.choices[name].add_argument(
            "--workers", type=int, default=None,
            help="worker processes for the cells (default: SINE_WORKERS or 1); the "
                 "output is the same for any count")

    p = sub.add_parser("plot", help="draw the routes of an existing report")
    p.add_argument("report", help="JSON report from solve")
    p.add_argument("instance", help="the instance the report was solved on")
    p.add_argument("--out", default="routes.svg")

    return parser


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    cfg = _config(args, args.mode)
    report = solve(inst, args.robots, cfg)
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if args.svg:
        Path(args.svg).write_text(format_svg_routes(report, inst))
    o = report.objectives
    print(f"instance {inst.name}  robots {args.robots}  mode {args.mode}")
    print(f"total {o.total:.4f}  max {o.max_single:.4f}  J {o.j_value:.4f}")
    print(f"iterations {report.iterations_run}  wall {report.wall_time:.2f}s")
    print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    paths = sorted(glob.glob(args.instances))
    if not paths:
        print(f"no instances match {args.instances!r}", file=sys.stderr)
        return EXIT_USAGE
    specs = []
    for name in args.algorithms:
        if name not in (MODE_SINE, MODE_CLASSIC):
            print(f"unknown algorithm {name!r} (want {MODE_SINE}, {MODE_CLASSIC})",
                  file=sys.stderr)
            return EXIT_USAGE
        specs.append(AlgorithmSpec(name, _config(args, name)))
    plan = ExperimentPlan(
        instances=tuple(paths),
        robot_counts=tuple(args.robots),
        algorithms=tuple(specs),
        repeats=args.repeats,
        seed_base=args.master_seed,
    )
    results = run_plan(plan, workers=args.workers)
    written = emit_bench_artifacts(results, args.out_dir)
    for key, msg in sorted(results.failed.items()):
        print(f"failed: {key}: {msg}", file=sys.stderr)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    inst = load_instance(args.instance)
    base = replace(_config(args, MODE_SINE), omega=1.0, seed_with_christofides=False)
    sweep = ablation_sweep(
        inst, args.robots, args.weights, repeats=args.repeats,
        seed_base=args.master_seed, base_config=base, workers=args.workers,
    )
    print("weight  robots  metric      mean        std       n")
    for m, per_weight in sweep.items():
        for w in sorted(per_weight):
            for metric, c in per_weight[w].items():
                print(f"{w!r:>6}  {m:6d}  {metric:10s}  {c.mean:10.4f}  {c.std:9.4f}  {c.n}")
    if args.out:
        Path(args.out).write_text(format_ablation_csv(sweep))
        print(f"wrote {args.out}")
    return EXIT_OK


def _read_report(path: str, n: int) -> SolveReport:
    """The solve report at ``path``; a ParseError naming the path and the
    cause if it is not one, or if a tour is empty or visits a node id outside
    ``[0, n)``."""
    try:
        report = SolveReport.from_dict(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise ParseError(f"{path}: not a solve report: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a solve report: {exc}") from exc
    for k, tour in enumerate(report.tours):
        if not tour.order:
            raise ParseError(f"{path}: tour {k} is empty")
        for v in tour.order:
            if not 0 <= v < n:
                raise ParseError(f"{path}: tour {k} has node id {v} outside [0, {n})")
    return report


def _cmd_plot(args) -> int:
    inst = load_instance(args.instance)
    report = _read_report(args.report, inst.dimension)
    if report.instance != inst.name:
        print(
            f"warning: report is for {report.instance!r}, "
            f"instance file is {inst.name!r}",
            file=sys.stderr,
        )
    Path(args.out).write_text(format_svg_routes(report, inst))
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "ablate": _cmd_ablate,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "workers" in vars(args):
        source = "argument --workers"
        if args.workers is None:
            source = "environment variable SINE_WORKERS"
            text = os.environ.get("SINE_WORKERS", "1")
            try:
                args.workers = int(text)
            except ValueError:
                parser.error(f"{source}: invalid int value: {text!r}")
        if args.workers < 1:
            parser.error(f"{source}: must be at least 1, got {args.workers}")
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
