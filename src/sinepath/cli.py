"""Command line front end: solve, bench, ablate, plot, and the SVG route
drawing that ``solve --svg`` and ``plot`` write.

Exit codes: 0 success, 2 usage error, 3 instance or report parse/read failure
or an output path that cannot be written or names an input (checked before
anything is loaded or solved), 4 solver domain error (bad robot count,
parameter out of range, a bench whose every cell failed).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

# sinepath makes no BLAS call, but numpy's bundled OpenBLAS starts a helper
# thread per extra core as numpy loads, and each spins before it sleeps.  The
# CLI owns its process, so it asks for one thread before any module below
# loads numpy; a value the user set wins, and bench workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .aco import AcoParams, step_loop  # noqa: E402
from .bench import (  # noqa: E402
    DEFAULT_ABLATION_WEIGHTS,
    ExperimentPlan,
    ablation_sweep,
    emit_bench_artifacts,
    format_ablation_csv,
    run_plan,
)
from .instances import Instance, ParseError, load_instance  # noqa: E402
from .solver import (  # noqa: E402
    MODE_CLASSIC, MODE_SINE, PARTITION_METHODS, SolverConfig, solve,
)

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


def _add_solver_flags(p: argparse.ArgumentParser, skip=()):
    for flag, (name, text) in _SOLVER_FLAGS.items():
        if flag in skip:
            continue
        default = getattr(AcoParams if name in _ACO_FIELDS else SolverConfig, name)
        options = _FLAG_OPTIONS.get(flag, {"metavar": flag[2:].upper()})
        p.add_argument(flag, dest=name, type=type(default), default=default, help=text,
                       **options)


def _config(args, mode: str) -> SolverConfig:
    # A solver flag that the subcommand lacks keeps the library default.
    given = {name: getattr(args, name) for name, _ in _SOLVER_FLAGS.values() if name in args}
    aco = AcoParams(**{name: given.pop(name) for name in _ACO_FIELDS & set(given)})
    if mode == MODE_CLASSIC:
        given.pop("omega", None)  # the plain colony has no backbone bias
        return SolverConfig.classic(aco=aco, **given)
    return SolverConfig(aco=aco, **given)


def _list(cast, what: str, choices=None):
    """An argparse type: a non-empty comma separated list of ``what`` values, each
    one of ``choices`` if given.  Each names one result, so a repeat is refused."""

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
            if choices and value not in choices:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {value!r} (choose from {', '.join(choices)})")
        return values

    return parse


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


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
    p.add_argument("--algorithms", type=_list(str, "algorithm", (MODE_SINE, MODE_CLASSIC)),
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
    # The sweep sets omega = 1 and kappa to each weight.
    _add_solver_flags(p, skip=("--omega", "--kappa"))
    for name in ("bench", "ablate"):
        sub.choices[name].add_argument(
            "--workers", type=_positive_int, default=1,
            help="worker processes for the cells (default 1); same output for any count")

    p = sub.add_parser("plot", help="draw the routes of an existing report")
    p.add_argument("report", help="JSON report from solve")
    p.add_argument("instance", help="the instance the report was solved on")
    p.add_argument("--out", default="routes.svg")

    return parser


_ROUTE_COLORS = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
)


def format_svg_routes(orders, inst: Instance) -> str:
    """SVG 1.1 drawing, 640 units on its longer side: nodes as dots, one
    closed polyline per robot, through the node ids of its order.

    The viewBox fits the coordinate bounding box with a 5% margin; the
    vertical axis is flipped so y grows upward.  Geographic instances draw
    as lon (x) by lat (y).
    """
    coords = inst.coords
    if inst.metric.value == "greatcircle":
        xs, ys = coords[:, 1], coords[:, 0]
    else:
        xs, ys = coords[:, 0], coords[:, 1]
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    span_x = max(xmax - xmin, 1e-9)
    span_y = max(ymax - ymin, 1e-9)
    margin_x, margin_y = 0.05 * span_x, 0.05 * span_y
    width = span_x + 2 * margin_x
    height = span_y + 2 * margin_y
    scale = 640.0 / max(width, height)

    def sx(x: float) -> float:
        return (x - xmin + margin_x) * scale

    def sy(y: float) -> float:
        return (ymax - y + margin_y) * scale

    w_px, h_px = width * scale, height * scale
    radius = 0.006 * max(w_px, h_px)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {w_px:.2f} {h_px:.2f}">',
        f'<rect width="{w_px:.2f}" height="{h_px:.2f}" fill="white"/>',
    ]
    for i, order in enumerate(orders):
        color = _ROUTE_COLORS[i % len(_ROUTE_COLORS)]
        pts = [f"{sx(xs[v]):.2f},{sy(ys[v]):.2f}" for v in order]
        pts.append(pts[0])  # close the loop
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="{radius / 2:.2f}"/>'
        )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{sx(float(x)):.2f}" cy="{sy(float(y)):.2f}" '
            f'r="{radius:.2f}" fill="#222222"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _check_output_dirs(inputs, *paths) -> None:
    """Refuse, before any loading or solving, an output file path whose
    directory is missing, that is a directory itself or that names the file
    of an input or of an earlier path, so that a long run does not end in a
    failed or lost write and no input is overwritten."""
    written = {Path(path).resolve(): path for path in inputs}
    for path in (p for p in paths if p is not None):
        target = Path(path)
        if target.is_dir():
            raise OSError(f"{path}: is a directory")
        if not target.parent.is_dir():
            raise OSError(f"{path}: {target.parent} is not a directory")
        if target.resolve() in written:
            raise OSError(f"{path}: the same file as {written[target.resolve()]}")
        written[target.resolve()] = path


def _check_out_dir(path) -> None:
    """Refuse, before the plan runs, an output directory that cannot be
    made: its nearest existing ancestor, itself included, must be a
    directory."""
    for ancestor in (Path(path), *Path(path).parents):
        if ancestor.exists():
            if not ancestor.is_dir():
                raise OSError(f"{path}: {ancestor} is not a directory")
            return


def _cmd_solve(args) -> int:
    _check_output_dirs([args.instance], args.out, args.svg)
    inst = load_instance(args.instance)
    cfg = _config(args, args.mode)
    report = solve(inst, args.robots, cfg)
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if args.svg:
        Path(args.svg).write_text(format_svg_routes([t.order for t in report.tours], inst))
    o = report.objectives
    print(f"instance {inst.name}  robots {args.robots}  mode {args.mode}")
    print(f"total {o.total:.4f}  max {o.max_single:.4f}  J {o.j_value:.4f}")
    print(f"iterations {report.iterations_run}  wall {report.wall_time:.2f}s")
    print(f"step loop {step_loop()}")
    print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    _check_out_dir(args.out_dir)
    paths = sorted(glob.glob(args.instances))
    if not paths:
        print(f"no instances match {args.instances!r}", file=sys.stderr)
        return EXIT_USAGE
    plan = ExperimentPlan(
        instances=tuple(paths),
        robot_counts=tuple(args.robots),
        algorithms={name: _config(args, name) for name in args.algorithms},
        repeats=args.repeats,
        seed_base=args.master_seed,
    )
    results = run_plan(plan, workers=args.workers)
    written = emit_bench_artifacts(results, args.out_dir)
    for key, msg in sorted(results.failed.items()):
        print(f"failed: {key}: {msg}", file=sys.stderr)
    for path in written:
        print(f"wrote {path}")
    if not results.cells:
        print("error: every bench cell failed", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _cmd_ablate(args) -> int:
    _check_output_dirs([args.instance], args.out)
    inst = load_instance(args.instance)
    sweep = ablation_sweep(
        inst, args.robots, args.weights, repeats=args.repeats,
        seed_base=args.master_seed, base_config=_config(args, MODE_CLASSIC),
        workers=args.workers,
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


def _read_tours(path: str, n: int) -> tuple[object, list[list[int]]]:
    """The instance name and tour orders of the solve report at ``path``; a
    ParseError naming the path and the cause if either is missing, a tour is
    empty, or a node id is not a JSON integer or lies outside ``[0, n)``."""
    try:
        data = json.loads(Path(path).read_text())
        name, orders = data["instance"], [t["order"] for t in data["tours"]]
        for v in (v for order in orders for v in order):
            if type(v) is not int:
                raise ValueError(f"node id {v!r} is not an integer")
    except KeyError as exc:
        raise ParseError(f"{path}: not a solve report: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a solve report: {exc}") from exc
    for k, order in enumerate(orders):
        if not order:
            raise ParseError(f"{path}: tour {k} is empty")
        for v in order:
            if not 0 <= v < n:
                raise ParseError(f"{path}: tour {k} has node id {v} outside [0, {n})")
    return name, orders


def _cmd_plot(args) -> int:
    _check_output_dirs([args.report, args.instance], args.out)
    inst = load_instance(args.instance)
    name, orders = _read_tours(args.report, inst.dimension)
    if name != inst.name:
        print(f"warning: report is for {name!r}, instance file is {inst.name!r}", file=sys.stderr)
    Path(args.out).write_text(format_svg_routes(orders, inst))
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "ablate": _cmd_ablate,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
