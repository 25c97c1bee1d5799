"""Command line front end: solve, bench, ablate, plot.

Exit codes: 0 success, 2 usage error, 3 instance parse/read failure,
4 solver domain error (bad robot count, parameter out of range).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import replace
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
from .solver import SolveReport, SolverConfig, solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--iters", type=int, default=1000, help="iterations (default 1000)")
    p.add_argument("--ants", type=int, default=50, help="colony size (default 50)")
    p.add_argument("--alpha", type=float, default=1.0, help="pheromone exponent")
    p.add_argument("--beta", type=float, default=2.0, help="visibility exponent")
    p.add_argument("--gamma", type=float, default=1.0, help="bias exponent")
    p.add_argument("--rho", type=float, default=0.1, help="evaporation rate")
    p.add_argument("--q", type=float, default=1.0, help="deposit scale")
    p.add_argument("--kappa", type=float, default=1.0, help="backbone deposit bonus")
    p.add_argument("--omega", type=float, default=2.0, help="backbone bias weight")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="total-vs-max trade-off in [0, 1]")
    p.add_argument("--partition", choices=("angle", "kmeans"), default="angle")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (default: SINE_WORKERS or 1)")


def _config(args, mode: str) -> SolverConfig:
    aco = AcoParams(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        rho=args.rho,
        q_scale=args.q,
        kappa=args.kappa,
        n_ants=args.ants,
        max_iter=args.iters,
    )
    if mode == "aco":
        return SolverConfig.classic(
            aco=aco,
            lambda_weight=args.lam,
            partition_method=args.partition,
            master_seed=args.seed,
        )
    return SolverConfig(
        aco=aco,
        omega=args.omega,
        lambda_weight=args.lam,
        partition_method=args.partition,
        master_seed=args.seed,
    )


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma separated int list: {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma separated float list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinepath",
        description="Spanning-tree guided ant colony routing for robot teams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance and write a JSON report")
    p.add_argument("instance", help=".tsp or geo .csv instance file")
    p.add_argument("--robots", type=int, default=1, help="robot count (default 1)")
    p.add_argument("--mode", choices=("sine", "aco"), default="sine")
    p.add_argument("--out", default="report.json", help="report path")
    p.add_argument("--svg", default=None, help="also draw the routes to this SVG path")
    _add_solver_flags(p)

    p = sub.add_parser("bench", help="run an instance x robots x algorithm grid")
    p.add_argument("--instances", required=True, help="glob of instance files")
    p.add_argument("--robots", type=_int_list, required=True, help="e.g. 2,4,8")
    p.add_argument("--repeats", type=int, default=8)
    p.add_argument("--algorithms", default="sine,aco", help="comma list of sine,aco")
    p.add_argument("--out-dir", default="bench_out")
    _add_solver_flags(p)

    p = sub.add_parser("ablate", help="sweep the structural deposit weight")
    p.add_argument("instance")
    p.add_argument("--robots", type=_int_list, default=[2], help="e.g. 2,4,8")
    p.add_argument("--weights", type=_float_list,
                   default=list(DEFAULT_ABLATION_WEIGHTS))
    p.add_argument("--repeats", type=int, default=8)
    p.add_argument("--out", default=None, help="write the sweep table as csv")
    _add_solver_flags(p)

    p = sub.add_parser("plot", help="draw the routes of an existing report")
    p.add_argument("report", help="JSON report from solve")
    p.add_argument("instance", help="the instance the report was solved on")
    p.add_argument("--out", default="routes.svg")

    return parser


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    cfg = _config(args, args.mode)
    report = solve(inst, args.robots, cfg, workers=args.workers)
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
    names = [tok.strip() for tok in args.algorithms.split(",") if tok.strip()]
    if not names:
        print("no algorithms given", file=sys.stderr)
        return EXIT_USAGE
    specs = []
    for name in names:
        if name not in ("sine", "aco"):
            print(f"unknown algorithm {name!r} (want sine, aco)", file=sys.stderr)
            return EXIT_USAGE
        specs.append(AlgorithmSpec(name, _config(args, name)))
    plan = ExperimentPlan(
        instances=tuple(paths),
        robot_counts=tuple(args.robots),
        algorithms=tuple(specs),
        repeats=args.repeats,
        seed_base=args.seed,
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
    base = replace(_config(args, "sine"), omega=1.0, seed_with_christofides=False)
    chunks = []
    for m in args.robots:
        sweep = ablation_sweep(
            inst, m, args.weights, repeats=args.repeats,
            seed_base=args.seed, base_config=base, workers=args.workers,
        )
        chunks.append((m, sweep))
    print("weight  robots  metric      mean        std       n")
    for m, sweep in chunks:
        for w in sorted(sweep):
            for metric, c in sweep[w].items():
                print(f"{w:6.1f}  {m:6d}  {metric:10s}  {c.mean:10.4f}  {c.std:9.4f}  {c.n}")
    if args.out:
        lines = []
        for i, (m, sweep) in enumerate(chunks):
            text = format_ablation_csv(sweep, m)
            lines.append(text if i == 0 else text.split("\n", 1)[1])
        Path(args.out).write_text("".join(lines))
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    inst = load_instance(args.instance)
    data = json.loads(Path(args.report).read_text())
    report = SolveReport.from_dict(data)
    if report.instance_name != inst.name:
        print(
            f"warning: report is for {report.instance_name!r}, "
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
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
