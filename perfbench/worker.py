"""One fresh benchmark process.  ``run.py`` starts it; it is not run by hand.

Phases:
  setup   --workload W --seed S          one set-up; prints the time it returned
  measure --workload W --seed S --seconds T [--traced]
                                         closed loop of units for T seconds,
                                         answer checks, one JSON line out.
                                         With --traced, units alternate
                                         untraced and traced.
  cli     --spans PATH -- ARGV...        ``sinepath`` CLI under the tracer

The timed ``import sinepath.cli`` below is the first import of the package in
this process, so ``IMPORT_S`` is a fresh-process import time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_t0 = time.perf_counter()
import sinepath.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import sinepath.solver as solver  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = wl.ROOT
OUT = ROOT / ".perfbench_out"


def _setup(workload: str, seed: int) -> dict:
    if workload in wl.SOLVE_WORKLOADS:
        job = wl.SolveJob.from_seed(workload, seed)
        solver.solve(job.instance, job.robots, job.config(job.master_seeds[0], max_iter=1))
    else:
        for name in wl.PLAN_INSTANCES:
            sinepath.cli.load_instance(ROOT / "data" / name)
    return {"returned_at": time.time()}


def _unit(wall: float, cpu: float, ok: bool, traced: bool, speed_factor: float = 1.0) -> dict:
    return {"wall": wall, "cpu": cpu, "ok": ok, "traced": traced, "speed": speed_factor}


# --------------------------------------------------------------------------
# Solve workloads: one unit is one solve() call in this process.

def _measure_solves(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    job = wl.SolveJob.from_seed(workload, seed)
    tr = tracing.Tracer() if traced else None
    if tr is not None:
        restore = tracing.install(tr)
        wl.SolveJob.from_seed(workload, seed)  # one traced instance load
        restore()

    golden = wl.load_golden()[workload]
    units, reports, failures = [], {}, []
    calib = speed.Calibrator(workload)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < max(len(job.master_seeds), 2 if traced else 1) or time.perf_counter() < deadline:
        master = job.master_seeds[i % len(job.master_seeds)]
        on = tr is not None and i % 2 == 1
        i += 1
        restore = tracing.install(tr) if on else None
        c0, w0 = time.process_time(), time.perf_counter()
        report = digest = None
        try:
            report = solver.solve(job.instance, job.robots, job.config(master))
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            digest = wl.report_hash(report)
        except Exception as exc:  # counted as a failed unit; the loop goes on
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            failures.append(f"seed {master}: {type(exc).__name__}: {exc}")
        finally:
            if restore is not None:
                restore()
        ok = digest is not None and digest == golden.get(job.golden_key(master))
        if digest is not None and not ok:
            failures.append(f"seed {master}: canonical_json sha256 {digest} differs from the golden")
        units.append(_unit(wall, cpu, ok, on, calib.factor()))
        if report is not None:
            reports.setdefault(master, report)
        if len(units) == 1:
            # Peak of a fresh process that has run one solve.  Later solves
            # reuse freed heap in a timing-dependent way, so are left out.
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks_failed = 0
    for master, report in sorted(reports.items()):
        problems = wl.check_tours(report, job.instance)
        failures += [f"seed {master}: {p}" for p in problems]
        checks_failed += bool(problems)
    got = list(reports.values())
    result = {
        "units": units,
        "solves_per_unit": 1,
        "checks": len(reports),
        "checks_failed": checks_failed,
        "rss_mb": rss,
        "failures": failures,
        "answers": {
            "j_value": statistics.fmean(r.objectives.j_value for r in got),
            "max_single": statistics.fmean(r.objectives.max_single for r in got),
        } if got else {},
        "iters_to_1pct": statistics.fmean(wl.iters_to_1pct(r.convergence) for r in got) if got else 0.0,
    }
    if tr is not None:
        solves = sum(u["traced"] for u in units)
        p = job.params
        per_solve = wl.computed_counts(job.instance.dimension, job.robots, p.n_ants, p.max_iter)
        computed = {"solver.solves": solves, **{k: v * solves for k, v in per_solve.items()}}
        result["trace"] = _trace_result(tr.spans, tr.counts, tr.maxima, [IMPORT_S], computed, solves)
        tr.dump(OUT / f"spans-{workload}-seed{seed}.json")
    return result


# --------------------------------------------------------------------------
# plan-paired: one unit is one `sinepath bench` subprocess.

def _run_child(argv: list[str], stderr_path: Path) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds (user + sys), peak RSS in MB and exit code."""
    w0 = time.perf_counter()
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - w0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def run_plan_once(base: int, tmp: Path, out: Path, spans: Path | None = None):
    """One ``sinepath bench`` subprocess over the instance copies in ``tmp``.

    Returns wall seconds, CPU seconds, peak RSS in MB, the exit code and the
    sha256 of each artifact (None when missing).  With ``spans`` the CLI runs
    under the tracer and dumps its spans there.
    """
    if spans is None:
        argv = [sys.executable, "-m", "sinepath.cli"]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "cli", "--spans", str(spans), "--"]
    argv += wl.plan_argv(str(tmp / "inst" / "*"), base, str(out))
    wall, cpu, rss, code = _run_child(argv, tmp / "stderr.txt")
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              if (out / name).is_file() else None for name in wl.PLAN_ARTIFACTS}
    return wall, cpu, rss, code, hashes


def plan_tmp() -> Path:
    """A fresh temp dir in the checkout holding copies of the plan's instances."""
    tmp = OUT / f"tmp-{os.getpid()}"
    (tmp / "inst").mkdir(parents=True)
    for name in wl.PLAN_INSTANCES:
        shutil.copyfile(ROOT / "data" / name, tmp / "inst" / name)
    return tmp


def _plan_answers(results: dict) -> tuple[dict, dict]:
    """Mean J (lambda 0.5) and mean longest tour over every run of the plan,
    and the first run of each cell keyed by (instance, robots, algorithm)."""
    runs = {(c["instance"], c["robots"], c["algorithm"], c["metric"]): c["runs"] for c in results["cells"]}
    js, maxes, first = [], [], {}
    for (inst, m, alg, metric), totals in runs.items():
        if metric != "total":
            continue
        longest = runs[(inst, m, alg, "max_single")]
        js += [wl.PLAN_LAMBDA * t + (1 - wl.PLAN_LAMBDA) * x for t, x in zip(totals, longest)]
        maxes += longest
        first[(inst, m, alg)] = (totals[0], longest[0])
    return {"j_value": statistics.fmean(js), "max_single": statistics.fmean(maxes)}, first


def _measure_plan(seed: int, seconds: float, traced: bool) -> dict:
    base = wl.plan_seed_base(seed)
    golden = wl.load_golden()["plan-paired"][str(base)]
    units, failures, rss, dumps, results = [], [], 0.0, [], None
    tmp = plan_tmp()
    calib = speed.Calibrator("plan-paired")
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while i < (2 if traced else 1) or time.perf_counter() < deadline:
            on = traced and i % 2 == 1
            out, spans = tmp / f"out{i}", (tmp / f"spans{i}.json" if on else None)
            i += 1
            wall, cpu, child_rss, code, hashes = run_plan_once(base, tmp, out, spans)
            rss = max(rss, child_rss)
            ok = code == 0 and hashes == golden
            if code != 0:
                failures.append(f"sinepath bench exited {code}: {(tmp / 'stderr.txt').read_text()[-500:]}")
            failures += [f"{name}: sha256 {digest} differs from the golden"
                         for name, digest in hashes.items() if digest != golden[name]]
            if ok and results is None:
                results = json.loads((out / "results.json").read_text())
            if spans is not None and spans.is_file():
                dumps.append(json.loads(spans.read_text()))
            units.append(_unit(wall, cpu, ok, on, calib.factor()))
            shutil.rmtree(out, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    answers, checks, checks_failed, iters = {}, 0, 0, []
    if results is not None:
        answers, first = _plan_answers(results)
        # Re-solve the first paired run of every cell in this process: the
        # plan must report what a standalone solve reports, and the tours
        # must pass the independent check.
        for name in wl.PLAN_INSTANCES:
            inst = sinepath.cli.load_instance(ROOT / "data" / name)
            for m in wl.PLAN_ROBOTS:
                for alg in wl.PLAN_ALGORITHMS:
                    checks += 1
                    report = solver.solve(inst, m, wl.plan_config(alg, base))
                    problems = wl.check_tours(report, inst)
                    o = report.objectives
                    if first.get((inst.name, m, alg)) != (o.total, o.max_single):
                        problems.append("standalone solve differs from the plan's first run")
                    failures += [f"{inst.name} m{m} {alg}: {p}" for p in problems]
                    checks_failed += bool(problems)
                    iters.append(wl.iters_to_1pct(report.convergence))

    result = {
        "units": units,
        "solves_per_unit": wl.plan_solves(),
        "checks": checks,
        "checks_failed": checks_failed,
        "rss_mb": rss,
        "failures": failures,
        "answers": answers,
        "iters_to_1pct": statistics.fmean(iters) if iters else 0.0,
    }
    if traced:
        spans, counts, maxima = [], {}, {}
        for k, dump in enumerate(dumps):
            # Span ids restart in every subprocess; offset them per plan.
            off = k * 10**9
            spans += [(s + off, p + off if p else 0, v + off if v else 0, n, a, b)
                      for s, p, v, n, a, b in dump["spans"]]
            wl.add_counts(counts, dump["counts"])
            for key, value in dump["maxima"].items():
                maxima[key] = max(maxima.get(key, value), value)
        computed = {"solver.solves": wl.plan_solves() * len(dumps),
                    "bench.cells": wl.plan_solves() // wl.PLAN_REPEATS * len(dumps)}
        for name in wl.PLAN_INSTANCES:
            n = sinepath.cli.load_instance(ROOT / "data" / name).dimension
            for m in wl.PLAN_ROBOTS:
                per_solve = wl.computed_counts(n, m, wl.AcoParams().n_ants, wl.PLAN_ITERS)
                solves = len(wl.PLAN_ALGORITHMS) * wl.PLAN_REPEATS * len(dumps)
                wl.add_counts(computed, {k: v * solves for k, v in per_solve.items()})
        result["trace"] = _trace_result(spans, counts, maxima, [d["import_s"] for d in dumps],
                                        computed, len(dumps))
        with open(OUT / f"spans-plan-paired-seed{seed}.json", "w") as fh:
            json.dump({"spans": spans, "counts": counts, "maxima": maxima}, fh)
    return result


# --------------------------------------------------------------------------
# Per-layer aggregation of the traced units.

def _trace_result(spans, counts, maxima, import_times, computed, units) -> dict:
    """Per-unit layer figures; computed counts are cross-checked against the
    counts the wrappers observed."""
    seconds, calls, solve_children, solve_self = tracing.span_totals(spans)
    mismatches = [f"{key}: computed {value}, observed {counts.get(key, 0)}"
                  for key, value in sorted(computed.items()) if counts.get(key, 0) != value]

    def per(x):
        return x / units if units else 0.0

    def s(name):
        return per(seconds.get(name, 0.0))

    cells = computed.get("aco.construct_cells", 0)
    loads = calls.get("instances.load", 0)
    iterations = counts.get("solver.iterations", 0)
    layers = {
        "aco.construct_s": s("aco.construct"),
        "aco.construct_calls": per(counts.get("aco.construct_calls", 0)),
        "aco.construct_cells": per(cells),
        "aco.construct_ns_per_cell": seconds.get("aco.construct", 0.0) / cells * 1e9 if cells else 0.0,
        "aco.local_tau_s": s("aco.local_tau"),
        "aco.update_s": s("aco.update"),
        "aco.update_calls": per(counts.get("aco.update_calls", 0)),
        "aco.deposit_edges": per(computed.get("aco.deposit_edges", 0)),
        "aco.colony_init_s": s("aco.colony_init"),
        "aco.colony_inits": per(counts.get("aco.colony_inits", 0)),
        "solver.solve_s": s(tracing.SOLVE_SPAN),
        "solver.self_s": per(solve_self),
        "solver.rng_draws": per(computed.get("solver.rng_draws", 0)),
        "solver.incumbent_s": s("solver.incumbent"),
        "solver.canonical_json_s": s("solver.canonical_json"),
        "solver.improve_ratio": counts.get("solver.improvements", 0) / iterations if iterations else 0.0,
        "objective.evaluate_s": s("objective.evaluate"),
        "instances.load_s": seconds.get("instances.load", 0.0) / loads if loads else 0.0,
        "instances.distance_s": s("instances.distance"),
        "instances.distance_bytes": per(computed.get("instances.distance_bytes", 0)),
        "backbone.kruskal_s": s("backbone.kruskal"),
        "backbone.kruskal_pairs": per(computed.get("backbone.kruskal_pairs", 0)),
        "backbone.seed_s": s("backbone.seed"),
        "backbone.restrict_s": s("backbone.restrict"),
        "partition.split_s": s("partition.split"),
        "partition.size_spread": maxima.get("partition.size_spread", 0.0),
        "cli.import_s": statistics.fmean(import_times) if import_times else 0.0,
        "cli.main_s": s("cli.main"),
        "bench.run_plan_s": s("bench.run_plan"),
        "bench.cells": per(counts.get("bench.cells", 0)),
        "bench.cells_failed": per(counts.get("bench.cells_failed", 0)),
        "bench.emit_s": s("bench.emit"),
        "bench.artifact_bytes": per(counts.get("bench.artifact_bytes", 0)),
        "stats.wilcoxon_s": s("stats.wilcoxon"),
        "stats.wilcoxon_calls": per(counts.get("stats.wilcoxon_calls", 0)),
        "stats.friedman_s": s("stats.friedman"),
    }
    return {"layers": layers, "mismatches": mismatches, "solve_children_s": per(solve_children)}


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    tr = tracing.Tracer()
    tracing.install(tr)
    code = sinepath.cli.main(argv)
    tr.dump(spans_path, {"import_s": IMPORT_S})
    return code


def main() -> int:
    if not Path(sinepath.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sinepath imported from {sinepath.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "measure", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    args, rest = parser.parse_known_args()
    if args.phase == "cli":
        return _traced_cli(args.spans, rest[1:] if rest[:1] == ["--"] else rest)
    OUT.mkdir(exist_ok=True)
    if args.phase == "setup":
        result = _setup(args.workload, args.seed)
    elif args.workload == "plan-paired":
        result = _measure_plan(args.seed, args.seconds, args.traced)
    else:
        result = _measure_solves(args.workload, args.seed, args.seconds, args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
