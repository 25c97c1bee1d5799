"""sinepath benchmark: one command, three workloads, answers checked.

    python3 perfbench/run.py --workload bench51-m4 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it times set-up in
fresh processes, then runs the workload's closed loop in one fresh worker
process with tracing off and prints every end-to-end metric.  With
``--trace 1`` its units alternate untraced and traced, and it prints the
per-layer metrics, the tracing overhead and the import breakdown.  Every
answer is checked against ``golden.json``.  The last line of standard output
is one JSON object; the exit code is 1 when any check failed and 2 when the
checkout lacks the program.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/sinepath/__init__.py", "src/sinepath/cli.py", "data/bench51.tsp", "data/geo50.csv")
SETUP_PROBES = 3
WORKER_TIMEOUT = 150

COMPUTED = ("aco.construct_cells", "solver.rng_draws", "aco.deposit_edges",
            "instances.distance_bytes", "backbone.kruskal_pairs")


def _env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(workload: str, seed: int) -> list[float]:
    """Launch-to-return seconds of fresh set-up processes, after a warm-up
    that imports everything and so fills the bytecode and file caches."""
    _worker("setup", "--workload", "plan-paired", "--seed", str(seed))
    args = ("setup", "--workload", workload, "--seed", str(seed))
    times, calib = [], speed.Calibrator(workload)
    for _ in range(SETUP_PROBES):
        launched = time.time()
        returned = _worker(*args)["returned_at"]
        times.append((returned - launched) * calib.factor())
    return times


def import_breakdown() -> list[tuple[float, str]]:
    """Cumulative seconds of every module under ``import sinepath.cli``, costliest first."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sinepath.cli"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            rows.append((int(parts[1]) / 1e6, parts[2].strip()))
    return sorted(rows, reverse=True)


def machine_note(seed: int) -> dict:
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[name] = int(subprocess.run(["getconf", name], capture_output=True, text=True,
                                              timeout=10).stdout)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            caches[name] = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions, "cache_bytes": caches,
            "cpu": platform.processor() or platform.machine(), "workload_seed": seed}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _scaled(units: list[dict], key: str) -> list[float]:
    """Unit times at the reference machine speed (see speed.py)."""
    return [u[key] * u["speed"] for u in units]


def end_to_end(run: dict, setup: list[float]) -> dict:
    walls, cpus = _scaled(run["units"], "wall"), _scaled(run["units"], "cpu")
    per_solve = run["solves_per_unit"]
    return {
        "setup_s": _median(setup),
        "solve_s": _median(walls) / per_solve,
        "solve_cpu_s": _median(cpus) / per_solve,
        "plan_s": _median(walls),
        "plan_cpu_s": _median(cpus),
        "peak_rss_mb": run["rss_mb"],
        **run["answers"],
    }


def _tally(run: dict) -> tuple[int, int, list[str]]:
    """Operations attempted and failed: units, answer re-checks and, in a
    traced run, the cross-check of computed against observed counts."""
    attempted = len(run["units"]) + run["checks"]
    failed = sum(not u["ok"] for u in run["units"]) + run["checks_failed"]
    problems = list(run["failures"])
    if "trace" in run:
        attempted += 1
        failed += bool(run["trace"]["mismatches"])
        problems += [f"count cross-check: {m}" for m in run["trace"]["mismatches"]]
    return attempted, failed, problems


def main() -> int:
    # BENCHMARK.json declares the workloads and the metric names and units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a sinepath checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    w = ("--workload", args.workload, "--seed", str(args.seed))
    print("machine " + json.dumps(machine_note(args.seed)))
    try:
        if args.trace == 0:
            setup = setup_times(args.workload, args.seed)
            run = _worker("measure", *w, "--seconds", str(args.seconds))
            attempted, failed, problems = _tally(run)
            values = end_to_end(run, setup)
            raw = _median([u["wall"] for u in run["units"]])
            print(f"units {len(run['units'])}  solves/unit {run['solves_per_unit']}  "
                  f"set-up probes {len(setup)}  unscaled median unit wall {raw:.4f} s  "
                  f"median speed factor {_median([u['speed'] for u in run['units']]):.4f}")
        else:
            run = _worker("measure", *w, "--seconds", str(args.seconds), "--traced")
            attempted, failed, problems = _tally(run)
            layers = run["trace"]["layers"]
            layers["solver.iters_to_1pct"] = run["iters_to_1pct"]
            walls = {flag: _scaled([u for u in run["units"] if u["traced"] == flag], "wall")
                     for flag in (False, True)}
            layers["trace.overhead_s"] = _median(walls[True]) - _median(walls[False])
            top = import_breakdown()
            layers["cli.import_scipy_stats_s"] = next((s for s, n in top if n == "scipy.stats"), 0.0)
            values = layers
            for seconds, name in top[:10]:
                print(f"import  {seconds:8.4f} s  {name}")
            print(f"units {len(walls[False])} untraced, {len(walls[True])} traced; traced solve span "
                  f"{layers['solver.solve_s']:.4f} s per unit = children "
                  f"{run['trace']['solve_children_s']:.4f} s + solver.self_s {layers['solver.self_s']:.4f} s")
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if set(values) != set(units):
        print(f"perfbench: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed + 1, "metrics": {}}))
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for problem in problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        label = "  (computed)" if name in COMPUTED else ""
        print(f"{name:28s} {m['value']:>16.6f} {m['unit']}{label}")
    print(f"{'failed_share':28s} {failed / attempted:>16.6f} share")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
