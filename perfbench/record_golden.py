"""Record the golden answers in ``golden.json`` from the current code.

    PYTHONPATH=src python3 perfbench/record_golden.py

It solves every pool entry of the two solve workloads and runs the paired
plan for every seed base, then stores the sha256 of each report's
``canonical_json()`` and of each plan artifact.  Re-record only in a change
that deliberately alters answers, as a benchmark change of its own; a change
that claims a speed-up must leave this file alone.
"""

from __future__ import annotations

import json
import shutil
import sys

import worker
import workloads as wl


def main() -> int:
    golden: dict = {}
    jobs = [("bench51-m4", wl.SolveJob("bench51-m4", None, wl.BENCH51_SEEDS))]
    jobs += [("rand2000-m8", wl.SolveJob("rand2000-m8", i, [m])) for i, m in wl.RAND2000_POOL]
    for workload, job in jobs:
        for master in job.master_seeds:
            report = worker.solver.solve(job.instance, job.robots, job.config(master))
            golden.setdefault(workload, {})[job.golden_key(master)] = wl.report_hash(report)
            print(workload, job.golden_key(master), report.objectives.j_value,
                  wl.iters_to_1pct(report.convergence), flush=True)
    worker.OUT.mkdir(exist_ok=True)
    tmp = worker.plan_tmp()
    try:
        for base in wl.PLAN_SEED_BASES:
            wall, _cpu, _rss, code, hashes = worker.run_plan_once(base, tmp, tmp / f"out{base}")
            if code != 0 or None in hashes.values():
                print(f"plan with seed base {base} failed (exit {code})", file=sys.stderr)
                return 1
            golden.setdefault("plan-paired", {})[str(base)] = hashes
            print("plan-paired", base, f"{wall:.2f}s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wl.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
