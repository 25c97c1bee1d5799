"""
A small benchmark with paired statistics
========================================

Runs the biased solver against the plain colony on two synthetic
instances, then prints the mean tables, signed-rank verdicts, and
mean-rank summary the harness emits as csv.
"""

import pathlib

from sinepath.aco import AcoParams
from sinepath.bench import (
    ExperimentPlan,
    emit_bench_artifacts,
    friedman_blocks,
    run_plan,
    wilcoxon_verdict_rows,
)
from sinepath.instances import random_planar_instance, serialize_tsplib
from sinepath.solver import SolverConfig

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out" / "bench"


def main():
    # run_plan(workers=2) starts worker processes that import this file
    # afresh; the __main__ check below keeps them from re-running the demo.
    OUT.mkdir(parents=True, exist_ok=True)

    # Two seeded instances on disk, like a benchmark directory would hold.
    paths = []
    for n, seed in ((26, 260026), (34, 340034)):
        inst = random_planar_instance(n, seed=seed, clusters=3, name=f"p{n}")
        path = OUT / f"{inst.name}.tsp"
        path.write_text(serialize_tsplib(inst))
        paths.append(path)

    budget = AcoParams(n_ants=12, max_iter=60)
    plan = ExperimentPlan(
        instances=tuple(str(p) for p in paths),
        robot_counts=(2, 4),
        repeats=6,
        algorithms={
            "sine": SolverConfig(aco=budget),
            "aco": SolverConfig.classic(aco=budget),
        },
        seed_base=100,
    )
    results = run_plan(plan, workers=2)

    print("mean +- std, total length:")
    for inst_name in results.instances():
        for m in results.robot_counts():
            row = [
                f"{alg} {results.cells[(inst_name, m, alg, 'total')].mean:7.2f}"
                f" +- {results.cells[(inst_name, m, alg, 'total')].std:5.2f}"
                for alg in results.algorithms()
            ]
            print(f"  {inst_name} m={m}:  " + "   ".join(row))

    print("\nsigned-rank verdicts vs best-mean algorithm:")
    for row in wilcoxon_verdict_rows(results):
        print(f"  {row['instance']} m={row['robots']} {row['metric']:>10} "
              f"{row['algorithm']:>5}: {row['verdict']} (p={row['p_value']})")

    print("\nmean ranks (lower is better):")
    for block, table in friedman_blocks(results).items():
        ranks = ", ".join(f"{a} {r:.2f}" for a, r in table.mean_ranks.items())
        print(f"  {block}: {ranks}")

    written = emit_bench_artifacts(results, OUT)
    print("\nwrote:")
    for path in written:
        print(f"  {path}")


if __name__ == "__main__":
    main()
