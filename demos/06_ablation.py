"""
Sweeping the structural deposit weight
======================================

Weight 0 switches the backbone reinforcement off entirely; under the
neutral base configuration that row coincides with the plain colony.
"""

import pathlib

from sinepath.aco import AcoParams
from sinepath.bench import format_ablation_csv, ablation_sweep
from sinepath.instances import load_instance
from sinepath.solver import SolverConfig

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

inst = load_instance(HERE.parent / "data" / "bench51.tsp")
m = 4

base = SolverConfig.classic(aco=AcoParams(n_ants=12, max_iter=80))
sweep = ablation_sweep(inst, [m], repeats=4, seed_base=7, base_config=base)[m]

print(f"{inst.name}, m={m}, 4 repeats per weight")
print(f"{'weight':>8} {'total':>16} {'max_single':>16}")
for weight, cells in sweep.items():
    total = cells["total"]
    mx = cells["max_single"]
    print(f"{weight:>8} {total.mean:>9.2f} +- {total.std:<5.2f}"
          f"{mx.mean:>9.2f} +- {mx.std:<5.2f}")

best = min(sweep, key=lambda w: sweep[w]["total"].mean)
print(f"\nlowest mean total at weight {best} "
      f"({sweep[best]['total'].mean:.2f})")

path = OUT / "ablation.csv"
path.write_text(format_ablation_csv({m: sweep}))
print(f"wrote {path}")
