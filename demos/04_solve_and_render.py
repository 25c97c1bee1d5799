"""
End-to-end solve with an SVG rendering
======================================

"""

import pathlib

from sinepath.aco import AcoParams
from sinepath.cli import format_svg_routes
from sinepath.instances import load_instance
from sinepath.solver import SolverConfig, solve

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

inst = load_instance(HERE.parent / "data" / "bench51.tsp")

# A trimmed budget keeps the demo quick; drop the aco= override to run the
# full defaults (50 ants, 1000 iterations).
cfg = SolverConfig(aco=AcoParams(n_ants=20, max_iter=120), master_seed=3)
report = solve(inst, 4, cfg)

obj = report.objectives
print(f"{inst.name}, 4 robots, seed {cfg.master_seed}")
print(f"  total length    {obj.total:.2f}")
print(f"  longest tour    {obj.max_single:.2f}")
print(f"  scalarized J    {obj.j_value:.2f}")
print(f"  wall time       {report.wall_time:.2f}s")

print("\nper-robot tours:")
for k, tour in enumerate(report.tours):
    print(f"  robot {k}: {len(tour.order)} nodes, length {tour.length:.2f}, "
          f"starts at {tour.order[0]}")

# Convergence trace is monotone; show the first few improvements.
steps = [report.convergence[0]]
for value in report.convergence[1:]:
    if value < steps[-1]:
        steps.append(value)
print(f"\nincumbent J improved {len(steps) - 1} times: "
      + " -> ".join(f"{v:.1f}" for v in steps[:6])
      + (" ..." if len(steps) > 6 else ""))

svg_path = OUT / "bench51_routes.svg"
svg_path.write_text(format_svg_routes([t.order for t in report.tours], inst))
print(f"\nwrote {svg_path}")

# Reports serialize to JSON; `sinepath plot` draws a saved report's tours again.
json_path = OUT / "bench51_report.json"
json_path.write_text(report.canonical_json())
print(f"wrote {json_path}")
