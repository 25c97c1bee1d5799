"""
Splitting work between robots
=============================

"""

import pathlib

import numpy as np

from sinepath.instances import load_instance
from sinepath.partition import partition_angle, partition_by_depots, partition_kmeans_like

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
inst = load_instance(DATA / "bench51.tsp")

# Angular sweep around the centroid: contiguous sectors, sizes within 1.
for m in (2, 4, 8):
    part = partition_angle(inst, m)
    sizes = [len(s) for s in part.subsets]
    print(f"angle, m={m}: sizes {sizes}")

# The centroid-seeded assignment chases cluster structure instead of
# sector boundaries; the rebalance step restores near-equal sizes.
part = partition_kmeans_like(inst, 4, seed=0)
print(f"kmeans, m=4: sizes {[len(s) for s in part.subsets]}")

centroid = inst.coords.mean(axis=0)
for k, sub in enumerate(part.subsets):
    spread = np.linalg.norm(inst.coords[list(sub)] - centroid, axis=1).mean()
    print(f"  robot {k}: {len(sub)} nodes, mean centroid distance {spread:.1f}")

# Depots pin both the split and where each tour must start.
depots = ((0.0, 0.0), (100.0, 100.0))
dpart, starts = partition_by_depots(inst, depots)
print(f"depots at corners: sizes {[len(s) for s in dpart.subsets]}, "
      f"start nodes {starts}")
