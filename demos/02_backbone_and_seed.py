"""
From spanning tree to seed tour
===============================

The seed construction walks the classic chain: minimum spanning tree,
odd-degree matching, Euler tour, shortcut.  Each stage bounds the next,
so the printout below is a little proof sketch.
"""

from sinepath.backbone import (
    christofides_seed,
    dfs_preorder_seed,
    greedy_min_matching,
    kruskal_mst,
    odd_degree_vertices,
)
from sinepath.instances import build_distance_matrix, random_planar_instance
from sinepath.objective import tour_length

inst = random_planar_instance(24, seed=42, clusters=2)
d = build_distance_matrix(inst)

mst = kruskal_mst(d)
print(f"MST: {len(mst.edges)} edges, cost {mst.total_cost:.2f}")

odd = odd_degree_vertices(mst)
matching = greedy_min_matching(d, odd)
matching_cost = sum(e.weight for e in matching)
print(f"odd vertices: {len(odd)}, matching cost {matching_cost:.2f}")

seed = christofides_seed(d)
print(f"seed tour: length {seed.length:.2f}")
print(f"  lower bound (MST)            {mst.total_cost:.2f}")
print(f"  upper bound (MST + matching) {mst.total_cost + matching_cost:.2f}")
assert mst.total_cost <= seed.length <= mst.total_cost + matching_cost + 1e-9

# The tree-walk alternative skips the matching and is usually longer.
walk = dfs_preorder_seed(d)
print(f"preorder-walk tour: length {walk.length:.2f}")

# Both are honest closed tours over the same nodes.
for built in (seed, walk):
    assert sorted(built.order) == list(range(inst.dimension))
    assert abs(tour_length(built.order, d) - built.length) < 1e-9
