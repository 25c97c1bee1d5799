"""Minimum-spanning-tree backbone and shortcut seed tours.

Every function here takes a square distance block and works on its local ids
0..k-1; only the solver knows which node ids a block stands for.  The
backbone is the MST of a block.  Edges are ranked by (weight, u, v), a strict
total order, so the MST is unique; dense O(k^2) Prim finds it (Prim, Bell
System Tech. J. 1957) and returns the tree Kruskal would.  Its steps run as
one compiled call (``roulette.c``'s ``sinepath_prim``) where the colony's
compiled calls load, else in the numpy loop that is its reference, with the
same tree and weight bits.  The function keeps the name ``kruskal_mst`` for
the public API and for the benchmark tracer, whose span is
``backbone.kruskal``.  ``restrict_edges`` cuts the global MST down to one
subset's edges, in that subset's local ids.

A seed tour comes from the classic Christofides-style construction: pair the
odd-degree MST vertices with a perfect matching, walk an Euler tour of the
combined multigraph, then shortcut repeated vertices to their first
occurrence.  In metric instances the seed length is sandwiched between the
MST cost and MST + matching cost.  A one-node block takes the same path: no
edge, no odd vertex, and a walk and seed of the node alone.

Everything here is deterministic: edge candidates are ranked by
(weight, u, v) with canonical u < v endpoints, and the Euler walk consumes
sorted adjacency lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .aco import _address, _step_kernel
from .objective import Tour, tour_length


class Edge(NamedTuple):
    u: int
    v: int
    weight: float


@dataclass(frozen=True)
class Backbone:
    """MST over a block's local ids: edge list, total cost, adjacency view."""

    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]
    total_cost: float

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.nodes}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def _sorted_pair_order(d: np.ndarray, nodes: np.ndarray):
    """All pairs of ``nodes`` as index arrays into it, ranked by (weight, u, v)."""
    iu, ju = np.triu_indices(len(nodes), k=1)
    w = d[nodes[iu], nodes[ju]]
    # triu_indices lists pairs in (u, v) order and nodes are ascending, so a
    # stable sort on weight alone breaks ties by canonical (u, v).
    order = np.argsort(w, kind="stable")
    return iu[order], ju[order], w[order]


def kruskal_mst(d: np.ndarray) -> Backbone:
    """MST over all nodes of ``d`` by dense Prim, edges ranked by (weight, u, v).

    Grows the tree from node 0.  Each weight is read from the upper
    triangle, ``d[min, max]``.  ``edges`` lists the tree in (weight, u, v)
    order and ``total_cost`` sums them in that order.  A matrix that is not
    square, an empty one and one with non-finite entries are refused.
    """
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix of shape {d.shape} is not square")
    k = len(d)
    if k == 0:
        raise ValueError("the distance matrix must be non-empty")
    # min and max carry a NaN or an inf through without an n^2 temporary.
    if not (np.isfinite(d.min()) and np.isfinite(d.max())):
        raise ValueError("non-finite weights in the MST block")

    ends = np.empty(k - 1, dtype=np.int64)
    picks = np.empty(k - 1, dtype=np.int64)
    weights = np.empty(k - 1)
    lib = _step_kernel()
    if lib is None or k == 1:
        _numpy_prim(d, ends, picks, weights)
    else:
        _c_prim(lib, d, ends, picks, weights)
    lo = np.minimum(ends, picks)
    hi = np.maximum(ends, picks)
    order = np.lexsort((hi, lo, weights))
    ws = weights[order].tolist()
    total = 0.0
    for w in ws:
        total += w
    edges = map(Edge, lo[order].tolist(), hi[order].tolist(), ws)
    return Backbone(tuple(range(k)), tuple(edges), total)


def _numpy_prim(d, ends, picks, weights) -> None:
    """Prim's k - 1 steps over the square ``d`` in numpy, the reference of
    ``_c_prim``: step s joins picks[s] to its tree end ends[s] over an edge
    of weight weights[s]."""
    # best[j] is the lightest edge from the tree to j and parent[j] its tree
    # end; a tie on weight goes to the smaller (u, v), which for a fixed j is
    # the smaller tree end.  Tree vertices hold inf, so they never win a pick.
    k = len(d)
    best = np.full(k, np.inf)
    parent = np.zeros(k, dtype=np.int64)
    free = np.ones(k, dtype=bool)
    row = np.empty(k)
    v = 0
    for step in range(k - 1):
        free[v] = False
        row[:v] = d[:v, v]
        row[v:] = d[v, v:]
        closer = row < best
        closer |= (row == best) & (v < parent)
        closer &= free
        np.copyto(best, row, where=closer)
        np.copyto(parent, v, where=closer)
        v = int(best.argmin())
        tied = np.flatnonzero(best == best[v])
        if len(tied) > 1:
            lo = np.minimum(parent[tied], tied)
            hi = np.maximum(parent[tied], tied)
            v = int(tied[np.lexsort((hi, lo))[0]])
        ends[step], picks[step], weights[step] = parent[v], v, best[v]
        best[v] = np.inf


def _c_prim(lib, d, ends, picks, weights) -> None:
    """``_numpy_prim`` as one call of the compiled ``lib``, for k of at
    least 2.  ``d`` is read in place where it is aligned, C-contiguous
    float64, as ``build_distance_matrix`` returns it, else from such a copy."""
    d = np.require(d, np.float64, ("C", "A"))
    if lib.sinepath_prim(len(d), d.ctypes.data, _address(ends), _address(picks),
                         _address(weights)) < 0:
        raise MemoryError(f"no memory for the scratch of a Prim over {len(d)} nodes")


def restrict_edges(backbone: Backbone, subset) -> frozenset[tuple[int, int]]:
    """Backbone edges with both ends in ``subset``, each end given as its
    position in the ascending subset."""
    local = {v: i for i, v in enumerate(sorted(set(map(int, subset))))}
    return frozenset(
        (local[e.u], local[e.v]) for e in backbone.edges if e.u in local and e.v in local
    )


def odd_degree_vertices(backbone: Backbone) -> tuple[int, ...]:
    degree: dict[int, int] = {v: 0 for v in backbone.nodes}
    for e in backbone.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    return tuple(v for v in backbone.nodes if degree[v] % 2 == 1)


def greedy_min_matching(d: np.ndarray, odd_vertices) -> tuple[Edge, ...]:
    """Shortest-edge-first perfect matching on an even vertex set."""
    # Sorted distinct ids, as np.unique gives them; np.unique would import numpy.ma.
    verts = np.array(sorted(set(map(int, odd_vertices))), dtype=np.int64)
    if len(verts) % 2 != 0:
        raise ValueError("matching needs an even number of vertices")
    iu, ju, w = _sorted_pair_order(d, verts)
    matched = [False] * len(verts)
    out: list[Edge] = []
    for a, b, weight in zip(iu, ju, w):
        if matched[a] or matched[b]:
            continue
        matched[a] = matched[b] = True
        out.append(Edge(int(verts[a]), int(verts[b]), float(weight)))
        if len(out) * 2 == len(verts):
            break
    return tuple(out)


def euler_tour(backbone: Backbone, matching) -> list[int]:
    """Closed Eulerian walk over the MST-plus-matching multigraph, from the
    backbone's first node; a one-node backbone walks ``[node]``.

    Hierholzer's algorithm over sorted adjacency lists; parallel edges are
    kept apart by edge id.
    """
    edges = list(backbone.edges) + list(matching)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in backbone.nodes}
    for eid, e in enumerate(edges):
        adj.setdefault(e.u, []).append((e.v, eid))
        adj.setdefault(e.v, []).append((e.u, eid))
    for v in adj:
        adj[v].sort()
        if len(adj[v]) % 2 != 0:
            raise RuntimeError(f"vertex {v} has odd multigraph degree")

    used = [False] * len(edges)
    pointer = {v: 0 for v in adj}
    stack = [backbone.nodes[0]]
    walk_rev: list[int] = []
    while stack:
        v = stack[-1]
        lst = adj[v]
        i = pointer[v]
        while i < len(lst) and used[lst[i][1]]:
            i += 1
        pointer[v] = i
        if i == len(lst):
            walk_rev.append(stack.pop())
        else:
            nbr, eid = lst[i]
            used[eid] = True
            stack.append(nbr)
    if not all(used):
        raise RuntimeError("multigraph is disconnected; Euler walk incomplete")
    return walk_rev[::-1]


def shortcut(walk, d: np.ndarray) -> Tour:
    """Keep first occurrences of the walk's vertices; close up the tour."""
    seen = set()
    order = []
    for v in walk:
        v = int(v)
        if v not in seen:
            seen.add(v)
            order.append(v)
    return Tour(tuple(order), tour_length(order, d))


def christofides_seed(d: np.ndarray) -> Tour:
    """MST + greedy odd-vertex matching + Euler walk + shortcut over all nodes of ``d``."""
    mst = kruskal_mst(d)
    matching = greedy_min_matching(d, odd_degree_vertices(mst))
    return shortcut(euler_tour(mst, matching), d)


def dfs_preorder_seed(d: np.ndarray) -> Tour:
    """Alternative seed: depth-first preorder of the MST of ``d`` from node 0.

    Skips the matching/Euler stage; kept for ablating the seed construction.
    """
    adj = kruskal_mst(d).adjacency
    seen = set()
    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        order.append(v)
        for nbr in reversed(adj[v]):
            if nbr not in seen:
                stack.append(nbr)
    return Tour(tuple(order), tour_length(order, d))
