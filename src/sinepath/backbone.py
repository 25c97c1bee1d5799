"""Minimum-spanning-tree backbone and shortcut seed tours.

The backbone is the MST of a node subset.  Edges are ranked by (weight, u, v),
a strict total order, so the MST is unique; dense O(k^2) Prim finds it
(Prim, Bell System Tech. J. 1957) and returns the tree Kruskal would.  The
function keeps the name ``kruskal_mst`` for the public API and for the
benchmark tracer, whose span is ``backbone.kruskal``.

A seed tour comes from the classic Christofides-style construction: pair the
odd-degree MST vertices with a perfect matching, walk an Euler tour of the
combined multigraph, then shortcut repeated vertices to their first
occurrence.  In metric instances the seed length is sandwiched between the
MST cost and MST + matching cost.

Everything here is deterministic: edge candidates are ranked by
(weight, u, v) with canonical u < v endpoints, and the Euler walk consumes
sorted adjacency lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .objective import tour_length


class Edge(NamedTuple):
    u: int
    v: int
    weight: float


def make_edge(u: int, v: int, weight: float) -> Edge:
    """Canonical edge with u < v."""
    if u == v:
        raise ValueError("self-loops are not edges")
    if u > v:
        u, v = v, u
    return Edge(int(u), int(v), float(weight))


@dataclass(frozen=True)
class Backbone:
    """MST over a node subset: edge list, total cost, adjacency view."""

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

    def edge_keys(self) -> frozenset[tuple[int, int]]:
        return frozenset((e.u, e.v) for e in self.edges)


@dataclass(frozen=True)
class SeedTour:
    """Closed tour produced by a backbone shortcut construction."""

    order: tuple[int, ...]
    length: float


def _sorted_pair_order(d: np.ndarray, nodes: np.ndarray):
    """All node pairs as local index arrays, ranked by (weight, u, v)."""
    iu, ju = np.triu_indices(len(nodes), k=1)
    w = d[nodes[iu], nodes[ju]]
    # triu_indices lists pairs in (u, v) order and nodes are ascending, so a
    # stable sort on weight alone breaks ties by canonical global (u, v).
    order = np.argsort(w, kind="stable")
    return iu[order], ju[order], w[order]


def kruskal_mst(d: np.ndarray, subset) -> Backbone:
    """MST over ``subset`` by dense Prim, edges ranked by (weight, u, v).

    Grows the tree from the lowest node.  Each weight is read from the upper
    triangle, ``d[min, max]``.  ``edges`` lists the tree in (weight, u, v)
    order and ``total_cost`` sums them in that order.  A block with
    non-finite entries is refused.
    """
    nodes = np.unique(np.asarray(list(subset), dtype=np.int64))
    k = len(nodes)
    if k == 0:
        raise ValueError("subset must be non-empty")
    if k == 1:
        return Backbone((int(nodes[0]),), (), 0.0)
    if k == len(d) and nodes[0] == 0 and nodes[-1] == k - 1:
        block = d
    else:
        block = d[np.ix_(nodes, nodes)]
    # min and max carry a NaN or an inf through without an n^2 temporary.
    if not (np.isfinite(block.min()) and np.isfinite(block.max())):
        raise ValueError("non-finite weights in the MST block")

    # Local order is global order because nodes are sorted.  best[j] is the
    # lightest edge from the tree to j and parent[j] its tree end; a tie on
    # weight goes to the smaller (u, v), which for a fixed j is the smaller
    # tree end.  Tree vertices hold inf, so they never win a pick.
    best = np.full(k, np.inf)
    parent = np.zeros(k, dtype=np.int64)
    free = np.ones(k, dtype=bool)
    row = np.empty(k)
    ends = np.empty(k - 1, dtype=np.int64)
    picks = np.empty(k - 1, dtype=np.int64)
    weights = np.empty(k - 1)
    v = 0
    for step in range(k - 1):
        free[v] = False
        row[:v] = block[:v, v]
        row[v:] = block[v, v:]
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

    lo = np.minimum(ends, picks)
    hi = np.maximum(ends, picks)
    order = np.lexsort((hi, lo, weights))
    us = nodes[lo[order]].tolist()
    vs = nodes[hi[order]].tolist()
    ws = weights[order].tolist()
    total = 0.0
    for w in ws:
        total += w
    return Backbone(tuple(nodes.tolist()), tuple(map(Edge, us, vs, ws)), total)


def restrict_edges(backbone: Backbone, subset) -> frozenset[tuple[int, int]]:
    """Backbone edges whose endpoints both lie inside ``subset``."""
    inside = set(int(v) for v in subset)
    return frozenset(
        (e.u, e.v) for e in backbone.edges if e.u in inside and e.v in inside
    )


def odd_degree_vertices(backbone: Backbone) -> tuple[int, ...]:
    degree: dict[int, int] = {v: 0 for v in backbone.nodes}
    for e in backbone.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    odd = tuple(v for v in backbone.nodes if degree[v] % 2 == 1)
    if len(odd) % 2 != 0:
        raise RuntimeError("odd-degree vertex count must be even")
    return odd


def greedy_min_matching(d: np.ndarray, odd_vertices) -> tuple[Edge, ...]:
    """Shortest-edge-first perfect matching on an even vertex set."""
    verts = np.unique(np.asarray(list(odd_vertices), dtype=np.int64))
    if len(verts) % 2 != 0:
        raise ValueError("matching needs an even number of vertices")
    if len(verts) == 0:
        return ()
    iu, ju, w = _sorted_pair_order(d, verts)
    matched = [False] * len(verts)
    out: list[Edge] = []
    for a, b, weight in zip(iu, ju, w):
        if matched[a] or matched[b]:
            continue
        matched[a] = matched[b] = True
        out.append(make_edge(int(verts[a]), int(verts[b]), float(weight)))
        if len(out) * 2 == len(verts):
            break
    return tuple(out)


EXACT_MATCHING_LIMIT = 12


def exact_min_matching(d: np.ndarray, odd_vertices) -> tuple[Edge, ...]:
    """Minimum-cost perfect matching by exhaustive pairing enumeration.

    (2k-1)!! pairings; capped at 12 vertices (10395 pairings).
    """
    verts = sorted(int(v) for v in set(odd_vertices))
    if len(verts) % 2 != 0:
        raise ValueError("matching needs an even number of vertices")
    if len(verts) > EXACT_MATCHING_LIMIT:
        raise ValueError(
            f"exact matching capped at {EXACT_MATCHING_LIMIT} vertices, got {len(verts)}"
        )
    if not verts:
        return ()

    best_cost = float("inf")
    best_pairs: list[tuple[int, int]] = []

    def search(remaining: list[int], cost: float, pairs: list[tuple[int, int]]):
        nonlocal best_cost, best_pairs
        if not remaining:
            if cost < best_cost:
                best_cost = cost
                best_pairs = list(pairs)
            return
        if cost >= best_cost:
            return
        first = remaining[0]
        for i in range(1, len(remaining)):
            other = remaining[i]
            pairs.append((first, other))
            rest = remaining[1:i] + remaining[i + 1 :]
            search(rest, cost + float(d[first, other]), pairs)
            pairs.pop()

    search(verts, 0.0, [])
    if not best_pairs:
        raise RuntimeError("no pairing found")
    return tuple(make_edge(u, v, float(d[u, v])) for u, v in best_pairs)


def euler_tour(backbone: Backbone, matching, start: int) -> list[int]:
    """Closed Eulerian walk over the MST-plus-matching multigraph.

    Hierholzer's algorithm over sorted adjacency lists; parallel edges are
    kept apart by edge id.  Returns ``[start]`` for an edgeless graph.
    """
    edges = list(backbone.edges) + list(matching)
    if not edges:
        return [int(start)]

    adj: dict[int, list[tuple[int, int]]] = {}
    for eid, e in enumerate(edges):
        adj.setdefault(e.u, []).append((e.v, eid))
        adj.setdefault(e.v, []).append((e.u, eid))
    for v in adj:
        adj[v].sort()
        if len(adj[v]) % 2 != 0:
            raise RuntimeError(f"vertex {v} has odd multigraph degree")
    if start not in adj:
        raise RuntimeError(f"start vertex {start} is isolated")

    used = [False] * len(edges)
    pointer = {v: 0 for v in adj}
    stack = [int(start)]
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
    walk = walk_rev[::-1]
    return walk


def shortcut(walk, d: np.ndarray) -> SeedTour:
    """Keep first occurrences of the walk's vertices; close up the tour."""
    seen = set()
    order = []
    for v in walk:
        v = int(v)
        if v not in seen:
            seen.add(v)
            order.append(v)
    if not order:
        raise ValueError("empty walk")
    return SeedTour(tuple(order), tour_length(order, d))


def christofides_seed(d: np.ndarray, subset, matching_method: str = "greedy") -> SeedTour:
    """MST + odd-vertex matching + Euler walk + shortcut for one subset."""
    nodes = sorted(int(v) for v in set(subset))
    if not nodes:
        raise ValueError("subset must be non-empty")
    if len(nodes) == 1:
        return SeedTour((nodes[0],), 0.0)
    mst = kruskal_mst(d, nodes)
    odd = odd_degree_vertices(mst)
    if matching_method == "greedy":
        matching = greedy_min_matching(d, odd)
    elif matching_method == "exact":
        matching = exact_min_matching(d, odd)
    else:
        raise ValueError(f"unknown matching method {matching_method!r}")
    walk = euler_tour(mst, matching, nodes[0])
    return shortcut(walk, d)


def dfs_preorder_seed(d: np.ndarray, subset) -> SeedTour:
    """Alternative seed: depth-first preorder of the MST from its lowest node.

    Skips the matching/Euler stage; kept for ablating the seed construction.
    """
    nodes = sorted(int(v) for v in set(subset))
    if not nodes:
        raise ValueError("subset must be non-empty")
    if len(nodes) == 1:
        return SeedTour((nodes[0],), 0.0)
    mst = kruskal_mst(d, nodes)
    adj = mst.adjacency
    seen = set()
    order: list[int] = []
    stack = [nodes[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        order.append(v)
        for nbr in reversed(adj[v]):
            if nbr not in seen:
                stack.append(nbr)
    return SeedTour(tuple(order), tour_length(order, d))
