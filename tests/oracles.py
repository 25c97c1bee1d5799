"""Independent reference implementations used to freeze expected values.

Everything here is written against the naive textbook formulation, not the
package code paths: full permutation scan instead of any construction
heuristic, sign-vector enumeration instead of the counting convolution. Slow
on purpose. The scalar colony (``StructuralBias`` through ``deposit_amount``)
is the textbook per-node transition rule and deposit (Dorigo & Stuetzle, Ant
Colony Optimization, MIT Press 2004, ch. 3), one ant and one successor at a
time; ``euclidean_distance`` and ``haversine_distance`` are the per-pair
formulas the dense matrix must reproduce. The ``reference_*`` functions are
the package's own earlier forms, kept verbatim so that their replacements
can be checked bit for bit. ``exact_min_matching`` is the exact matching
criterion 04 holds the solver's greedy one against. ``parse_results_csv``
reads ``results.csv`` back, so that the emitter's round trip can be checked.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from sinepath.aco import AcoParams
from sinepath.backbone import Backbone, Edge, _sorted_pair_order, make_edge
from sinepath.bench import BenchResults, CellStats
from sinepath.instances import EARTH_RADIUS_KM
from sinepath.objective import Tour, tour_length


def prim_mst_cost(dist: np.ndarray) -> float:
    """Prim's algorithm, O(n^2), returns total tree weight."""
    n = dist.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    in_tree[0] = True
    best[:] = dist[0]
    best[0] = 0.0
    total = 0.0
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(masked))
        total += masked[j]
        in_tree[j] = True
        np.minimum(best, dist[j], out=best)
    return float(total)


def brute_force_matching(dist: np.ndarray, nodes: list[int]) -> tuple[float, list[tuple[int, int]]]:
    """Minimum-weight perfect matching by full enumeration.

    Recursion on "pair the smallest unmatched node with each partner";
    enumerates (k-1)!! pairings for k nodes. k must be even.
    """
    if len(nodes) % 2:
        raise ValueError("odd node count")

    def rec(pool: tuple[int, ...]) -> tuple[float, list[tuple[int, int]]]:
        if not pool:
            return 0.0, []
        a = pool[0]
        rest = pool[1:]
        best_cost = math.inf
        best_pairs: list[tuple[int, int]] = []
        for i, b in enumerate(rest):
            sub_cost, sub_pairs = rec(rest[:i] + rest[i + 1:])
            cost = dist[a, b] + sub_cost
            if cost < best_cost:
                best_cost = cost
                best_pairs = [(min(a, b), max(a, b))] + sub_pairs
        return best_cost, best_pairs

    cost, pairs = rec(tuple(sorted(nodes)))
    return float(cost), sorted(pairs)


EXACT_MATCHING_LIMIT = 12


def exact_min_matching(d: np.ndarray, odd_vertices) -> tuple[Edge, ...]:
    """Minimum-cost perfect matching by exhaustive pairing enumeration.

    (2k-1)!! pairings, pruned once a partial cost reaches the best; capped at
    12 vertices (10395 pairings).
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


def exhaustive_tsp(dist: np.ndarray, nodes: list[int]) -> tuple[float, list[int]]:
    """Optimal closed tour by scanning all (k-1)! permutations, first node fixed.

    Intended for k <= 9.
    """
    nodes = sorted(nodes)
    if len(nodes) > 9:
        raise ValueError("too large for exhaustive scan")
    if len(nodes) == 1:
        return 0.0, list(nodes)
    first = nodes[0]
    best_len = math.inf
    best_order = list(nodes)
    for perm in itertools.permutations(nodes[1:]):
        order = [first, *perm]
        length = sum(dist[order[i], order[i + 1]] for i in range(len(order) - 1))
        length += dist[order[-1], order[0]]
        if length < best_len:
            best_len = length
            best_order = order
    return float(best_len), best_order


def held_karp_bound(dist: np.ndarray, nodes) -> float:
    """Held-Karp 1-tree lower bound on the optimal closed tour over ``nodes``.

    Held & Karp, Operations Research 18 (1970): for any node penalties pi,
    the minimum 1-tree under costs d_ij + pi_i + pi_j, minus 2 * sum(pi), is
    at most the optimal tour length.  A 1-tree is a Prim spanning tree on all
    nodes but the first, plus the first node's two cheapest edges.
    Subgradient ascent moves pi along (degree - 2) with a Polyak step towards
    a nearest-neighbour tour length, halving the step scale after a stretch
    without improvement, for at most 1000 steps; the best value seen is
    returned.
    """
    nodes = sorted(nodes)
    k = len(nodes)
    if k <= 1:
        return 0.0
    d = dist[np.ix_(nodes, nodes)]
    if k == 2:
        return float(2.0 * d[0, 1])

    # nearest-neighbour tour from the first node: the step's target
    order = [0]
    left = set(range(1, k))
    while left:
        nxt = min(left, key=lambda j: d[order[-1], j])
        order.append(nxt)
        left.remove(nxt)
    upper = sum(d[order[i], order[(i + 1) % k]] for i in range(k))

    pi = np.zeros(k)
    best = -math.inf
    scale = 2.0
    stale = 0
    for _ in range(1000):
        c = d + pi[:, None] + pi[None, :]
        degree = np.zeros(k, dtype=int)
        cost = 0.0
        # Prim over nodes 1..k-1
        in_tree = np.zeros(k, dtype=bool)
        in_tree[0] = in_tree[1] = True
        best_cost = c[1].copy()
        parent = np.ones(k, dtype=int)
        for _ in range(k - 2):
            masked = np.where(in_tree, np.inf, best_cost)
            j = int(np.argmin(masked))
            cost += masked[j]
            degree[j] += 1
            degree[parent[j]] += 1
            in_tree[j] = True
            closer = c[j] < best_cost
            best_cost[closer] = c[j][closer]
            parent[closer] = j
        # the first node's two cheapest edges close the 1-tree
        a, b = np.argsort(c[0, 1:], kind="stable")[:2] + 1
        cost += c[0, a] + c[0, b]
        degree[0] = 2
        degree[a] += 1
        degree[b] += 1

        value = cost - 2.0 * pi.sum()
        if value > best:
            best, stale = value, 0
        else:
            stale += 1
            if stale >= k:
                scale, stale = scale / 2.0, 0
        g = degree - 2
        if not g.any() or scale < 1e-9:
            break  # a 1-tree with all degrees 2 is an optimal tour
        pi += scale * max(upper - value, 1e-9 * upper) / float(g @ g) * g
    return float(best)


def euclidean_distance(a, b) -> float:
    """Unrounded planar distance between two (x, y) points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def haversine_distance(a, b, radius: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance in km between two (lat, lon) points in degrees."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    s = (
        math.sin((lat2 - lat1) / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * radius * math.asin(min(1.0, math.sqrt(s)))

def law_of_cosines_km(lat1: float, lon1: float, lat2: float, lon2: float,
                      radius_km: float = 6371.0) -> float:
    """Great-circle distance via the spherical law of cosines.

    Less stable than haversine near zero separation but algebraically
    independent of it, which is the point.
    """
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dlon = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dlon)
    return radius_km * math.acos(max(-1.0, min(1.0, c)))


def wilcoxon_enumerated(a, b) -> tuple[float, float, float, float]:
    """Exact two-sided signed-rank test by enumerating all 2^n sign vectors.

    Returns (w_plus, w_minus, n_effective, p_value). Zero differences are
    dropped; ties get average ranks; the two-sided p doubles the lower tail
    of min(W+, W-) and clips at 1.
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 0.0, 0.0, 0.0, 1.0
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w_obs = min(w_plus, w_minus)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = float(np.dot(signs, ranks))
        if w <= w_obs + 1e-12:
            count += 1
    p = min(1.0, 2.0 * count / 2.0 ** n)
    return w_plus, w_minus, float(n), p


@dataclass(frozen=True)
class StructuralBias:
    """Backbone edge set plus the multiplicative weight it earns."""

    omega: float
    backbone_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.omega < 1.0:
            raise ValueError("omega must be at least 1")
        for u, v in self.backbone_edges:
            if not u < v:
                raise ValueError("backbone edges must be canonical (u < v)")

    def psi(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        return self.omega if key in self.backbone_edges else 1.0


def transition_probabilities(
    i: int,
    candidates,
    tau: np.ndarray,
    d: np.ndarray,
    bias: StructuralBias,
    params: AcoParams,
) -> np.ndarray:
    """Normalised successor probabilities from ``i``, aligned with ``candidates``:
    tau^alpha * (1/d)^beta * psi over their sum."""
    cand = np.asarray(list(candidates), dtype=np.int64)
    if cand.size == 0:
        raise ValueError("no candidates")
    if np.any(cand == i):
        raise ValueError("current node cannot be its own successor")
    dist = d[i, cand]
    if np.any(dist <= 0):
        raise ValueError(
            f"zero distance from node {i} to a candidate: degenerate geometry"
        )
    psi = np.array([bias.psi(i, int(j)) for j in cand])
    scores = tau[i, cand] ** params.alpha * (1.0 / dist) ** params.beta * psi
    total = scores.sum()
    if not total > 0:
        raise ValueError(f"all successor scores vanished at node {i}")
    return scores / total


def roulette_index(cum: np.ndarray, u: float) -> int:
    """Index whose cumulative-mass interval contains u * total."""
    total = float(cum[-1])
    if not total > 0:
        raise ValueError("cannot sample from zero total mass")
    target = min(u * total, np.nextafter(total, -np.inf))
    return int(np.searchsorted(cum, target, side="right"))


def construct_tour(
    subset,
    start: int,
    tau: np.ndarray,
    d: np.ndarray,
    bias: StructuralBias,
    params: AcoParams,
    rng,
) -> Tour:
    """One ant's closed tour over ``subset`` starting at ``start``.

    Consumes exactly ``len(subset) - 1`` draws from ``rng.random()``.
    Construction never leaves the subset.
    """
    nodes = sorted(int(v) for v in set(subset))
    if int(start) not in nodes:
        raise ValueError("start must belong to the subset")
    remaining = [v for v in nodes if v != int(start)]
    order = [int(start)]
    cur = int(start)
    while remaining:
        probs = transition_probabilities(cur, remaining, tau, d, bias, params)
        idx = roulette_index(np.cumsum(probs), rng.random())
        cur = remaining.pop(idx)
        order.append(cur)
    return Tour(tuple(order), tour_length(order, d))


def deposit_amount(edge, tour: Tour, backbone_edges, params: AcoParams) -> float:
    """Trail added to one edge by one tour: q/L, doubled up by kappa on the backbone."""
    u, v = edge
    key = (u, v) if u < v else (v, u)
    if len(tour.order) < 2 or key not in tour.edge_set():
        return 0.0
    bonus = params.kappa if key in backbone_edges else 0.0
    return params.q_scale / tour.length * (1.0 + bonus)

def reference_construct_colony(weight, dist, tau_local, uniforms, start_local=None):
    """The colony step loop as first written: a bool visited mask written with
    ``scores[visited] = 0.0`` and fresh arrays every step.

    ``weight`` and ``dist`` are a ``SubsetColony``'s static score factor and
    local distance block.  Returns (orders, lengths) like ``construct_colony``.
    """
    na, nl = uniforms.shape
    orders = np.empty((na, nl), dtype=np.int64)
    visited = np.zeros((na, nl), dtype=bool)
    rows = np.arange(na)

    if start_local is None:
        cur = np.minimum((uniforms[:, 0] * nl).astype(np.int64), nl - 1)
    else:
        cur = np.full(na, int(start_local), dtype=np.int64)
    orders[:, 0] = cur
    visited[rows, cur] = True

    score_tau = tau_local * weight
    for step in range(1, nl):
        scores = score_tau[cur]
        scores[visited] = 0.0
        cum = np.cumsum(scores, axis=1)
        total = cum[:, -1]
        if not np.all(total > 0):
            raise ValueError("all successor scores vanished during construction")
        target = np.minimum(uniforms[:, step] * total, np.nextafter(total, -np.inf))
        nxt = (cum <= target[:, None]).sum(axis=1)
        orders[:, step] = nxt
        visited[rows, nxt] = True
        cur = nxt

    if nl == 1:
        lengths = np.zeros(na)
    else:
        lengths = dist[orders[:, :-1], orders[:, 1:]].sum(axis=1)
        lengths = lengths + dist[orders[:, -1], orders[:, 0]]
    return orders, lengths


def reference_update_pheromones(tau, tours, backbones, params):
    """Evaporation, then one ``deposit_amount`` per tour edge and direction."""
    tau *= 1.0 - params.rho
    for tour, backbone_edges in zip(tours, backbones):
        if len(tour.order) < 2:
            continue
        for edge in sorted(tour.edge_set()):
            amount = deposit_amount(edge, tour, backbone_edges, params)
            tau[edge[0], edge[1]] += amount
            tau[edge[1], edge[0]] += amount
    return tau


def reference_seed_deposit(tau, seeds, params):
    """The solver's former seed bonus: a flat q/L * (1 + kappa) on each seed edge."""
    p = params
    for seed in seeds:
        if seed.length <= 0:
            continue
        amount = p.q_scale / seed.length * (1.0 + p.kappa)
        for u, v in sorted(seed.edge_set()):
            tau[u, v] += amount
            tau[v, u] += amount
    return tau


def reference_kruskal_mst(d: np.ndarray, subset) -> Backbone:
    """Kruskal MST over ``subset`` with union-find and deterministic ties."""
    nodes = np.unique(np.asarray(list(subset), dtype=np.int64))
    k = len(nodes)
    if k == 0:
        raise ValueError("subset must be non-empty")
    if k == 1:
        return Backbone((int(nodes[0]),), (), 0.0)

    iu, ju, w = _sorted_pair_order(d, nodes)
    parent = list(range(k))
    rank = [0] * k

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    edges: list[Edge] = []
    total = 0.0
    for a, b, weight in zip(iu, ju, w):
        ra, rb = find(int(a)), find(int(b))
        if ra == rb:
            continue
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        edges.append(make_edge(int(nodes[a]), int(nodes[b]), float(weight)))
        total += float(weight)
        if len(edges) == k - 1:
            break
    return Backbone(tuple(int(v) for v in nodes), tuple(edges), total)


def reference_distance_matrix(coords: np.ndarray) -> np.ndarray:
    """The Euclidean matrix as first written: an (n, n, 2) difference array,
    then its upper triangle mirrored."""
    diff = coords[:, None, :] - coords[None, :, :]
    full = np.sqrt((diff * diff).sum(axis=2))
    upper = np.triu(full, k=1)
    return upper + upper.T


def parse_results_csv(text: str) -> BenchResults:
    """A ``results.csv`` read back: aggregates only, since the csv carries no
    raw runs."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or rows[0] != ["instance", "robots", "algorithm", "metric", "mean", "std", "n"]:
        raise ValueError("unrecognised results csv header")
    results = BenchResults()
    for row in rows[1:]:
        if len(row) != 7:
            raise ValueError(f"bad results row: {row!r}")
        inst, robots, alg, metric, mean, std, n = row
        results.cells[(inst, int(robots), alg, metric)] = CellStats(
            float(mean), float(std), (), int(n)
        )
    return results
