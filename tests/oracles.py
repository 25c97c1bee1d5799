"""Independent reference implementations used to freeze expected values.

Everything here is written against the naive textbook formulation, not the
package code paths: Prim instead of Kruskal, full permutation scan instead of
any construction heuristic, sign-vector enumeration instead of the counting
convolution. Slow on purpose.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import rankdata

from sinepath.aco import deposit_amount


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
