"""Splitting the node set into per-robot subsets.

Subsets are disjoint, cover every node, and stay within one element of each
other in size.  The angle sweep is the deterministic default: sort nodes by
polar angle around the centroid and cut contiguous blocks.  The k-means-like
method trades determinism-for-free for geometric compactness: farthest-point
seeding, a bounded Lloyd refinement, then a rebalance pass.  Depot-based
splitting assigns nodes to their nearest robot start location.

Partitions operate on raw coordinates in both metrics; at desk scale the
angular and centroid arithmetic on lat/lon degrees is an accepted
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import Instance


@dataclass(frozen=True)
class Partition:
    """Disjoint covering subsets, each stored as a sorted node tuple; built
    only by ``_as_partition``, from one robot label per node."""

    subsets: tuple[tuple[int, ...], ...]


def _block_sizes(n: int, m: int) -> list[int]:
    q, r = divmod(n, m)
    return [q + 1] * r + [q] * (m - r)


def _check_m(n: int, m: int):
    if not 1 <= m <= n:
        raise ValueError(f"robot count {m} outside [1, {n}]")


def partition_angle(inst: Instance, m: int) -> Partition:
    """Contiguous blocks of the polar-angle ordering around the centroid.

    Ties in angle break by node index.
    """
    n = inst.dimension
    _check_m(n, m)
    rel = inst.coords - inst.coords.mean(axis=0)
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    order = np.lexsort((np.arange(n), ang))
    assign = np.empty(n, dtype=np.intp)
    assign[order] = np.repeat(np.arange(m), _block_sizes(n, m))
    return _as_partition(assign, m)


def _assign_nearest(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = ((coords[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _rebalance(coords: np.ndarray, assign: np.ndarray, m: int) -> np.ndarray:
    """Move boundary nodes from the largest to the smallest cluster until
    sizes differ by at most one.  Deterministic: ties break by index."""
    assign = assign.copy()
    for _ in range(len(coords) * m + 1):
        sizes = np.bincount(assign, minlength=m)
        big = int(sizes.argmax())
        small = int(sizes.argmin())
        if sizes[big] - sizes[small] <= 1:
            return assign
        members = np.flatnonzero(assign == big)
        if sizes[small] > 0:
            target = coords[assign == small].mean(axis=0)
        else:
            target = coords[members].mean(axis=0)
        dist = ((coords[members] - target) ** 2).sum(axis=1)
        mover = members[int(dist.argmin())]
        assign[mover] = small
    raise RuntimeError("rebalance did not converge")


def _as_partition(assign: np.ndarray, m: int) -> Partition:
    """The partition whose subset k holds the nodes labelled k."""
    return Partition(tuple(tuple(np.flatnonzero(assign == k).tolist()) for k in range(m)))


def partition_kmeans_like(inst: Instance, m: int, seed: int) -> Partition:
    """Farthest-point seeding, Lloyd refinement (at most 100 sweeps), rebalance."""
    n = inst.dimension
    _check_m(n, m)
    coords = inst.coords
    rng = np.random.default_rng(seed)

    first = int(rng.integers(0, n))
    center_idx = [first]
    mind = ((coords - coords[first]) ** 2).sum(axis=1)
    for _ in range(1, m):
        nxt = int(mind.argmax())
        center_idx.append(nxt)
        mind = np.minimum(mind, ((coords - coords[nxt]) ** 2).sum(axis=1))
    centers = coords[np.array(center_idx)].copy()

    assign = _assign_nearest(coords, centers)
    for _ in range(100):
        for k in range(m):
            members = coords[assign == k]
            if len(members):
                centers[k] = members.mean(axis=0)
        new_assign = _assign_nearest(coords, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    assign = _rebalance(coords, assign, m)
    return _as_partition(assign, m)


def partition_by_depots(inst: Instance, depots) -> Partition:
    """Nearest-depot assignment, rebalanced to within one node per robot."""
    depots = np.asarray(depots, dtype=np.float64)
    if depots.ndim != 2 or depots.shape[1] != 2:
        raise ValueError("depots must be an (m, 2) coordinate array")
    m = len(depots)
    n = inst.dimension
    _check_m(n, m)
    try:
        with np.errstate(over="raise"):
            assign = _assign_nearest(inst.coords, depots)
    except FloatingPointError:
        raise ValueError("depots too far from the points: squared distances overflow") from None
    assign = _rebalance(inst.coords, assign, m)
    return _as_partition(assign, m)


def depot_start_nodes(inst: Instance, part: Partition, depots) -> tuple[int, ...]:
    """Per subset, the member node nearest its depot; used as the fixed tour start."""
    depots = np.asarray(depots, dtype=np.float64)
    if len(depots) != len(part.subsets):
        raise ValueError("one depot per subset required")
    starts = []
    for sub, depot in zip(part.subsets, depots):
        members = np.asarray(sub, dtype=np.int64)
        dist = ((inst.coords[members] - depot) ** 2).sum(axis=1)
        starts.append(int(members[int(dist.argmin())]))
    return tuple(starts)
