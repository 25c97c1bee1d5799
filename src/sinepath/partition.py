"""Splitting the node set into per-robot subsets.

Subsets are disjoint, cover every node, and stay within one element of each
other in size.  The angle sweep is the deterministic default: sort nodes by
polar angle around the centroid and cut contiguous blocks.  The k-means-like
method trades determinism-for-free for geometric compactness: farthest-point
seeding, a bounded Lloyd refinement, then a rebalance pass.  Depot-based
splitting assigns nodes to their nearest robot start location and gives each
robot the member nearest its depot as its tour start.

Partitions operate on raw coordinates in both metrics; at desk scale the
angular and centroid arithmetic on lat/lon degrees is an accepted
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aco import finite_real
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
    """Refuse a robot count that is not an int in [1, n]; a bool is refused too."""
    if type(m) is not int:
        raise ValueError(f"robot count must be an integer, got {m!r}")
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


def _squared_distances(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, m) squared distances from each point to each center."""
    return ((coords[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _assign_nearest(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return _squared_distances(coords, centers).argmin(axis=1)


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
    """Farthest-point seeding, Lloyd refinement (at most 100 sweeps), rebalance.
    A ``seed`` that is not a non-negative int is refused, a bool too."""
    n = inst.dimension
    _check_m(n, m)
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
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


def _depots(depots) -> tuple[tuple[float, float], ...]:
    """``depots`` as (x, y) pairs of floats: the one depot rule, which
    ``SolverConfig`` and ``partition_by_depots`` share.  Anything but a
    tuple, list or 2-D array of tuple or list pairs of finite real numbers
    (a bool is not one) is refused."""
    pairs = depots.tolist() if isinstance(depots, np.ndarray) and depots.ndim == 2 else depots
    if isinstance(pairs, (tuple, list)) and all(
        isinstance(p, (tuple, list)) and len(p) == 2 for p in pairs
    ):
        try:
            return tuple((finite_real("x", x), finite_real("y", y)) for x, y in pairs)
        except ValueError:
            pass
    raise ValueError(f"depots must be (x, y) pairs of finite numbers, got {depots!r}")


def _depot_distances(inst: Instance, depots: np.ndarray) -> np.ndarray:
    """Squared point-to-depot distances, or a ValueError if they overflow."""
    try:
        with np.errstate(over="raise"):
            return _squared_distances(inst.coords, depots)
    except FloatingPointError:
        raise ValueError("depots too far from the points: squared distances overflow") from None


def partition_by_depots(inst: Instance, depots) -> tuple[Partition, tuple[int, ...]]:
    """Nearest-depot assignment, rebalanced to within one node per robot, and
    per subset the member nearest its depot (the first of equals), which is
    that robot's fixed tour start."""
    depots = _depots(depots)
    m = len(depots)
    _check_m(inst.dimension, m)
    d2 = _depot_distances(inst, np.array(depots))
    part = _as_partition(_rebalance(inst.coords, d2.argmin(axis=1), m), m)
    return part, tuple(sub[int(d2[list(sub), k].argmin())] for k, sub in enumerate(part.subsets))
