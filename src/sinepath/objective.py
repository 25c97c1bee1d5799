"""Route-set quality: closed-tour lengths, the scalarized trade-off, overlap.

The solver minimises J = lambda * sum(L_k) + (1 - lambda) * max(L_k) over the
per-robot closed tour lengths L_k.  lambda = 1 recovers the pure total, 0 the
pure bottleneck.  Disjoint node subsets make inter-robot edge overlap zero by
construction.  ``evaluate_objectives`` reports the overlap count and the
penalised J' = J + mu * overlap at its one weight mu = 0, so J' = J.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Tour:
    """Closed tour: visiting order plus cached length."""

    order: tuple[int, ...]
    length: float

    @cached_property
    def _edges(self) -> frozenset[tuple[int, int]]:
        if len(self.order) < 2:
            return frozenset()
        pairs = zip(self.order, self.order[1:] + self.order[:1])
        return frozenset((a, b) if a < b else (b, a) for a, b in pairs)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Unordered edges traversed, closing edge included."""
        return self._edges


def tour_length(order, d: np.ndarray) -> float:
    """Length of the closed tour visiting ``order`` and returning to its start.

    A single-node tour has length 0; a two-node tour traverses its edge twice.
    """
    idx = np.asarray(order, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty tour")
    if idx.size == 1:
        return 0.0
    return float(d[idx[:-1], idx[1:]].sum() + d[idx[-1], idx[0]])


def scalarized_objective(lengths, lam: float) -> float:
    """J = lam * total + (1 - lam) * max over per-robot lengths."""
    arr = np.asarray(lengths, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no tour lengths")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return float(lam * arr.sum() + (1.0 - lam) * arr.max())


def edge_overlap(a, b) -> int:
    """Number of unordered edges shared by two closed tours."""
    return len(a.edge_set() & b.edge_set())


def pairwise_overlap_total(tours) -> int:
    """Sum of edge_overlap over all unordered tour pairs."""
    total = 0
    for i in range(len(tours)):
        for j in range(i + 1, len(tours)):
            total += edge_overlap(tours[i], tours[j])
    return total


@dataclass(frozen=True)
class Objectives:
    """Evaluated quality of one tour collection."""

    per_robot: tuple[float, ...]
    total: float
    max_single: float
    lambda_weight: float
    j_value: float
    overlap_total: int
    mu: float
    j_prime: float


def evaluate_objectives(tours, lambda_weight: float) -> Objectives:
    """Objectives for a collection of tours carrying .length and .edge_set()."""
    lengths = tuple(float(t.length) for t in tours)
    j = scalarized_objective(lengths, lambda_weight)
    return Objectives(
        per_robot=lengths,
        total=float(np.sum(lengths)),
        max_single=float(np.max(lengths)),
        lambda_weight=lambda_weight,
        j_value=j,
        overlap_total=pairwise_overlap_total(tours),
        mu=0.0,
        j_prime=j,
    )
