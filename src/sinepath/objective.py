"""Route-set quality: closed-tour lengths and the scalarized trade-off.

The solver minimises J = lambda * sum(L_k) + (1 - lambda) * max(L_k) over the
per-robot closed tour lengths L_k.  lambda = 1 recovers the pure total, 0 the
pure bottleneck.  ``tour_lengths`` is the one closed-tour length rule: the
colony measures every ant's tour with it and ``tour_length`` every single
tour, the seeds included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tour:
    """Closed tour: visiting order plus cached length."""

    order: tuple[int, ...]
    length: float

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Unordered edges traversed, closing edge included."""
        if len(self.order) < 2:
            return frozenset()
        pairs = zip(self.order, self.order[1:] + self.order[:1])
        return frozenset((a, b) if a < b else (b, a) for a, b in pairs)


def tour_lengths(orders: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Closed-tour length of each row of ``orders``, an integer (tours, nodes)
    array of ids into the C-ordered square ``d``.  One gather takes every leg,
    the closing one last; each row of it is contiguous, so the sum of its
    first legs rounds as their 1-D sum does (an F-ordered gather would not).
    A one-node tour's one leg is the zero diagonal; a two-node tour traverses
    its edge twice."""
    succ = np.empty_like(orders)
    succ[:, :-1] = orders[:, 1:]
    succ[:, -1] = orders[:, 0]
    legs = d.reshape(-1).take(np.add(orders * len(d), succ, succ))
    lengths = np.add.reduce(legs[:, :-1], axis=1)
    lengths += legs[:, -1]
    return lengths


def tour_length(order, d: np.ndarray) -> float:
    """Length of the closed tour visiting ``order`` and returning to its start."""
    idx = np.asarray(order, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty tour")
    return float(tour_lengths(idx[None, :], np.ascontiguousarray(d))[0])


def scalarized_objective(lengths, lam: float) -> float:
    """J = lam * total + (1 - lam) * max over per-robot lengths."""
    arr = np.asarray(lengths, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no tour lengths")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return float(lam * arr.sum() + (1.0 - lam) * arr.max())


@dataclass(frozen=True)
class Objectives:
    """Evaluated quality of one tour collection."""

    per_robot: tuple[float, ...]
    total: float
    max_single: float
    lambda_weight: float
    j_value: float


def evaluate_objectives(tours, lambda_weight: float) -> Objectives:
    """Objectives for a collection of tours carrying .length."""
    lengths = tuple(float(t.length) for t in tours)
    return Objectives(
        per_robot=lengths,
        total=float(np.sum(lengths)),
        max_single=float(np.max(lengths)),
        lambda_weight=lambda_weight,
        j_value=scalarized_objective(lengths, lambda_weight),
    )
