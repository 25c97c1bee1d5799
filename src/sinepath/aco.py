"""Pheromone-guided tour construction with a spanning-tree bias.

Successor choice is the product rule

    p(i -> j)  ~  tau_ij^alpha * (1/d_ij)^beta * psi_ij^gamma

where psi_ij = omega >= 1 on backbone (MST) edges and 1 elsewhere; omega = 1
switches the bias off.  After each iteration the trail field evaporates by
(1 - rho) and the best tour of each subset's colony deposits

    q_scale / L * (1 + kappa * [edge on the backbone])

on its edges.  kappa = 0 recovers plain ant-colony deposits, so the classic
algorithm is a parameter setting of this module, not a separate code path.

Sampling inverts the cumulative score sum with one uniform draw per step;
the draw is clamped strictly below the total so the final positive-score
candidate absorbs residual rounding mass and a visited node can never be
re-selected.  The colony picks the first node whose prefix sum exceeds the
target, which is the count of prefix sums at or below it only while every
score is non-negative; a negative trail is therefore refused.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .objective import tour_length

# Smallest normal double.  Evaporation takes an untouched edge below it after
# ~1075 iterations at rho = 0.5 (after one at rho = 1); default runs stay far
# above it (0.9^1000 ~ 1.7e-46), so flooring leaves their answers unchanged.
TRAIL_FLOOR = np.finfo(float).tiny


@dataclass(frozen=True)
class AcoParams:
    alpha: float = 1.0
    beta: float = 2.0
    gamma: float = 1.0
    rho: float = 0.1
    q_scale: float = 1.0
    kappa: float = 1.0
    n_ants: int = 50
    max_iter: int = 1000

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.gamma <= 0:
            raise ValueError("alpha, beta, gamma must be positive")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.q_scale <= 0:
            raise ValueError("q_scale must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.n_ants < 1 or self.max_iter < 1:
            raise ValueError("n_ants and max_iter must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)


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


def init_pheromone(dim: int, tau0: float) -> np.ndarray:
    """Uniform trail field with a zero diagonal."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
    tau = np.full((dim, dim), float(tau0))
    np.fill_diagonal(tau, 0.0)
    return tau


def transition_probabilities(
    i: int,
    candidates,
    tau: np.ndarray,
    d: np.ndarray,
    bias: StructuralBias,
    params: AcoParams,
) -> np.ndarray:
    """Normalised successor probabilities from ``i``, aligned with ``candidates``."""
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
    scores = (
        tau[i, cand] ** params.alpha
        * (1.0 / dist) ** params.beta
        * psi ** params.gamma
    )
    total = scores.sum()
    if not total > 0:
        raise ValueError(f"all successor scores vanished at node {i}")
    return scores / total


def _roulette_index(cum: np.ndarray, u: float) -> int:
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
    rng: np.random.Generator,
) -> Tour:
    """One ant's closed tour over ``subset`` starting at ``start``.

    Consumes exactly ``len(subset) - 1`` uniform draws.  Construction never
    leaves the subset.
    """
    nodes = sorted(int(v) for v in set(subset))
    if int(start) not in nodes:
        raise ValueError("start must belong to the subset")
    remaining = [v for v in nodes if v != int(start)]
    order = [int(start)]
    cur = int(start)
    while remaining:
        probs = transition_probabilities(cur, remaining, tau, d, bias, params)
        idx = _roulette_index(np.cumsum(probs), rng.random())
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


def deposit(tau: np.ndarray, tours, backbones, params: AcoParams) -> np.ndarray:
    """Add q/L * (1 + kappa * [edge on the backbone]) on each tour's edges.

    ``backbones`` pairs with ``tours``: one backbone edge set per tour.
    Single-node tours deposit nothing.  The field is updated in place and
    returned.
    """
    if len(tours) != len(backbones):
        raise ValueError("one backbone edge set per tour required")
    for tour, backbone_edges in zip(tours, backbones):
        if len(tour.order) < 2:
            continue
        edges = list(tour.edge_set())
        u, v = zip(*edges)
        bonus = [params.kappa if e in backbone_edges else 0.0 for e in edges]
        amount = params.q_scale / tour.length * (1.0 + np.array(bonus + bonus))
        # Canonical edges (u < v) of one tour name 2E distinct cells, so one
        # fancy-index add equals adding them one by one; tours still apply in
        # list order.
        tau[np.array(u + v), np.array(v + u)] += amount
    return tau


def update_pheromones(tau: np.ndarray, tours, backbones, params: AcoParams) -> np.ndarray:
    """Evaporate the whole field, then ``deposit`` each subset's tour."""
    tau *= 1.0 - params.rho
    return deposit(tau, tours, backbones, params)


class SubsetColony:
    """Vectorised construction of a whole colony's tours over one subset.

    Works in local index space.  The static score factor
    (1/d)^beta * psi^gamma is precomputed; per iteration only tau changes.
    Each ant's uniform draws arrive as one row of ``uniforms``: draw 0 picks
    the start, the rest drive successor roulette, so every ant consumes the
    same stream shape regardless of scheduling.
    """

    def __init__(
        self,
        nodes,
        d: np.ndarray,
        backbone_edges,
        omega: float,
        params: AcoParams,
    ):
        self.nodes = np.asarray(sorted(int(v) for v in set(nodes)), dtype=np.int64)
        self.n_local = len(self.nodes)
        self.params = params
        self.backbone_edges = frozenset(backbone_edges)
        self._local_of = {int(v): k for k, v in enumerate(self.nodes)}
        # Flat positions of the subset's block in a (dim, dim) matrix: one
        # take() gathers it, where np.ix_ builds two index grids per call.
        self._shape = d.shape
        self._block = (self.nodes[:, None] * d.shape[1] + self.nodes).ravel()

        self.dist = self._gather(d)
        off_diag = ~np.eye(self.n_local, dtype=bool)
        if np.any(self.dist[off_diag] <= 0):
            raise ValueError("zero distance inside subset: degenerate geometry")
        safe = self.dist + np.eye(self.n_local)
        eta = 1.0 / safe
        np.fill_diagonal(eta, 0.0)
        weight = eta ** params.beta
        if omega != 1.0:
            boost = omega ** params.gamma
            for u, v in self.backbone_edges:
                lu, lv = self._local_of[u], self._local_of[v]
                weight[lu, lv] *= boost
                weight[lv, lu] *= boost
        self.weight = weight

    def _gather(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape != self._shape:
            raise ValueError(f"matrix shape {matrix.shape} differs from {self._shape}")
        return matrix.take(self._block).reshape(self.n_local, self.n_local)

    def local_tau(self, tau: np.ndarray) -> np.ndarray:
        """The subset's trail factor tau^alpha, floored at ``TRAIL_FLOOR`` off
        the diagonal so that no successor score underflows to zero."""
        sub = self._gather(tau)
        if self.params.alpha != 1.0:
            sub = sub ** self.params.alpha
        np.maximum(sub, TRAIL_FLOOR, out=sub)
        sub.reshape(-1)[:: self.n_local + 1] = 0.0
        return sub

    def construct_colony(
        self,
        tau_local: np.ndarray,
        uniforms: np.ndarray,
        start_local: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All ants' tours for one iteration.

        ``uniforms`` is (n_ants, n_local).  Returns (orders, lengths) with
        orders in local indices, one row per ant.
        """
        na, nl = uniforms.shape
        if nl != self.n_local:
            raise ValueError("uniform block width must equal the subset size")
        score_tau = tau_local * self.weight
        if score_tau.min() < 0:  # NaN passes, to fail as vanished below
            raise ValueError("negative trail: successor scores must be non-negative")
        # Visited columns are zeroed by multiplying with a 0/1 mask, which is
        # exact for finite scores but turns inf into NaN.
        if np.isinf(score_tau).any():
            raise ValueError(
                "non-finite successor scores: (1/d)^beta or the trail overflows; "
                "rescale the coordinates or lower beta"
            )
        orders = np.empty((na, nl), dtype=np.int64)
        avail = np.ones((na, nl))
        avail_flat = avail.reshape(-1)
        offsets = np.arange(na) * nl

        if start_local is None:
            cur = np.minimum((uniforms[:, 0] * nl).astype(np.int64), nl - 1)
        else:
            cur = np.full(na, int(start_local), dtype=np.int64)
        orders[:, 0] = cur
        avail_flat[offsets + cur] = 0.0

        draws = np.ascontiguousarray(uniforms.T)
        scores = np.empty((na, nl))
        cum = np.empty((na, nl))
        below = np.empty((na, nl), dtype=bool)
        target = np.empty(na)
        cap = np.empty(na)
        target_col = target[:, None]
        total = cum[:, -1]
        low = np.full(na, np.inf)
        for step in range(1, nl):
            # Indices are in range; mode="clip" only spares take() from
            # buffering its output.
            np.take(score_tau, cur, axis=0, out=scores, mode="clip")
            np.multiply(scores, avail, out=scores)
            np.add.accumulate(scores, axis=1, out=cum)
            np.minimum(low, total, out=low)
            np.multiply(draws[step], total, out=target)
            np.nextafter(total, -np.inf, out=cap)
            np.minimum(target, cap, out=target)
            # Scores are non-negative, so each row of cum never decreases and
            # `below` is a run of True followed only by False, with the last
            # column False (target < total): the first False, at the count
            # of True, is the pick.  A zero or NaN total leaves a row all
            # False and picks 0, a valid index; the check after the loop then
            # refuses the whole call.
            np.less_equal(cum, target_col, out=below)
            cur = below.argmin(axis=1)
            orders[:, step] = cur
            avail_flat[offsets + cur] = 0.0
        if not (low > 0).all():  # NaN fails this too
            raise ValueError("all successor scores vanished during construction")

        if nl == 1:
            lengths = np.zeros(na)
        else:
            # orders is C-contiguous; the pairwise sum of an F-ordered gather
            # would round differently.
            lengths = self.dist[orders[:, :-1], orders[:, 1:]].sum(axis=1)
            lengths = lengths + self.dist[orders[:, -1], orders[:, 0]]
        return orders, lengths

    def to_global(self, local_order: np.ndarray) -> tuple[int, ...]:
        return tuple(int(v) for v in self.nodes[local_order])
