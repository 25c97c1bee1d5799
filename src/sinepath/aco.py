"""Pheromone-guided tour construction with a spanning-tree bias.

Successor choice is the product rule

    p(i -> j)  ~  tau_ij^alpha * (1/d_ij)^beta * psi_ij

where psi_ij = omega >= 1 on backbone (MST) edges and 1 elsewhere; omega = 1
switches the bias off.  A subset never changes during a solve, so each
subset's colony owns the trail over its own nodes, and no ant reads a trail
outside its subset.  After each iteration every colony's trail evaporates by
(1 - rho) and the colony's best tour deposits

    q_scale / L * (1 + kappa * [edge on the backbone])

on its edges.  kappa = 0 recovers plain ant-colony deposits, so the classic
algorithm is a parameter setting of this module, not a separate code path.

Sampling inverts the cumulative score sum with one uniform draw u per step.
The colony picks the first node whose prefix sum exceeds u * total, which is
the count of prefix sums at or below it only while every score is
non-negative; a negative trail is therefore refused.  In general the target
is clamped strictly below the total, so the final positive-score candidate
absorbs residual rounding mass and a visited node can never be re-selected,
and a call in which some row total was zero or NaN is refused.

A call refuses a start outside [0, n_local) and a draw outside [0, 1].  The
clamp and the vanish check are skipped when one min/max pass over a call's
scores and draws proves them no-ops: every successor score exceeds
TRAIL_FLOOR, n_local times the largest stays below half the largest double
and every draw lies below 1.  Each row total then sums at least one
unvisited score, so it is finite, normal and above TRAIL_FLOOR and cannot
vanish.  For such a total T and u <= 1 - 2^-53, the exact u * T lies at
least T * 2^-53 below T: more than half the spacing of the doubles just
below T (a whole spacing when T is a power of two), so u * T rounds to a
double below T and the clamp would change nothing.  The bound is strict
because at T = TRAIL_FLOOR the spacing below is subnormal, as wide as the
one above, the gap is exactly half of it, and (1 - 2^-53) * TRAIL_FLOOR
rounds back to TRAIL_FLOOR.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# Smallest normal double.  Evaporation takes an untouched edge below it after
# ~1075 iterations at rho = 0.5 (after one at rho = 1); default runs stay far
# above it (0.9^1000 ~ 1.7e-46), so flooring leaves their answers unchanged.
TRAIL_FLOOR = np.finfo(float).tiny

# A row total is at most n_local times the largest score, grown by at most a
# factor (1 + 2^-53)^n_local by rounding in the running sum; keeping
# n_local * max score below half the largest double leaves that factor room.
_TOTAL_LIMIT = np.finfo(float).max / 2


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """View of a square C-ordered array's off-diagonal entries: the flat
    array past its first cell, cut into rows of n + 1 that each end on a
    diagonal cell."""
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


@dataclass(frozen=True)
class AcoParams:
    alpha: float = 1.0
    beta: float = 2.0
    rho: float = 0.1
    q_scale: float = 1.0
    kappa: float = 1.0
    n_ants: int = 50
    max_iter: int = 1000

    def __post_init__(self):
        for name in ("alpha", "beta", "rho", "q_scale", "kappa"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.q_scale <= 0:
            raise ValueError("q_scale must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        for name in ("n_ants", "max_iter"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def update_pheromones(colonies, tours) -> None:
    """Evaporate each colony's trail by (1 - rho), then deposit its subset's
    tour on it with the colony's own backbone."""
    for colony, tour in zip(colonies, tours, strict=True):
        colony.tau *= 1.0 - colony.params.rho
        colony.deposit(tour, colony.backbone_edges)


class SubsetColony:
    """Vectorised construction of a whole colony's tours over one subset.

    Works in local index space and owns the subset's trail ``tau``, an
    (n_local, n_local) block that starts at 1 with a zero diagonal (the rule
    ignores a uniform trail scale, so starting at c would act as q_scale / c).
    The static score factor (1/d)^beta * psi is precomputed; per iteration
    only tau changes.  Each ant's uniform draws arrive as one row of
    ``uniforms``: draw 0 picks the start, the rest drive successor roulette,
    so every ant consumes the same stream shape regardless of scheduling.
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
        self.tau = 1.0 - np.eye(self.n_local)

        self.dist = d[np.ix_(self.nodes, self.nodes)]
        off_diag = ~np.eye(self.n_local, dtype=bool)
        if np.any(self.dist[off_diag] <= 0):
            raise ValueError("zero distance inside subset: degenerate geometry")
        safe = self.dist + np.eye(self.n_local)
        eta = 1.0 / safe
        np.fill_diagonal(eta, 0.0)
        # An overflow to inf is refused by name in construct_colony.
        with np.errstate(over="ignore"):
            weight = eta ** params.beta
        if omega != 1.0:
            for u, v in self.backbone_edges:
                lu, lv = self._local_of[u], self._local_of[v]
                weight[lu, lv] *= omega
                weight[lv, lu] *= omega
        self.weight = weight

    def deposit(self, tour, backbone_edges) -> None:
        """Add q/L * (1 + kappa * [edge in ``backbone_edges``]) on the trail
        of each edge of ``tour``, a tour over this subset in global ids.
        Single-node tours deposit nothing."""
        if len(tour.order) < 2:
            return
        edges = list(tour.edge_set())
        local = self._local_of
        u = [local[a] for a, _ in edges]
        v = [local[b] for _, b in edges]
        p = self.params
        bonus = [p.kappa if e in backbone_edges else 0.0 for e in edges]
        amount = p.q_scale / tour.length * (1.0 + np.array(bonus + bonus))
        # Canonical edges (u < v) name 2E distinct cells, so one fancy-index
        # add on their flat positions equals adding them one by one.
        cells = np.array(u + v) * self.n_local + np.array(v + u)
        self.tau.reshape(-1)[cells] += amount

    def local_tau(self) -> np.ndarray:
        """The trail factor tau^alpha, floored at ``TRAIL_FLOOR`` off the
        diagonal so that no successor score underflows to zero."""
        alpha = self.params.alpha
        sub = self.tau ** alpha if alpha != 1.0 else self.tau.copy()
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

        ``uniforms`` is (n_ants, n_local) with every draw in [0, 1], and
        ``start_local`` lies in [0, n_local) when given.  Returns (orders,
        lengths) with orders in local indices, one row per ant.

        The clamp and the vanish check run only when the scores and draws
        do not prove them no-ops: when some successor score is at or below
        ``TRAIL_FLOOR``, ``n_local`` times the largest reaches half the
        largest double or a draw equals 1.  Otherwise every step's total is
        finite, normal and above ``TRAIL_FLOOR``, so it cannot vanish and
        the draw times it is already below it (see the module docstring).
        Both ways pick the same nodes, bit for bit.
        """
        na, nl = uniforms.shape
        if nl != self.n_local:
            raise ValueError("uniform block width must equal the subset size")
        if start_local is not None and not 0 <= start_local < nl:
            raise ValueError(f"start_local {start_local} outside [0, {nl})")
        u_lo, u_hi = uniforms.min(initial=0.0), uniforms.max(initial=0.0)
        if not 0.0 <= u_lo <= u_hi <= 1.0:  # NaN fails this too
            raise ValueError(f"uniform draws must lie in [0, 1], got {u_lo} to {u_hi}")
        score_tau = tau_local * self.weight
        # weight has a zero diagonal, so the diagonal of score_tau holds only
        # +-0 or NaN: the full max sees every NaN, and the off-diagonal min
        # is the least score a successor can have.
        lo = _off_diagonal(score_tau).min(initial=np.inf)
        hi = score_tau.max()
        has_nan = math.isnan(hi)
        # NaN passes the sign check, as it always has, and is left to the
        # vanish check.
        if lo < 0 and not has_nan:
            raise ValueError("negative trail: successor scores must be non-negative")
        # Visited columns are zeroed by multiplying with a 0/1 mask, which is
        # exact for finite scores but turns inf into NaN.
        if hi == np.inf or (has_nan and np.isinf(score_tau).any()):
            raise ValueError(
                "non-finite successor scores: (1/d)^beta or the trail overflows; "
                "rescale the coordinates or lower beta"
            )
        exact = lo > TRAIL_FLOOR and hi < _TOTAL_LIMIT / nl and u_hi < 1.0

        # picks[step] holds every ant's node at that step; it is copied to
        # one C-ordered row per ant at the end.
        picks = np.empty((nl, na), dtype=np.int64)
        avail = np.ones((na, nl))
        avail_flat = avail.reshape(-1)
        offsets = np.arange(na) * nl
        flat = np.empty(na, dtype=np.int64)

        cur = picks[0]
        if start_local is None:
            np.minimum((uniforms[:, 0] * nl).astype(np.int64), nl - 1, out=cur)
        else:
            cur[:] = int(start_local)
        avail_flat[np.add(offsets, cur, out=flat)] = 0.0

        draws = np.ascontiguousarray(uniforms.T)
        take = score_tau.take
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
            take(cur, axis=0, out=scores, mode="clip")
            np.multiply(scores, avail, out=scores)
            np.add.accumulate(scores, axis=1, out=cum)
            np.multiply(draws[step], total, out=target)
            if not exact:
                np.minimum(low, total, out=low)
                np.nextafter(total, -np.inf, out=cap)
                np.minimum(target, cap, out=target)
            # Scores are non-negative, so each row of cum never decreases and
            # `below` is a run of True followed only by False, with the last
            # column False (target < total): the first False, at the count
            # of True, is the pick.  A zero or NaN total leaves a row all
            # False and picks 0, a valid index; the check after the loop then
            # refuses the whole call.
            np.less_equal(cum, target_col, out=below)
            cur = below.argmin(axis=1, out=picks[step])
            avail_flat[np.add(offsets, cur, out=flat)] = 0.0
        if not exact and not (low > 0).all():  # NaN fails this too
            cause = ""
            if (_off_diagonal(self.weight) == 0).any():
                cause = ": (1/d)^beta underflows to 0; rescale the coordinates or lower beta"
            raise ValueError("all successor scores vanished during construction" + cause)
        orders = picks.T.copy()

        if nl == 1:
            lengths = np.zeros(na)
        else:
            # orders is C-contiguous; the pairwise sum of an F-ordered gather
            # would round differently.
            lengths = self.dist[orders[:, :-1], orders[:, 1:]].sum(axis=1)
            lengths = lengths + self.dist[orders[:, -1], orders[:, 0]]
        return orders, lengths

    def to_global(self, local_order: np.ndarray) -> tuple[int, ...]:
        return tuple(self.nodes[local_order].tolist())
