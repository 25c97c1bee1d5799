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
    tour on it with the colony's own backbone.  Every tour is checked before
    any trail changes, so a refused call leaves every trail as it was."""
    rings = [colony._ring(tour) for colony, tour in zip(colonies, tours, strict=True)]
    for colony, tour, ring in zip(colonies, tours, rings):
        colony.tau *= 1.0 - colony.params.rho
        colony._deposit(ring, tour.length)


class SubsetColony:
    """Vectorised construction of a whole colony's tours over one subset.

    Works in the subset's local ids 0..n_local-1.  ``dist`` is the subset's
    (n_local, n_local) distance block (see ``instances.distance_block``),
    which the colony keeps, and ``backbone_edges`` are (u, v) pairs of local
    ids.  The colony owns the subset's trail ``tau``, an (n_local, n_local)
    block that starts at 1 with a zero diagonal (the rule ignores a uniform
    trail scale, so starting at c would act as q_scale / c).
    The static score factor (1/d)^beta * psi is precomputed; per iteration
    only tau changes.  Each ant's uniform draws arrive as one row of
    ``uniforms``: draw 0 picks the start, the rest drive successor roulette,
    so every ant consumes the same stream shape regardless of scheduling.
    The step buffers are kept from one call to the next (see
    ``_workspace``); a call returns arrays of its own.
    """

    def __init__(self, dist: np.ndarray, backbone_edges, omega: float, params: AcoParams):
        self.dist = np.ascontiguousarray(dist, dtype=np.float64)
        if self.dist.ndim != 2 or self.dist.shape[0] != self.dist.shape[1]:
            raise ValueError(f"distance block of shape {np.shape(dist)} is not square")
        self.n_local = n = len(self.dist)
        self.params = params
        self.tau = 1.0 - np.eye(n)
        edges = np.array(sorted(backbone_edges), dtype=np.int64).reshape(-1, 2)
        if ((edges < 0) | (edges >= n)).any():
            raise ValueError(f"backbone edge with an end outside [0, {n})")
        bu, bv = edges.T
        # Per flat trail cell, the deposit factor 1 + kappa * [edge on the backbone].
        gain = np.ones((n, n))
        gain[bu, bv] = gain[bv, bu] = 1.0 + params.kappa
        self._gain = gain.reshape(-1)
        self._work = None

        off_diag = ~np.eye(n, dtype=bool)
        if np.any(self.dist[off_diag] <= 0):
            raise ValueError("zero distance inside subset: degenerate geometry")
        safe = self.dist + np.eye(n)
        eta = 1.0 / safe
        np.fill_diagonal(eta, 0.0)
        # An overflow to inf is refused by name in construct_colony.
        with np.errstate(over="ignore"):
            weight = eta ** params.beta
            if omega != 1.0:
                weight[bu, bv] *= omega
                weight[bv, bu] *= omega
        self.weight = weight

    def deposit(self, tour, *, flat_bonus: bool = False) -> None:
        """Add q/L * (1 + kappa * [edge on the backbone]) on the trail of
        each edge of ``tour``, a tour in this colony's local ids; with
        ``flat_bonus`` every edge earns q/L * (1 + kappa), as the seed tour's
        do.  Single-node tours deposit nothing; an id outside [0, n_local)
        is refused."""
        self._deposit(self._ring(tour), tour.length, flat_bonus)

    def _ring(self, tour) -> np.ndarray:
        """The tour's ids closed on its start, so that its legs run
        ring[i] -> ring[i + 1]; an id outside [0, n_local) is refused."""
        order = tuple(tour.order)
        ring = np.array(order + order[:1], dtype=np.int64)
        if len(order) and not (0 <= ring.min() and ring.max() < self.n_local):
            foreign = next(v for v in order if not 0 <= v < self.n_local)
            raise ValueError(f"tour node {foreign} outside [0, {self.n_local})")
        return ring

    def _deposit(self, ring: np.ndarray, length: float, flat_bonus: bool = False) -> None:
        here, succ = ring[:-1], ring[1:]
        if len(here) < 2:
            return
        fwd = here * self.n_local + succ
        p = self.params
        scale = p.q_scale / length
        amount = scale * (1.0 + p.kappa) if flat_bonus else scale * self._gain[fwd]
        # A tour's forward cells are distinct, and so are its backward ones;
        # only a 2-node tour's backward cells repeat its forward ones.
        tau = self.tau.reshape(-1)
        tau[fwd] += amount
        if len(here) > 2:
            tau[succ * self.n_local + here] += amount

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
        with np.errstate(over="ignore"):  # an overflow is refused below
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

        (picks, avail, offsets, flat, draws, scores, cum, below, target, cap, low,
         target_col, total) = self._workspace(na)
        avail.fill(1.0)
        low.fill(np.inf)
        avail_flat = avail.reshape(-1)
        put = avail_flat.put
        add, multiply, minimum, nextafter = np.add, np.multiply, np.minimum, np.nextafter
        accumulate, less_equal, argmin = np.add.accumulate, np.less_equal, below.argmin

        cur = picks[0]
        if start_local is None:
            minimum((uniforms[:, 0] * nl).astype(np.int64), nl - 1, out=cur)
        else:
            cur[:] = int(start_local)
        put(add(offsets, cur, out=flat), 0.0)

        draws[...] = uniforms.T
        take = score_tau.take
        # On the exact path the last step is not run: each ant has one
        # unvisited node left, whose score alone is positive and whose
        # prefix sum, the total, exceeds the target, so the roulette picks it.
        for step in range(1, nl - 1 if exact else nl):
            # Indices are in range; mode="clip" only spares take() from
            # buffering its output.
            take(cur, axis=0, out=scores, mode="clip")
            multiply(scores, avail, out=scores)
            accumulate(scores, axis=1, out=cum)
            multiply(draws[step], total, out=target)
            if not exact:
                minimum(low, total, out=low)
                nextafter(total, -np.inf, out=cap)
                minimum(target, cap, out=target)
            # Scores are non-negative, so each row of cum never decreases and
            # `below` is a run of True followed only by False, with the last
            # column False (target < total): the first False, at the count
            # of True, is the pick.  A zero or NaN total leaves a row all
            # False and picks 0, a valid index; the check after the loop then
            # refuses the whole call.
            less_equal(cum, target_col, out=below)
            cur = argmin(axis=1, out=picks[step])
            put(add(offsets, cur, out=flat), 0.0)
        if exact and nl > 1:
            avail.argmax(axis=1, out=picks[-1])
        elif not exact and not (low > 0).all():  # NaN fails this too
            cause = ""
            if (_off_diagonal(self.weight) == 0).any():
                cause = ": (1/d)^beta underflows to 0; rescale the coordinates or lower beta"
            raise ValueError("all successor scores vanished during construction" + cause)
        orders = picks.T.copy()

        if nl == 1:
            lengths = np.zeros(na)
        else:
            # orders is C-contiguous, and so is the gather of its legs; the
            # pairwise sum of an F-ordered gather would round differently.
            dist = self.dist.reshape(-1)
            lengths = dist.take(orders[:, :-1] * nl + orders[:, 1:]).sum(axis=1)
            lengths = lengths + dist.take(orders[:, -1] * nl + orders[:, 0])
        return orders, lengths

    def _workspace(self, na: int) -> tuple:
        """The step buffers for ``na`` ants, allocated on the first call and
        again only when the ant count changes.  picks[step] holds every
        ant's node at that step; it is copied to one C-ordered row per ant
        at the end."""
        if self._work is None or self._work[0] != na:
            nl = self.n_local
            cum = np.empty((na, nl))
            target = np.empty(na)
            self._work = na, (
                np.empty((nl, na), dtype=np.int64),  # picks
                np.empty((na, nl)),  # avail
                np.arange(na) * nl,  # offsets
                np.empty(na, dtype=np.int64),  # flat
                np.empty((nl, na)),  # draws
                np.empty((na, nl)),  # scores
                cum,
                np.empty((na, nl), dtype=bool),  # below
                target,
                np.empty(na),  # cap
                np.empty(na),  # low
                target[:, None],
                cum[:, -1],  # total
            )
        return self._work[1]
