"""Pheromone-guided tour construction with a spanning-tree bias.

Successor choice is the product rule

    p(i -> j)  ~  tau_ij^alpha * (1/d_ij)^beta * psi_ij

where psi_ij = omega >= 1 on backbone (MST) edges, each counted once however
it is listed, and 1 elsewhere; omega = 1 switches the bias off.  A subset never changes during a solve, so each
subset's colony owns the trail over its own nodes, and no ant reads a trail
outside its subset.  After each iteration every colony's trail evaporates by
(1 - rho) and the colony's best tour deposits

    q_scale / L * (1 + kappa * [edge on the backbone])

on its edges.  kappa = 0 recovers plain ant-colony deposits, so the classic
algorithm is a parameter setting of this module, not a separate code path.

Sampling inverts the cumulative score sum with one uniform draw u per step.
The colony picks the first node whose prefix sum exceeds u * total, which is
the count of prefix sums at or below it only while every score is
non-negative, as every score is: a trail starts at 1 off the diagonal,
evaporates by 1 - rho in [0, 1) and takes deposits q/L * gain with L > 0.

Two invariants keep every pick on an unvisited node.  Every successor score
is at least 2 * TRAIL_FLOOR: each colony scales its visibility once by the
power of two that puts its least off-diagonal weight in [2, 4), and scores
its own trail through ``local_tau``, which floors it at TRAIL_FLOOR; the
scale leaves every product, prefix sum and pick with the same bits, barring
overflow.  And every draw is capped at 1 - 2^-53, the largest double below
1.  A colony refuses an empty subset, a least weight of 0 and a backbone
edge that is not a pair of integer ids in [0, n_local); a call refuses,
in this order, a draw block that is not a 2-D float64 ndarray, is not
aligned and C-contiguous, is read-only or has no rows, a start other than
an integer in [0, n_local), a draw outside [0, 1], a successor score that
is not finite (an overflowed visibility or trail, or the NaN that rho = 1
makes of an infinite trail), and n_local times the largest score reaching
half the largest double.

Each row total T then sums at least one unvisited score, so it is finite,
normal and above TRAIL_FLOOR.  For u <= 1 - 2^-53 the exact u * T lies at
least T * 2^-53 below T: more than half the spacing of the doubles just
below T (a whole spacing when T is a power of two), so u * T rounds to a
double below T; at u = 1 - 2^-53 it is the largest one, where clamping the
target below T would put a draw of 1.  T, the last prefix sum, exceeds the
target, so the first prefix sum that does follows a positive score, which
only an unvisited node has.  The bound is strict because at
T = TRAIL_FLOOR the spacing below is subnormal, as wide as the one above,
the gap is exactly half of it, and (1 - 2^-53) * TRAIL_FLOOR rounds back to
TRAIL_FLOOR.

The step loop runs compiled where it can (``roulette.c``, whose header
describes it, built, cached and loaded by ``native.py``) and in numpy
otherwise.  The numpy loop is the reference: the compiled call gives its
orders and lengths bit for bit.

A colony call checks its draw block's layout and its start in Python and
makes one compiled call for the rest: the refusals of its draws and
scores, returned as a code that Python raises with the numpy loop's
message, the scores (``local_tau() * weight``, formed in place in the
fresh array that ``local_tau()`` returns), the start columns, the capped
draws, the steps, and each ant's closed-tour length, whose legs it adds
in ``tour_lengths``'s order (numpy's pairwise sum of all legs but the
closing one, then the closing leg).  ``update_pheromones`` likewise checks
every tour in Python, then makes one compiled call per colony that
evaporates and deposits with the numpy update's products and sums.  A
third compiled call fills one iteration's draw blocks for ``solve``: numpy's
PCG64 stream, bit for bit; a fourth takes the steps of ``kruskal_mst``'s
Prim (see ``backbone.py``).  Every array the first three read is writable
and C-contiguous: a colony makes its trail, weight, deposit factors and
distance block so once, reads their addresses once, and no caller can
rebind them.  The first colony call, MST or solve loads the compiled calls
and enables them only once they give the numpy paths' tours, lengths,
trail, draws and spanning tree on a fixed case, whose draws put two ants'
targets exactly on a repeated running sum; where no compiler is found, a
build or a load fails, or the check fails, the numpy paths run, and
``step_loop()`` says which loop runs and why.
"""

from __future__ import annotations

import math
import numbers
from ctypes import addressof, c_char
from dataclasses import asdict, dataclass

import numpy as np

from .objective import tour_lengths

# Smallest normal double.  Evaporation takes an untouched edge below it after
# ~1075 iterations at rho = 0.5 (after one at rho = 1); default runs stay far
# above it (0.9^1000 ~ 1.7e-46), so flooring leaves their answers unchanged.
TRAIL_FLOOR = np.finfo(float).tiny

# A row total is at most n_local times the largest score, grown by at most a
# factor (1 + 2^-53)^n_local by rounding in the running sum; keeping
# n_local * max score below half the largest double leaves that factor room.
_TOTAL_LIMIT = np.finfo(float).max / 2


def _local_ids(ids, n: int, what: str) -> None:
    """Refuse by name, as a ``what``, an id in the sequence ``ids`` that is a
    bool or another non-integer, or that lies outside [0, n)."""
    for kind in set(map(type, ids)):
        if kind is bool or not issubclass(kind, (int, np.integer)):
            bad = next(v for v in ids if type(v) is kind)
            raise ValueError(f"{what} {bad!r} is not an integer")
    if ids and not (0 <= min(ids) and max(ids) < n):
        bad = next(v for v in ids if not 0 <= v < n)
        raise ValueError(f"{what} {bad} outside [0, {n})")


def finite_real(name: str, value) -> float:
    """``value`` as a Python float; a bool, a value that is not a real number
    and one that is not finite are refused by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer past the largest double
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value}")
    return real


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
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))
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
    lib = _step_kernel()
    for colony, tour, ring in zip(colonies, tours, rings):
        p = colony.params
        # A one-node tour deposits nothing, and its length may be 0.
        scale = p.q_scale / tour.length if len(ring) > 2 else 0.0
        if lib is None:
            _numpy_update(colony.n_local, colony.tau, 1.0 - p.rho, ring, scale, colony._gain)
        else:
            _c_update(lib, colony.n_local, colony._tau_at, 1.0 - p.rho, ring, scale,
                      colony._gain_at)


def _numpy_update(n, tau, keep, ring, scale, gain) -> None:
    """One colony's update in numpy, the reference of the compiled one: the
    (n, n) trail ``tau`` evaporates to ``keep`` times itself, then takes
    scale * gain on the cells of the closed ``ring``'s legs, where ``gain``
    is the colony's flat deposit factor."""
    tau *= keep
    _deposit(tau, ring, scale * gain[ring[:-1] * n + ring[1:]])


def _deposit(tau, ring, amount) -> None:
    """Add ``amount``, one number or one per leg, on the trail cell of each
    leg ring[i] -> ring[i + 1] of the closed ``ring`` and, when it has 3 or
    more nodes, on each leg's reverse; a one-node tour adds nothing.
    ``_ring`` refuses a repeated node, so a tour's forward cells are
    distinct, and so are its backward ones; only a 2-node tour's backward
    cells repeat its forward ones."""
    here, succ = ring[:-1], ring[1:]
    if len(here) > 1:
        tau[here, succ] += amount
        if len(here) > 2:
            tau[succ, here] += amount


class SubsetColony:
    """Vectorised construction of a whole colony's tours over one subset.

    Works in the subset's local ids 0..n_local-1.  ``dist`` is the subset's
    (n_local, n_local) distance block (see ``instances.distance_block``),
    kept as a copy of its own, the read-only attribute ``dist``, and
    ``backbone_edges`` is any sequence of (u, v) pairs of local ids in
    either orientation, an (E, 2) integer array included.  The colony owns
    the subset's trail, the read-only attribute ``tau``, written only in
    place (``tau[...] = x``): an (n_local, n_local) block that starts at 1
    with a zero diagonal (the rule ignores a uniform trail scale, so
    starting at c would act as q_scale / c).
    The static score factor, the read-only attribute ``weight``,
    (1/d)^beta * psi scaled by a power of two (see the module docstring),
    is precomputed; per iteration only tau changes.  No attribute can be
    rebound, so each array keeps the address that ``__init__`` reads once
    for the compiled calls.  Each ant's uniform draws arrive as one row of
    ``uniforms``: draw 0 picks the start, the rest drive successor roulette,
    so every ant consumes the same stream shape regardless of scheduling.
    A call returns arrays of its own.
    """

    def __init__(self, dist: np.ndarray, backbone_edges, omega: float, params: AcoParams):
        self._dist = d = np.array(dist, dtype=np.float64, order="C")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance block of shape {np.shape(dist)} is not square")
        self.n_local = n = len(d)
        if n == 0:
            raise ValueError("distance block of shape (0, 0) is an empty subset")
        self.params = params
        self._tau = 1.0 - np.eye(n)
        ends = []
        for edge in backbone_edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"backbone edge {edge!r} is not a pair") from None
            ends += u, v
        _local_ids(ends, n, "backbone edge end")
        # An edge is undirected and counts once, however often it is listed.
        backbone = np.zeros((n, n), dtype=bool)
        backbone[ends[0::2], ends[1::2]] = backbone[ends[1::2], ends[0::2]] = True
        # Per flat trail cell, the deposit factor 1 + kappa * [edge on the backbone].
        self._gain = np.where(backbone, 1.0 + params.kappa, 1.0).reshape(-1)

        off_diag = ~np.eye(n, dtype=bool)
        if np.any(d[off_diag] <= 0):
            raise ValueError("zero distance inside subset: degenerate geometry")
        eta = np.divide(1.0, d, out=np.zeros((n, n)), where=off_diag)
        # An overflow to inf is refused by name in construct_colony.
        with np.errstate(over="ignore"):
            weight = eta ** params.beta
            weight[backbone] *= omega
            least = np.min(weight, where=off_diag, initial=np.inf)
            if least == 0:
                raise ValueError(
                    "(1/d)^beta underflows to 0; rescale the coordinates or lower beta")
            # least = f * 2^e with f in [0.5, 1), so least * 2^(2 - e) lies in [2, 4)
            self._weight = np.ldexp(weight, 2 - math.frexp(least)[1])
        self._dist_at, self._weight_at, self._tau_at, self._gain_at = map(
            _address, (d, self._weight, self._tau, self._gain))

    @property
    def tau(self) -> np.ndarray:
        return self._tau

    @property
    def dist(self) -> np.ndarray:
        return self._dist

    @property
    def weight(self) -> np.ndarray:
        return self._weight

    def deposit(self, tour) -> None:
        """The seed tour's deposit: q/L * (1 + kappa) on the trail of each
        edge of ``tour``, in this colony's local ids.  Single-node tours
        deposit nothing; an id other than an integer in [0, n_local) or that
        appears twice is refused, and so is a tour of 2 or more nodes whose
        length is not a positive finite number."""
        ring = self._ring(tour)
        if len(ring) > 2:
            p = self.params
            _deposit(self.tau, ring, p.q_scale / tour.length * (1.0 + p.kappa))

    def _ring(self, tour) -> np.ndarray:
        """The tour's ids closed on its start, so that its legs run
        ring[i] -> ring[i + 1].  It refuses every tour that ``deposit``
        refuses, so that ``update_pheromones`` checks each before any trail
        changes."""
        order = tuple(tour.order)
        _local_ids(order, self.n_local, "tour node")
        if len(order) > 1 and not 0.0 < tour.length < math.inf:  # NaN fails this too
            raise ValueError(f"tour length {tour.length!r} is not a positive finite number")
        if len(set(order)) < len(order):
            repeated = next(v for i, v in enumerate(order) if v in order[:i])
            raise ValueError(f"tour node {repeated} is visited more than once")
        return np.array(order + order[:1], dtype=np.int64)

    def local_tau(self) -> np.ndarray:
        """The trail factor tau^alpha, floored at ``TRAIL_FLOOR`` off the
        diagonal so that no successor score underflows to zero."""
        alpha = self.params.alpha
        sub = np.maximum(self.tau ** alpha if alpha != 1.0 else self.tau, TRAIL_FLOOR)
        sub.reshape(-1)[:: self.n_local + 1] = 0.0
        return sub

    def construct_colony(
        self, start_local: int | None, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """All ants' tours for one iteration, scored on ``local_tau() * weight``.

        ``start_local`` is an integer in [0, n_local), or None to start each
        ant at its first draw, and ``uniforms`` a writable, aligned,
        C-contiguous (n_ants, n_local) float64 ndarray, n_ants >= 1, of draws
        in [0, 1].  Returns (orders, lengths), orders in local ids, one row
        per ant.  After the checks of the block's layout and of the start,
        both loops refuse by name, in this order, a draw outside [0, 1],
        scores that are not finite, and n_local times the largest score
        reaching half the largest double.
        """
        if not isinstance(uniforms, np.ndarray) or uniforms.dtype != np.float64:
            kind = (f"dtype {uniforms.dtype}" if isinstance(uniforms, np.ndarray)
                    else f"type {type(uniforms).__name__}")
            raise ValueError(f"uniform block of {kind} is not a float64 ndarray")
        if uniforms.ndim != 2:
            raise ValueError(
                f"uniform block of shape {uniforms.shape} is not (n_ants, {self.n_local})")
        nl = uniforms.shape[1]
        if nl != self.n_local:
            raise ValueError("uniform block width must equal the subset size")
        if not (uniforms.flags.carray and len(uniforms)):  # aligned, writable and C-ordered
            fault = ("has no rows" if not len(uniforms) else "is read-only"
                     if not uniforms.flags.writeable else "is not C-contiguous and aligned")
            raise ValueError(f"uniform block of shape {uniforms.shape} {fault}")
        if start_local is not None:
            _local_ids((start_local,), nl, "start_local")
        with np.errstate(over="ignore"):  # an overflow is refused below
            score = self.local_tau()
        lib = _step_kernel()
        if lib is None:
            return _numpy_colony(score, start_local, uniforms, self.weight, self.dist)
        return _c_colony(lib, score, start_local, uniforms, self._weight_at, self._dist_at)


# The compiled calls (see native.py): None until a colony call first asks
# for them, then the checked ctypes library, or the reason the numpy paths
# run instead.
_kernel = None


def step_loop() -> str:
    """Which step loop colony calls run: ``"c"``, or ``"numpy (<why>)"``
    when the compiled calls are unavailable.  Loads them on first use."""
    return "c" if _step_kernel() is not None else f"numpy ({_kernel})"


def _step_kernel():
    """The compiled calls' library, or None when the numpy paths run.  The
    first call builds or loads it and enables it only if it gives what the
    numpy paths give on a fixed case."""
    global _kernel
    if _kernel is None:
        from . import native

        try:
            lib = native.load()
        except (native.Unavailable, OSError) as exc:
            _kernel = str(exc)
        else:
            _kernel = lib if _agrees(lib) else "it differs from the numpy loop on its self-check"
    return None if isinstance(_kernel, str) else _kernel


# The refusals a colony call makes after the checks of its layout and its
# start, in order, by the code that the compiled call returns.
_DRAW_OUTSIDE, _SCORE_NOT_FINITE, _SCORES_TOO_LARGE = 1, 2, 3


def _refuse(code: int, uniforms: np.ndarray):
    """Raise the ValueError of a colony call's refusal ``code``; only the
    message of a draw outside [0, 1] reads the draws."""
    if code == _DRAW_OUTSIDE:
        lo, hi = uniforms.min(initial=0.0), uniforms.max(initial=0.0)
        raise ValueError(f"uniform draws must lie in [0, 1], got {lo} to {hi}")
    if code == _SCORE_NOT_FINITE:
        raise ValueError("non-finite successor scores: (1/d)^beta or the trail overflows; "
                         "rescale the coordinates or lower beta")
    raise ValueError("successor scores too large: a row total could overflow; "
                     "rescale the coordinates or lower beta")


def _numpy_colony(score, start_local, uniforms, weight, dist) -> tuple:
    """A colony call's refusals, orders and lengths after the checks of its
    layout and its start, in numpy: the reference of ``_c_colony``.  The
    scores are formed in place in ``score``, the call's trail factor."""
    if not 0.0 <= uniforms.min(initial=0.0) <= uniforms.max(initial=0.0) <= 1.0:  # NaN too
        _refuse(_DRAW_OUTSIDE, uniforms)
    with np.errstate(over="ignore"):  # an overflow is refused below
        score *= weight
    # Visited columns are zeroed by multiplying with a 0/1 mask, which is
    # exact for finite scores but turns inf into NaN; the max sees both.
    hi = score.max()
    if not math.isfinite(hi):
        _refuse(_SCORE_NOT_FINITE, uniforms)
    if not hi < _TOTAL_LIMIT / len(score):
        _refuse(_SCORES_TOO_LARGE, uniforms)
    na, nl = uniforms.shape
    if start_local is None:
        cur = np.minimum((uniforms[:, 0] * nl).astype(np.int64), nl - 1)
    else:
        cur = np.full(na, start_local, dtype=np.int64)
    draws = np.minimum(uniforms, 1.0 - 2.0**-53)
    orders = np.empty((na, nl), dtype=np.int64)
    orders[:, 0] = cur
    avail = np.ones((na, nl))
    ants = np.arange(na)
    for step in range(1, nl):
        avail[ants, cur] = 0.0
        # Scores are non-negative, so each row of cum never decreases, and
        # the target lies below its total: the first prefix sum that exceeds
        # it, at the count of those at or below it, follows a positive score.
        cum = np.cumsum(score[cur] * avail, axis=1)
        cur = orders[:, step] = np.argmin(cum <= draws[:, step, None] * cum[:, -1:], axis=1)
    return orders, tour_lengths(orders, dist)


def _address(array: np.ndarray) -> int:
    """The address of the data of ``array``: writable, C-contiguous, not empty."""
    return addressof(c_char.from_buffer(array))


def _c_colony(lib, score, start_local, uniforms, weight_at, dist_at) -> tuple:
    """``_numpy_colony`` as one call of the compiled ``lib``, given the
    addresses of the colony's weight and distance block."""
    na, nl = uniforms.shape
    orders = np.empty((na, nl), dtype=np.int64)
    lengths = np.empty(na)
    code = lib.sinepath_colony(
        na, nl, _address(score), weight_at, _address(uniforms),
        -1 if start_local is None else int(start_local), dist_at, _address(orders),
        _address(lengths))
    if code < 0:
        raise MemoryError(f"no memory for the scratch of a call of {na} ants on {nl} nodes")
    if code:
        _refuse(code, uniforms)
    return orders, lengths


def _c_update(lib, n, tau_at, keep, ring, scale, gain_at) -> None:
    """``_numpy_update`` as one call of the compiled ``lib``, given the
    addresses of the trail and the deposit factors."""
    lib.sinepath_update(n, tau_at, keep, _address(ring), len(ring) - 1, gain_at, scale)


def _fixed_case() -> tuple:
    """The self-check's case: scores, distances and draws of a colony call
    of 6 ants on 47 nodes, and a trail, a ring, a scale and a gain for an
    update.  Scores and distances span 60 and 10 orders of magnitude, ant 0
    draws 0 and ant 1 draws 1 at every step.  Row 0 scores sixteen columns
    1, then fourteen 1e-300, too small to change a running sum of 16, then
    sixteen 1, so its total is 32 and its running sum repeats 16 fourteen
    times.  Ants 2 and 4 start at node 0, whether starts are drawn or node
    0 is given, and draw 0.5 at step 1, so their first targets land exactly
    on that repeated sum."""
    rng = np.random.default_rng(47)
    score = 10.0 ** rng.uniform(-30.0, 30.0, (47, 47))
    score[0] = 1.0
    score[0, 17:31] = 1e-300
    np.fill_diagonal(score, 0.0)
    dist = 10.0 ** rng.uniform(-5.0, 5.0, (47, 47))
    np.fill_diagonal(dist, 0.0)
    uniforms = rng.random((6, 47))
    uniforms[0], uniforms[1] = 0.0, 1.0
    uniforms[[2, 4], :2] = 0.0, 0.5
    trail = 10.0 ** rng.uniform(-30.0, 30.0, (47, 47))
    np.fill_diagonal(trail, 0.0)
    order = rng.permutation(47)
    gain = np.where(rng.random(47 * 47) < 0.1, 2.5, 1.0)
    return score, dist, uniforms, (trail, np.append(order, order[0]), 0.37, gain)


def _agrees(lib) -> bool:
    """Whether ``lib`` gives the numpy paths' answers on ``_fixed_case``: 47
    nodes, at least GROUP_MIN, and 6 ants, so that the C loop runs one group
    of four ants and two ants alone, with starts drawn and given; one
    update of the trail; one iteration's draw blocks of 47, 1 and 13
    columns against numpy's generators; and one Prim over 47 nodes whose
    weights of 0 to 3 tie often and whose triangles differ."""
    score, dist, uniforms, (trail, ring, scale, gain) = _fixed_case()
    # Powers of two, so that the trail factor times the weight gives the
    # case's scores back exactly.
    weight = np.ldexp(1.0, np.arange(47 * 47).reshape(47, 47) % 7 - 3)
    for start in (None, 0):
        want = _numpy_colony(score / weight, start, uniforms, weight, dist)
        got = _c_colony(lib, score / weight, start, uniforms, _address(weight), _address(dist))
        if not all(map(np.array_equal, got, want)):
            return False
    want, got = trail.copy(), trail.copy()
    _numpy_update(47, want, 0.7, ring, scale, gain)
    _c_update(lib, 47, _address(got), 0.7, ring, scale, _address(gain))
    if not np.array_equal(got, want):
        return False
    seeds = [np.random.SeedSequence((47, k)) for k in range(3)]
    widths = np.array([47, 1, 13], dtype=np.int64)
    states = np.array([seed.generate_state(4, np.uint64) for seed in seeds])
    draws = np.empty(6 * widths.sum())
    lib.sinepath_draws(len(widths), _address(states), 6, _address(widths), _address(draws))
    want = [np.random.default_rng(seed).random(6 * w) for seed, w in zip(seeds, widths)]
    if not np.array_equal(draws, np.concatenate(want)):
        return False
    from .backbone import _c_prim, _numpy_prim

    d = np.floor(4.0 * np.random.default_rng(46).random((47, 47)))
    want = np.empty(46, dtype=np.int64), np.empty(46, dtype=np.int64), np.empty(46)
    got = tuple(map(np.empty_like, want))
    _numpy_prim(d, *want)
    _c_prim(lib, d, *got)
    return all(map(np.array_equal, got, want))
