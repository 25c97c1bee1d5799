"""End-to-end solve: partition, backbone, seed, colony loop, report.

The pipeline: build the dense distance matrix, compute the global MST on
it and drop it, split the nodes into per-robot subsets, then run one
pheromone colony per subset.  The global MST is the only step that reads
distances across subsets; each colony gets its own subset's distance block
(``instances.distance_block``, the matrix's bits for those node pairs), so
after the MST the solve holds no n x n array.  The subsets stay fixed, so
each colony also keeps the trail over its own subset.  The bias and the
deposit bonus see the global MST restricted to each subset; the optional
seed tour is a Christofides-style shortcut of the per-subset MST, computed
on the colony's block, registered as the initial incumbent and given one
bonus deposit on its colony's trail before the first iteration.  With
depots, ``partition_by_depots`` also gives each robot its start node: every
ant of its colony starts there, and its seed tour is read from there.

``solve`` is the only code that knows node ids.  Each colony, its backbone
edges, its seed and its tours use the subset's local ids 0..k-1 (position i
of the ascending subset); the incumbent is mapped to node ids once, after
the last iteration.

Determinism contract: every uniform draw derives from
(master_seed, stream, iteration, subset), with each ant reading its own row
of the per-subset draw block, so no draw depends on the order the subsets run in.
Each block's generator starts from the state a SeedSequence of that tuple
would give it, so it draws exactly what seeding from the tuple does; those
states are hashed in one pass of uint32 array operations per
``_SEED_CHUNK`` iterations (``_colony_seeds``) instead of by one
SeedSequence per block.  On the compiled loop one call of ``roulette.c``
per iteration runs numpy's PCG64 from those states and fills every block,
bit for bit; on the numpy loop each block is numpy's own ``Generator``.
The incumbent only improves strictly, which makes the convergence trace
monotone non-increasing.

Mode "aco" is the same code path with omega = 1, kappa = 0 and seeding off.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .aco import (AcoParams, SubsetColony, _address, _step_kernel, finite_real,
                  update_pheromones)
from .backbone import christofides_seed, kruskal_mst, restrict_edges
from .backbone import dfs_preorder_seed  # noqa: F401  perfbench's tracer wraps this name
from .instances import Instance, build_distance_matrix, distance_block
from .objective import Objectives, Tour, evaluate_objectives, scalarized_objective, tour_length
from .partition import (Partition, _check_m, _depots, partition_angle, partition_by_depots,
                        partition_kmeans_like)

MODE_SINE = "sine"
MODE_CLASSIC = "aco"
PARTITION_METHODS = ("angle", "kmeans")

# Sub-stream tags under the master seed.
_STREAM_PARTITION = 0
_STREAM_COLONY = 1

# Knobs retired because they reached nothing that another value does not,
# echoed at their only value (``gamma`` inside ``aco``) so that reports and
# their golden hashes stay byte-identical; the next declared re-record of the
# goldens drops them from the echo.
_RETIRED_ECHO = {
    "repartition_each_iter": False,
    "matching_method": "greedy",
    "backbone_per_subset": False,
    "tau0": 1.0,
    "mu": 0.0,
    "seed_method": "christofides",
}

@dataclass(frozen=True)
class SolverConfig:
    aco: AcoParams = field(default_factory=AcoParams)
    omega: float = 2.0
    lambda_weight: float = 0.5
    partition_method: str = "angle"
    seed_with_christofides: bool = True
    master_seed: int = 0
    stagnation_window: int | None = None
    depots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        for name in ("omega", "lambda_weight"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))
        if self.omega < 1.0:
            raise ValueError("omega must be at least 1")
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.partition_method not in PARTITION_METHODS:
            raise ValueError(f"unknown partition method {self.partition_method!r}")
        if type(self.seed_with_christofides) is not bool:
            raise ValueError(
                f"seed_with_christofides must be a bool, got {self.seed_with_christofides!r}")
        seed, window = self.master_seed, self.stagnation_window
        if type(seed) is not int or seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {seed!r}")
        if window is not None and (type(window) is not int or window < 1):
            raise ValueError(f"stagnation_window must be a positive integer, got {window!r}")
        if self.depots is not None:
            object.__setattr__(self, "depots", _depots(self.depots))
            if self.partition_method == "kmeans":
                raise ValueError("depots decide the partition: partition_method 'kmeans' "
                                 "cannot be combined with depots")

    @property
    def mode(self) -> str:
        """Derived: "aco" if the prior is off (omega 1, kappa 0, no seed tour), else "sine"."""
        plain = self.omega == 1.0 and self.aco.kappa == 0.0 and not self.seed_with_christofides
        return MODE_CLASSIC if plain else MODE_SINE

    @staticmethod
    def classic(**kwargs) -> "SolverConfig":
        """Plain ant colony: the biased solver with its prior switched off."""
        aco = replace(kwargs.pop("aco", AcoParams()), kappa=0.0)
        return SolverConfig(aco=aco, omega=1.0, seed_with_christofides=False, **kwargs)

    def to_dict(self) -> dict:
        depots = None if self.depots is None else [list(p) for p in self.depots]
        aco = {**asdict(self.aco), "gamma": 1.0}
        return {**asdict(self), "aco": aco, "depots": depots, "mode": self.mode, **_RETIRED_ECHO}


@dataclass
class IncumbentState:
    """Best tour collection seen so far and the per-iteration J trace."""

    tours: tuple[Tour, ...] | None = None
    j_value: float = float("inf")
    trace: list[float] = field(default_factory=list)
    last_improvement: int = -1


def incumbent_update(
    state: IncumbentState, candidates, lam: float, iteration: int
) -> IncumbentState:
    """Replace the incumbent only on strict J improvement; append to the trace."""
    j = scalarized_objective([t.length for t in candidates], lam)
    if j < state.j_value:
        state.tours = tuple(candidates)
        state.j_value = j
        state.last_improvement = iteration
    state.trace.append(state.j_value)
    return state


@dataclass
class SolveReport:
    """Everything one run produced, sufficient to reproduce and to plot."""

    instance: str
    robots: int
    tours: tuple[Tour, ...]
    objectives: Objectives
    convergence: tuple[float, ...]
    iterations_run: int
    seed: int
    config: dict
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        data = asdict(self)
        # Echoes of what a partition built from one robot label per node fixes
        # (no two tours share an edge, so the retired mu * overlap is 0 and
        # J' = J), kept so that reports keep their bytes until the next re-record.
        data["objectives"].update(overlap_total=0, mu=0.0, j_prime=self.objectives.j_value)
        return data

    def canonical_json(self) -> str:
        """Deterministic serialisation; wall time is physical and excluded."""
        data = self.to_dict()
        del data["wall_time"]
        return json.dumps(data, sort_keys=True)


def _make_partition(
    inst: Instance, m: int, cfg: SolverConfig
) -> tuple[Partition, tuple[int, ...] | None]:
    """The subsets, and with depots each subset's start node."""
    if cfg.depots is not None:
        if len(cfg.depots) != m:
            raise ValueError("number of depots must equal the robot count")
        return partition_by_depots(inst, cfg.depots)
    if cfg.partition_method == "angle":
        return partition_angle(inst, m), None
    # The trailing 0 keeps the recorded kmeans answers and their hashes.
    ss = np.random.SeedSequence((cfg.master_seed, _STREAM_PARTITION, 0))
    return partition_kmeans_like(inst, m, int(ss.generate_state(1)[0])), None


def _uint32_words(x: int) -> list[int]:
    """The little-endian 32-bit words of ``x >= 0``, at least one."""
    words = [x & 0xFFFFFFFF]
    while x := x >> 32:
        words.append(x & 0xFFFFFFFF)
    return words


def _colony_entropy(master_seed: int, t: int, n: int, m: int) -> np.ndarray:
    """Row i * m + k is the uint32 array numpy builds from the tuple
    (master_seed, _STREAM_COLONY, t + i, k) when it seeds a SeedSequence,
    for i < n and k < m.  The n iterations must share every word of t above
    the lowest, so that the rows share one width."""
    low, high = t & 0xFFFFFFFF, t >> 32
    assert (t + n - 1) >> 32 == high, "iterations that differ above their lowest word"
    head = _uint32_words(master_seed) + [_STREAM_COLONY]
    tail = _uint32_words(high) if high else []
    entropy = np.empty((n, m, len(head) + len(tail) + 2), dtype=np.uint32)
    entropy[...] = head + [0] + tail + [0]
    entropy[:, :, len(head)] = np.arange(low, low + n)[:, None]
    entropy[:, :, -1] = np.arange(m)
    return entropy.reshape(n * m, -1)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which NEP 19
# keeps stream-stable: a pool of 4 uint32 words, multiply-xorshift steps
# whose running constants do not depend on the data, and a mix of each pool
# word with every other.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column vectors of what n successive hash steps xor with and multiply
    by: the running constant before and after each step's update."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _xorshift(v: np.ndarray) -> np.ndarray:
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_L * x - _MIX_R * y)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """Row r is ``SeedSequence(entropy[r]).generate_state(4, np.uint64)``
    for an (rows, w) uint32 array with w >= 4, as every colony block's
    entropy is: numpy's pool mix and output hash run as uint32 array
    operations over all rows at once, which wrap as numpy's scalar C code
    does.  Past the pool a zero word is not neutral, so rows of another
    width need a call of their own."""
    words = entropy.T
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * len(words))
    pool = _xorshift((words[:_POOL] ^ xor[:_POOL]) * mul[:_POOL])
    c = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = _mix(pool[dst], _xorshift((pool[src] ^ xor[c]) * mul[c]))
                c += 1
    for word in words[_POOL:]:
        pool = _mix(pool, _xorshift((word ^ xor[c : c + _POOL]) * mul[c : c + _POOL]))
        c += _POOL
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    out = _xorshift((np.concatenate((pool, pool)) ^ xor) * mul).astype(np.uint64)
    # Little-endian word pairs, as generate_state views them.
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)


def _colony_seeds(master_seed: int, t: int, n: int, m: int) -> np.ndarray:
    """(n, m, 4) uint64: entry [i, k] is the state that
    ``SeedSequence((master_seed, _STREAM_COLONY, t + i, k))`` hands PCG64,
    hashed in one pass.  The n iterations must share every word of t above
    the lowest, as those of one seeding chunk do."""
    return _seed_states(_colony_entropy(master_seed, t, n, m)).reshape(n, m, _POOL)


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A seed whose PCG64 state was hashed in advance by ``_colony_seeds``."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state  # PCG64 asks for 4 uint64 words


# Iterations whose draw blocks are seeded in one pass: enough rows to spread
# numpy's per-call cost, few enough that a solve that stops early has hashed
# little it does not use.  A chunk starts at a multiple of this power of two,
# which divides 2^32, so its iterations share every word above the lowest.
_SEED_CHUNK = 256


def _draw_blocks(master_seed: int, n_iter: int, n_ants: int, widths: list[int]):
    """Yield, for each of ``n_iter`` iterations t, one (n_ants, widths[k])
    draw block per subset k: the draws of
    ``default_rng(SeedSequence((master_seed, _STREAM_COLONY, t, k)))``.
    On the compiled loop one call per iteration fills every block, and the
    blocks are views of one buffer that the next iteration overwrites; on
    the numpy loop each block is a ``Generator`` of its own."""
    lib = _step_kernel()
    if lib is not None:
        buffer = np.empty(n_ants * sum(widths))
        ends = np.cumsum([0, *widths]) * n_ants
        blocks = [buffer[a:b].reshape(n_ants, -1) for a, b in zip(ends, ends[1:])]
        c_widths = np.array(widths, dtype=np.int64)
        # The arrays stay referenced here for as long as the addresses are used.
        widths_at, buffer_at = _address(c_widths), _address(buffer)
    for t in range(n_iter):
        if t % _SEED_CHUNK == 0:
            states = _colony_seeds(master_seed, t, min(_SEED_CHUNK, n_iter - t), len(widths))
            states_at = _address(states)
        if lib is None:
            yield [np.random.Generator(np.random.PCG64(_SeedState(state))).random((n_ants, w))
                   for state, w in zip(states[t % _SEED_CHUNK], widths)]
        else:
            row_at = states_at + (t % _SEED_CHUNK) * states.strides[0]
            lib.sinepath_draws(len(widths), row_at, n_ants, widths_at, buffer_at)
            yield blocks


def solve(inst: Instance, m: int, cfg: SolverConfig) -> SolveReport:
    """Optimise ``m`` closed tours over the instance; see the module docstring."""
    _check_m(inst.dimension, m)

    t_begin = time.perf_counter()
    p = cfg.aco

    # The only reader of distances across subsets: the matrix is freed on return.
    global_mst = kruskal_mst(build_distance_matrix(inst))
    part, starts = _make_partition(inst, m, cfg)
    # From here on, local id i of a subset's colony, seed or tour is node sub[i].
    colonies = [
        SubsetColony(distance_block(inst, sub), restrict_edges(global_mst, sub), cfg.omega, p)
        for sub in part.subsets
    ]
    starts = [None] * m if starts is None else list(map(tuple.index, part.subsets, starts))
    state = IncumbentState()

    if cfg.seed_with_christofides:
        seed_tours = []
        for colony, start in zip(colonies, starts):
            # Read from the robot's start, if it has one.
            order = christofides_seed(colony.dist).order
            i = 0 if start is None else order.index(start)
            order = order[i:] + order[:i]
            seed_tours.append(Tour(order, tour_length(order, colony.dist)))
            # One deposit before the first iteration: every seed edge earns
            # q/L * (1 + kappa).
            colony.deposit(seed_tours[-1])
        state.tours = tuple(seed_tours)
        state.j_value = scalarized_objective(
            [t.length for t in seed_tours], cfg.lambda_weight
        )

    draws = _draw_blocks(cfg.master_seed, p.max_iter, p.n_ants, [c.n_local for c in colonies])
    for t, blocks in enumerate(draws):
        bests = []
        for colony, start, uniforms in zip(colonies, starts, blocks):
            orders, lengths = colony.construct_colony(start, uniforms)
            best = int(lengths.argmin())
            bests.append(Tour(tuple(orders[best].tolist()), float(lengths[best])))
        incumbent_update(state, bests, cfg.lambda_weight, t)
        update_pheromones(colonies, bests)
        if (
            cfg.stagnation_window is not None
            and t - max(state.last_improvement, 0) >= cfg.stagnation_window
        ):
            break

    assert state.tours is not None
    # The one step back to node ids.
    tours = tuple(
        Tour(tuple(sub[v] for v in tour.order), tour.length)
        for sub, tour in zip(part.subsets, state.tours)
    )
    objectives = evaluate_objectives(tours, cfg.lambda_weight)
    return SolveReport(
        instance=inst.name,
        robots=m,
        tours=tours,
        objectives=objectives,
        convergence=tuple(state.trace),
        iterations_run=len(state.trace),
        seed=cfg.master_seed,
        config=cfg.to_dict(),
        wall_time=time.perf_counter() - t_begin,
    )
