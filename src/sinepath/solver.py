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
bonus deposit on its colony's trail before the first iteration.

``solve`` is the only code that knows node ids.  Each colony, its backbone
edges, its seed and its tours use the subset's local ids 0..k-1 (position i
of the ascending subset); the incumbent is mapped to node ids once, after
the last iteration.

Determinism contract: every uniform draw derives from
(master_seed, stream, iteration, subset), with each ant reading its own row
of the per-subset draw block, so no draw depends on the order the subsets run in.
Each block's SeedSequence is seeded from the uint32 words numpy makes of
that tuple, which draws exactly what seeding from the tuple does.
The incumbent only improves strictly, which makes the convergence trace
monotone non-increasing.

Mode "aco" is the same code path with omega = 1, kappa = 0 and seeding off.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .aco import AcoParams, SubsetColony, update_pheromones
from .backbone import christofides_seed, kruskal_mst, restrict_edges
from .backbone import dfs_preorder_seed  # noqa: F401  perfbench's tracer wraps this name
from .instances import Instance, build_distance_matrix, distance_block
from .objective import Objectives, Tour, evaluate_objectives, scalarized_objective
from .partition import (
    Partition,
    depot_start_nodes,
    partition_angle,
    partition_by_depots,
    partition_kmeans_like,
)

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


def _is_point(p) -> bool:
    """Whether ``p`` is an (x, y) pair of finite numbers; a bool is no number here."""
    return isinstance(p, (tuple, list)) and len(p) == 2 and all(
        isinstance(c, (int, float)) and type(c) is not bool and math.isfinite(c) for c in p
    )


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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.omega < 1.0:
            raise ValueError("omega must be at least 1")
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.partition_method not in PARTITION_METHODS:
            raise ValueError(f"unknown partition method {self.partition_method!r}")
        seed, window = self.master_seed, self.stagnation_window
        if type(seed) is not int or seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {seed!r}")
        if window is not None and (type(window) is not int or window < 1):
            raise ValueError(f"stagnation_window must be a positive integer, got {window!r}")
        if self.depots is not None and not (
            isinstance(self.depots, (tuple, list)) and all(map(_is_point, self.depots))
        ):
            raise ValueError(f"depots must be (x, y) pairs of finite numbers, got {self.depots!r}")

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
        return asdict(self)

    def canonical_json(self) -> str:
        """Deterministic serialisation; wall time is physical and excluded."""
        data = self.to_dict()
        del data["wall_time"]
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "SolveReport":
        """The report ``to_dict`` wrote; a node id that is not a JSON integer
        (a float, a boolean, a string) is refused."""
        tours = tuple(
            Tour(_node_ids(t["order"]), float(t["length"])) for t in data["tours"]
        )
        obj = data["objectives"]
        return SolveReport(**{
            **data,
            "tours": tours,
            "objectives": Objectives(**{**obj, "per_robot": tuple(obj["per_robot"])}),
            "convergence": tuple(data["convergence"]),
        })


def _node_ids(order) -> tuple[int, ...]:
    for v in order:
        if type(v) is not int:
            raise ValueError(f"node id {v!r} is not an integer")
    return tuple(order)


def _make_partition(inst: Instance, m: int, cfg: SolverConfig) -> Partition:
    if cfg.depots is not None:
        if len(cfg.depots) != m:
            raise ValueError("number of depots must equal the robot count")
        return partition_by_depots(inst, cfg.depots)
    if cfg.partition_method == "angle":
        return partition_angle(inst, m)
    # The trailing 0 keeps the recorded kmeans answers and their hashes.
    ss = np.random.SeedSequence((cfg.master_seed, _STREAM_PARTITION, 0))
    return partition_kmeans_like(inst, m, int(ss.generate_state(1)[0]))


def _uint32_words(x: int) -> list[int]:
    """The little-endian 32-bit words of ``x >= 0``, at least one."""
    words = [x & 0xFFFFFFFF]
    while x := x >> 32:
        words.append(x & 0xFFFFFFFF)
    return words


def _colony_entropy(master_seed: int, t: int, m: int) -> np.ndarray:
    """Row k is the uint32 array numpy builds from the tuple
    (master_seed, _STREAM_COLONY, t, k) when it seeds a SeedSequence, so
    seeding from the row draws what seeding from the tuple does, without
    coercing the tuple again for every block."""
    head = _uint32_words(master_seed) + [_STREAM_COLONY] + _uint32_words(t)
    entropy = np.empty((m, len(head) + 1), dtype=np.uint32)
    entropy[:, :-1] = head
    entropy[:, -1] = np.arange(m)
    return entropy


def solve(inst: Instance, m: int, cfg: SolverConfig) -> SolveReport:
    """Optimise ``m`` closed tours over the instance; see the module docstring."""
    if type(m) is not int:
        raise ValueError(f"robot count must be an integer, got {m!r}")
    if not 1 <= m <= inst.dimension:
        raise ValueError(f"robot count {m} outside [1, {inst.dimension}]")

    t_begin = time.perf_counter()
    p = cfg.aco

    # The only reader of distances across subsets: the matrix is freed on return.
    global_mst = kruskal_mst(build_distance_matrix(inst))
    part = _make_partition(inst, m, cfg)
    # From here on, local id i of a subset's colony, seed or tour is node sub[i].
    colonies = [
        SubsetColony(distance_block(inst, sub), restrict_edges(global_mst, sub), cfg.omega, p)
        for sub in part.subsets
    ]
    starts = [None] * len(colonies)
    if cfg.depots is not None:
        starts = [
            sub.index(start)
            for sub, start in zip(part.subsets, depot_start_nodes(inst, part, cfg.depots))
        ]
    state = IncumbentState()

    if cfg.seed_with_christofides:
        seeds = [christofides_seed(colony.dist) for colony in colonies]
        state.tours = tuple(seeds)
        state.j_value = scalarized_objective(
            [t.length for t in seeds], cfg.lambda_weight
        )
        # One flat bonus deposit before the first iteration: every seed edge
        # earns q/L * (1 + kappa).
        for colony, seed in zip(colonies, seeds):
            colony.deposit(seed, flat_bonus=True)

    for t in range(p.max_iter):
        bests = []
        entropy = _colony_entropy(cfg.master_seed, t, len(colonies))
        for k, colony in enumerate(colonies):
            ss = np.random.SeedSequence(entropy[k])
            uniforms = np.random.default_rng(ss).random((p.n_ants, colony.n_local))
            orders, lengths = colony.construct_colony(colony.local_tau(), uniforms, starts[k])
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
    # The one step back to node ids, before the overlap count compares tours.
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
