"""End-to-end solve: partition, backbone, seed, colony loop, report.

The pipeline: build the distance matrix, compute the global MST, split the
nodes into per-robot subsets, then run one pheromone colony per subset.  The
bias and the deposit bonus see the global MST restricted to each subset
(optionally a per-subset MST instead); the optional seed tour is a
Christofides-style shortcut of the per-subset MST, registered as the initial
incumbent and given one bonus deposit before the first iteration.

Determinism contract: every uniform draw derives from
(master_seed, stream, iteration, subset), with each ant reading its own row
of the per-subset draw block, so no draw depends on the order the subsets run in.
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

from .aco import AcoParams, SubsetColony, deposit, init_pheromone, update_pheromones
from .backbone import christofides_seed, dfs_preorder_seed, kruskal_mst, restrict_edges
from .instances import Instance, build_distance_matrix
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


@dataclass(frozen=True)
class SolverConfig:
    aco: AcoParams = field(default_factory=AcoParams)
    omega: float = 2.0
    tau0: float = 1.0
    lambda_weight: float = 0.5
    mu: float = 0.0
    partition_method: str = "angle"
    repartition_each_iter: bool = False
    seed_with_christofides: bool = True
    seed_method: str = "christofides"
    matching_method: str = "greedy"
    backbone_per_subset: bool = False
    master_seed: int = 0
    mode: str = MODE_SINE
    stagnation_window: int | None = None
    depots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        for name in ("omega", "tau0", "lambda_weight", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mode not in (MODE_SINE, MODE_CLASSIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_CLASSIC:
            if self.omega != 1.0 or self.aco.kappa != 0.0 or self.seed_with_christofides:
                raise ValueError(
                    "mode 'aco' requires omega=1, kappa=0 and seeding off; "
                    "use SolverConfig.classic()"
                )
        if self.omega < 1.0:
            raise ValueError("omega must be at least 1")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if self.partition_method not in PARTITION_METHODS:
            raise ValueError(f"unknown partition method {self.partition_method!r}")
        if self.seed_method not in ("christofides", "dfs"):
            raise ValueError(f"unknown seed method {self.seed_method!r}")
        if self.matching_method not in ("greedy", "exact"):
            raise ValueError(f"unknown matching method {self.matching_method!r}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.stagnation_window is not None and self.stagnation_window < 1:
            raise ValueError("stagnation_window must be positive when set")

    @staticmethod
    def classic(**kwargs) -> "SolverConfig":
        """Plain ant colony: the biased solver with its prior switched off."""
        aco = kwargs.pop("aco", AcoParams())
        aco = replace(aco, kappa=0.0)
        kwargs.setdefault("mode", MODE_CLASSIC)
        return SolverConfig(
            aco=aco, omega=1.0, seed_with_christofides=False, **kwargs
        )

    def to_dict(self) -> dict:
        depots = None if self.depots is None else [list(p) for p in self.depots]
        return {**asdict(self), "depots": depots}


@dataclass
class IncumbentState:
    """Best tour collection seen so far and the per-iteration J trace."""

    tours: tuple[Tour, ...] | None = None
    j_value: float = float("inf")
    trace: list[float] = field(default_factory=list)
    last_improvement: int = -1


def incumbent_update(
    state: IncumbentState, candidates, lam: float, iteration: int = 0
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

    instance_name: str
    robots: int
    tours: tuple[Tour, ...]
    objectives: Objectives
    convergence: tuple[float, ...]
    iterations_run: int
    wall_time: float
    seed: int
    config_echo: dict

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "instance": self.instance_name,
            "robots": self.robots,
            "tours": [
                {"order": list(t.order), "length": t.length} for t in self.tours
            ],
            "objectives": self.objectives.to_dict(),
            "convergence": list(self.convergence),
            "iterations_run": self.iterations_run,
            "seed": self.seed,
            "config": self.config_echo,
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out

    def canonical_json(self) -> str:
        """Deterministic serialisation; wall time is physical and excluded."""
        return json.dumps(self.to_dict(include_wall_time=False), sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "SolveReport":
        tours = tuple(
            Tour(tuple(int(v) for v in t["order"]), float(t["length"]))
            for t in data["tours"]
        )
        obj = data["objectives"]
        return SolveReport(
            instance_name=data["instance"],
            robots=data["robots"],
            tours=tours,
            objectives=Objectives(**{**obj, "per_robot": tuple(obj["per_robot"])}),
            convergence=tuple(data["convergence"]),
            iterations_run=data["iterations_run"],
            wall_time=data.get("wall_time", 0.0),
            seed=data["seed"],
            config_echo=data["config"],
        )


def _make_partition(inst: Instance, m: int, cfg: SolverConfig, iteration: int) -> Partition:
    if cfg.depots is not None:
        if len(cfg.depots) != m:
            raise ValueError("number of depots must equal the robot count")
        return partition_by_depots(inst, cfg.depots)
    if cfg.partition_method == "angle":
        return partition_angle(inst, m)
    seed = np.random.SeedSequence(
        (cfg.master_seed, _STREAM_PARTITION, iteration)
    ).generate_state(1)[0]
    return partition_kmeans_like(inst, m, int(seed))


def _seed_tour(d, subset, cfg: SolverConfig) -> Tour:
    if cfg.seed_method == "christofides":
        return christofides_seed(d, subset, cfg.matching_method)
    return dfs_preorder_seed(d, subset)


def solve(inst: Instance, m: int, cfg: SolverConfig) -> SolveReport:
    """Optimise ``m`` closed tours over the instance; see the module docstring."""
    if not 1 <= m <= inst.dimension:
        raise ValueError(f"robot count {m} outside [1, {inst.dimension}]")

    t_begin = time.perf_counter()
    d = build_distance_matrix(inst)
    n = inst.dimension
    p = cfg.aco

    global_mst = kruskal_mst(d, range(n))

    def layout(part: Partition):
        """Each subset's backbone, colony and depot start under ``part``."""
        if cfg.backbone_per_subset:
            backbones = [kruskal_mst(d, sub).edge_keys() for sub in part.subsets]
        else:
            backbones = [restrict_edges(global_mst, sub) for sub in part.subsets]
        colonies = [
            SubsetColony(sub, d, bk, cfg.omega, p)
            for sub, bk in zip(part.subsets, backbones)
        ]
        starts = None
        if cfg.depots is not None:
            starts = depot_start_nodes(inst, part, cfg.depots)
        return backbones, colonies, starts

    part = _make_partition(inst, m, cfg, 0)
    backbones, colonies, starts = layout(part)
    tau = init_pheromone(n, cfg.tau0)
    state = IncumbentState()

    if cfg.seed_with_christofides:
        seeds = [_seed_tour(d, sub, cfg) for sub in part.subsets]
        state.tours = tuple(seeds)
        state.j_value = scalarized_objective(
            [t.length for t in seeds], cfg.lambda_weight
        )
        # One flat bonus deposit before the first iteration: with each seed's
        # own edges as its backbone, every seed edge earns q/L * (1 + kappa).
        deposit(tau, seeds, [s.edge_set() for s in seeds], p)

    def run_subset(k: int, iteration: int):
        colony = colonies[k]
        ss = np.random.SeedSequence(
            (cfg.master_seed, _STREAM_COLONY, iteration, k)
        )
        uniforms = np.random.default_rng(ss).random((p.n_ants, colony.n_local))
        start_local = None
        if starts is not None:
            start_local = int(np.searchsorted(colony.nodes, starts[k]))
        orders, lengths = colony.construct_colony(
            colony.local_tau(tau), uniforms, start_local
        )
        best = int(lengths.argmin())
        return Tour(colony.to_global(orders[best]), float(lengths[best]))

    iterations_run = 0
    for t in range(p.max_iter):
        if cfg.repartition_each_iter and t > 0:
            fresh = _make_partition(inst, m, cfg, t)
            # The angle and depot partitions ignore t; equal subsets
            # give the same layout, so it is rebuilt only on a change.
            if fresh.subsets != part.subsets:
                part = fresh
                backbones, colonies, starts = layout(part)
        bests = [run_subset(k, t) for k in range(len(colonies))]
        incumbent_update(state, bests, cfg.lambda_weight, t)
        update_pheromones(tau, bests, backbones, p)
        iterations_run = t + 1
        if (
            cfg.stagnation_window is not None
            and t - max(state.last_improvement, 0) >= cfg.stagnation_window
        ):
            break

    assert state.tours is not None
    objectives = evaluate_objectives(state.tours, cfg.lambda_weight, cfg.mu)
    return SolveReport(
        instance_name=inst.name,
        robots=m,
        tours=state.tours,
        objectives=objectives,
        convergence=tuple(state.trace),
        iterations_run=iterations_run,
        wall_time=time.perf_counter() - t_begin,
        seed=cfg.master_seed,
        config_echo=cfg.to_dict(),
    )
