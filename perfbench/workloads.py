"""The three benchmark workloads: their inputs, one unit of work, answer checks.

Every input derives from the workload seed through a fixed pool, so each
possible input has a golden answer recorded in ``golden.json``:

* ``bench51-m4``   -- ``data/bench51.tsp``, 4 robots, library defaults.  A run
  solves ``BENCH51_PER_RUN`` master seeds drawn from ``BENCH51_SEEDS``.
* ``rand2000-m8``  -- a 2000-node random planar instance, 8 robots, 20
  iterations.  A run takes one (instance seed, master seed) pair from
  ``RAND2000_POOL``.
* ``plan-paired``  -- one ``sinepath bench`` over bench51 and geo50, robots
  2,4, algorithms sine,aco, 5 paired repeats, 25 iterations, 1 worker.  A
  run takes its ``--seed`` base from ``PLAN_SEED_BASES``.

This module is imported only by worker processes, after ``sinepath``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import sinepath.instances as instances
from sinepath.aco import AcoParams
from sinepath.solver import SolverConfig

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden.json"

SOLVE_WORKLOADS = ("bench51-m4", "rand2000-m8")

BENCH51_SEEDS = tuple(range(24))
BENCH51_PER_RUN = 6
RAND2000_POOL = tuple((2000 + i, i) for i in range(8))
RAND2000_ITERS = 20
PLAN_SEED_BASES = tuple(100 * i for i in range(8))

PLAN_INSTANCES = ("bench51.tsp", "geo50.csv")
PLAN_ROBOTS = (2, 4)
PLAN_ALGORITHMS = ("sine", "aco")
PLAN_REPEATS = 5
PLAN_ITERS = 25
PLAN_WORKERS = 1
PLAN_LAMBDA = 0.5
PLAN_ARTIFACTS = ("results.csv", "results.json", "wilcoxon.csv", "friedman.csv")


def _pick(workload: str, seed: int, pool, k: int = 1) -> list:
    return random.Random(f"{workload}:{seed}").sample(list(pool), k)


class SolveJob:
    """Inputs of a solve workload: one instance, a robot count, master seeds."""

    def __init__(self, workload: str, instance_seed: int | None, master_seeds):
        if workload == "bench51-m4":
            self.instance = instances.load_instance(ROOT / "data" / "bench51.tsp")
            self.robots = 4
            self.params = AcoParams()
        elif workload == "rand2000-m8":
            self.instance = instances.random_planar_instance(2000, instance_seed)
            self.robots = 8
            self.params = AcoParams(max_iter=RAND2000_ITERS)
        else:
            raise ValueError(f"not a solve workload: {workload!r}")
        self.master_seeds = list(master_seeds)

    @classmethod
    def from_seed(cls, workload: str, seed: int) -> "SolveJob":
        if workload == "bench51-m4":
            return cls(workload, None, _pick(workload, seed, BENCH51_SEEDS, BENCH51_PER_RUN))
        instance_seed, master = _pick(workload, seed, RAND2000_POOL)[0]
        return cls(workload, instance_seed, [master])

    def config(self, master_seed: int, max_iter: int | None = None) -> SolverConfig:
        params = self.params
        if max_iter is not None:
            params = AcoParams(**{**params.to_dict(), "max_iter": max_iter})
        return SolverConfig(aco=params, master_seed=master_seed)

    def golden_key(self, master_seed: int) -> str:
        return f"{self.instance.name}/m{self.robots}/seed{master_seed}"


def plan_seed_base(seed: int) -> int:
    return _pick("plan-paired", seed, PLAN_SEED_BASES)[0]


def plan_argv(instance_glob: str, seed_base: int, out_dir: str) -> list[str]:
    """Arguments of ``sinepath bench`` for the paired plan."""
    return [
        "bench",
        "--instances", instance_glob,
        "--robots", ",".join(map(str, PLAN_ROBOTS)),
        "--algorithms", ",".join(PLAN_ALGORITHMS),
        "--repeats", str(PLAN_REPEATS),
        "--iters", str(PLAN_ITERS),
        "--workers", str(PLAN_WORKERS),
        "--seed", str(seed_base),
        "--out-dir", out_dir,
    ]


def plan_config(algorithm: str, master_seed: int) -> SolverConfig:
    """The CLI preset of ``algorithm`` at the plan's budget, built independently."""
    params = AcoParams(max_iter=PLAN_ITERS)
    if algorithm == "aco":
        return SolverConfig.classic(aco=params, master_seed=master_seed)
    return SolverConfig(aco=params, master_seed=master_seed)


def plan_solves() -> int:
    return len(PLAN_INSTANCES) * len(PLAN_ROBOTS) * len(PLAN_ALGORITHMS) * PLAN_REPEATS


def report_hash(report) -> str:
    return hashlib.sha256(report.canonical_json().encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def check_tours(report, inst) -> list[str]:
    """Independent answer check: every node covered exactly once, and each
    tour length recomputed from the distance matrix matches the report."""
    problems = []
    visited = [v for t in report.tours for v in t.order]
    if sorted(visited) != list(range(inst.dimension)):
        problems.append("tours do not cover every node exactly once")
    d = instances.build_distance_matrix(inst)
    for k, t in enumerate(report.tours):
        order = list(t.order)
        length = math.fsum(d[a, b] for a, b in zip(order, order[1:] + order[:1])) if len(order) > 1 else 0.0
        if not math.isclose(length, t.length, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"tour {k}: recomputed length {length!r} != reported {t.length!r}")
    lengths = [t.length for t in report.tours]
    if not math.isclose(report.objectives.total, math.fsum(lengths), rel_tol=1e-9):
        problems.append("objectives.total is not the sum of tour lengths")
    if report.objectives.max_single != max(lengths):
        problems.append("objectives.max_single is not the longest tour")
    return problems


def iters_to_1pct(convergence) -> int:
    """Iterations run until the incumbent J first lies within 1% of its final value."""
    final = convergence[-1]
    return next(t + 1 for t, j in enumerate(convergence) if j <= 1.01 * final)


def block_sizes(n: int, m: int) -> list[int]:
    """Subset sizes of any valid partition: they differ by at most one."""
    q, r = divmod(n, m)
    return [q + 1] * r + [q] * (m - r)


def computed_counts(n: int, m: int, ants: int, iters: int) -> dict[str, int]:
    """Work one default-path solve must do, derived from subset sizes and budgets."""
    sizes = block_sizes(n, m)
    return {
        "aco.construct_calls": iters * m,
        "aco.construct_cells": iters * ants * sum(k * (k - 1) for k in sizes),
        "solver.rng_draws": iters * ants * sum(sizes),
        "aco.update_calls": iters,
        "aco.deposit_edges": iters * sum(0 if k < 2 else 1 if k == 2 else k for k in sizes),
        "instances.distance_bytes": n * n * 8,
        "backbone.kruskal_pairs": n * (n - 1) // 2,
        "aco.colony_inits": m,
    }


def add_counts(total: dict, more: dict) -> dict:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value
    return total
