"""Spans and counts recorded around calls into each sinepath module.

The tracer wraps public functions from outside: it rebinds the names the
package looks up at call time (``sinepath.solver.kruskal_mst``,
``SubsetColony.construct_colony`` ...) and records one span per call with
its name, start, end, parent and solve id.  Spans stay in memory; the worker
writes them out when the run ends.  Counts are recorded at the same
boundaries.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

SOLVE_SPAN = "solver.solve"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, solve_id, name, start, end)
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(tracer, args, result)`` then counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A pool thread's first span hangs under the main thread's open span.
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else (0, 0))
            sid = next(tracer._ids)
            solve_id = sid if name == SOLVE_SPAN else parent[1]
            stack.append((sid, solve_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent[0], solve_id, name, start, end))
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def note_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def dump(self, path, extra: dict | None = None):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "maxima": self.maxima, **(extra or {})}, fh)


# Count hooks: (tracer, call args, result) -> None.

def _construct(tr, args, result):
    na, nl = args[2].shape
    tr.counts["aco.construct_calls"] += 1
    tr.counts["aco.construct_cells"] += na * nl * (nl - 1)
    tr.counts["solver.rng_draws"] += na * nl


def _update(tr, args, result):
    tr.counts["aco.update_calls"] += 1
    tr.counts["aco.deposit_edges"] += sum(len(t.edge_set()) for t in args[1] if len(t.order) > 1)


def _distance(tr, args, result):
    tr.counts["instances.distance_bytes"] += result.nbytes


def _kruskal(tr, args, result):
    k = len(result.nodes)
    tr.counts["backbone.kruskal_pairs"] += k * (k - 1) // 2


def _partition(tr, args, result):
    sizes = [len(s) for s in result.subsets]
    tr.note_max("partition.size_spread", max(sizes) / min(sizes))


def _colony_init(tr, args, result):
    tr.counts["aco.colony_inits"] += 1


def _incumbent(tr, args, result):
    tr.counts["solver.iterations"] += 1
    iteration = args[3] if len(args) > 3 else 0
    tr.counts["solver.improvements"] += result.last_improvement == iteration


def _solve(tr, args, result):
    tr.counts["solver.solves"] += 1


def _run_plan(tr, args, result):
    plan = args[0]
    tr.counts["bench.cells"] += len(plan.instances) * len(plan.robot_counts) * len(plan.algorithms)
    tr.counts["bench.cells_failed"] += len(result.failed)


def _emit(tr, args, result):
    tr.counts["bench.artifact_bytes"] += sum(p.stat().st_size for p in result)


def _wilcoxon(tr, args, result):
    tr.counts["stats.wilcoxon_calls"] += 1


# Traced names: (module, class or "", attribute, span name, count hook).
TARGETS = (
    ("sinepath.instances", "", "load_instance", "instances.load", None),
    ("sinepath.bench", "", "load_instance", "instances.load", None),
    ("sinepath.cli", "", "load_instance", "instances.load", None),
    ("sinepath.instances", "", "random_planar_instance", "instances.load", None),
    ("sinepath.solver", "", "build_distance_matrix", "instances.distance", _distance),
    ("sinepath.solver", "", "kruskal_mst", "backbone.kruskal", _kruskal),
    ("sinepath.solver", "", "restrict_edges", "backbone.restrict", None),
    ("sinepath.solver", "", "christofides_seed", "backbone.seed", None),
    ("sinepath.solver", "", "dfs_preorder_seed", "backbone.seed", None),
    ("sinepath.solver", "", "partition_angle", "partition.split", _partition),
    ("sinepath.solver", "", "partition_kmeans_like", "partition.split", _partition),
    ("sinepath.aco", "SubsetColony", "__init__", "aco.colony_init", _colony_init),
    ("sinepath.aco", "SubsetColony", "local_tau", "aco.local_tau", None),
    ("sinepath.aco", "SubsetColony", "construct_colony", "aco.construct", _construct),
    ("sinepath.solver", "", "update_pheromones", "aco.update", _update),
    ("sinepath.solver", "", "incumbent_update", "solver.incumbent", _incumbent),
    ("sinepath.solver", "", "evaluate_objectives", "objective.evaluate", None),
    ("sinepath.solver", "SolveReport", "canonical_json", "solver.canonical_json", None),
    ("sinepath.solver", "", "solve", SOLVE_SPAN, _solve),
    ("sinepath.bench", "", "solve", SOLVE_SPAN, _solve),
    ("sinepath.cli", "", "run_plan", "bench.run_plan", _run_plan),
    ("sinepath.cli", "", "emit_bench_artifacts", "bench.emit", _emit),
    ("sinepath.bench", "", "wilcoxon_signed_rank", "stats.wilcoxon", _wilcoxon),
    ("sinepath.bench", "", "friedman_mean_ranks", "stats.friedman", None),
    ("sinepath.cli", "", "main", "cli.main", None),
)


def install(tracer: Tracer):
    """Rebind every traced name; returns a function that restores the originals."""
    saved = []
    for module, cls, attr, name, after in TARGETS:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, after))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def span_totals(spans):
    """Seconds and calls per span name, and the solve spans split into the
    part their child spans cover and their self time (the rest)."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    children = defaultdict(list)
    for sid, parent, _solve, name, start, end in spans:
        seconds[name] += end - start
        calls[name] += 1
        children[parent].append((start, end))
    covered_total = 0.0
    for sid, _parent, _solve, name, start, end in spans:
        if name != SOLVE_SPAN:
            continue
        reach = start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered_total += b - a
                reach = b
    self_total = seconds.get(SOLVE_SPAN, 0.0) - covered_total
    return dict(seconds), dict(calls), covered_total, self_total
