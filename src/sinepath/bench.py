"""Benchmark harness: run grids of solves, aggregate, and emit artifacts.

A plan crosses instance files x robot counts x algorithm presets x repeats.
Run r of every cell uses master seed ``seed_base + r``, so runs pair up
across algorithms for the signed-rank test.  Each run records both metrics
(total and max single tour length).  Results aggregate to mean / sample std
cells, and emit as canonical CSV (byte-stable under re-parse), JSON with the
raw runs, verdict and rank tables, and per-route SVG drawings.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .instances import Instance, load_instance
from .solver import SolveReport, SolverConfig, solve
from .stats import DEFAULT_SIGNIFICANCE, RankTable, friedman_mean_ranks, wilcoxon_signed_rank

METRICS = ("total", "max_single")

# Structural-weight grid for the ablation sweep: deposit-side backbone
# influence (kappa), from "off" through strongly prior-guided.
DEFAULT_ABLATION_WEIGHTS = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Named solver preset; the plan overrides its master seed per run."""

    name: str
    config: SolverConfig


@dataclass(frozen=True)
class ExperimentPlan:
    instances: tuple[str, ...]
    robot_counts: tuple[int, ...]
    algorithms: tuple[AlgorithmSpec, ...]
    repeats: int = 8
    seed_base: int = 0

    def __post_init__(self):
        if not self.instances:
            raise ValueError("plan needs at least one instance")
        if not self.robot_counts or any(m < 1 for m in self.robot_counts):
            raise ValueError("robot counts must be positive")
        if len(set(self.robot_counts)) != len(self.robot_counts):
            raise ValueError("robot counts must be unique")
        if not self.algorithms:
            raise ValueError("plan needs at least one algorithm")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ValueError("algorithm names must be unique")
        if self.repeats < 2:
            raise ValueError("repeats must be at least 2 for mean/std cells")


@dataclass(frozen=True)
class CellStats:
    """Aggregate of one (instance, robots, algorithm, metric) cell.

    ``runs`` holds the raw per-run values; it is empty when the cell was
    re-read from a csv, which only carries the aggregate and ``n``.
    """

    mean: float
    std: float
    runs: tuple[float, ...]
    n: int


def cell_stats(runs) -> CellStats:
    arr = np.asarray(runs, dtype=np.float64)
    if len(arr) < 2:
        raise ValueError("cells need at least 2 runs")
    return CellStats(
        float(arr.mean()), float(arr.std(ddof=1)), tuple(float(x) for x in arr), len(arr)
    )


CellKey = tuple[str, int, str, str]  # (instance, robots, algorithm, metric)


@dataclass
class BenchResults:
    cells: dict[CellKey, CellStats] = field(default_factory=dict)
    failed: dict[tuple[str, int, str], str] = field(default_factory=dict)
    seed_base: int = 0

    def instances(self) -> tuple[str, ...]:
        return tuple(sorted({k[0] for k in self.cells}))

    def robot_counts(self) -> tuple[int, ...]:
        return tuple(sorted({k[1] for k in self.cells}))

    def algorithms(self) -> tuple[str, ...]:
        return tuple(sorted({k[2] for k in self.cells}))


def _run_cell(repeats: int, seed_base: int, task) -> dict[str, CellStats]:
    """``repeats`` solves of an (instance, robots, config) task with master
    seeds ``seed_base + r``, one cell per metric."""
    inst, m, config = task
    values: dict[str, list[float]] = {metric: [] for metric in METRICS}
    for r in range(repeats):
        report = solve(inst, m, replace(config, master_seed=seed_base + r))
        for metric in METRICS:
            values[metric].append(getattr(report.objectives, metric))
    return {metric: cell_stats(values[metric]) for metric in METRICS}


def _try_cell(repeats: int, seed_base: int, task) -> dict[str, CellStats] | Exception:
    """``_run_cell`` on an (instance, robots, algorithm) task; a failure is
    returned, not raised, so the rest of the plan still runs."""
    inst, m, spec = task
    try:
        return _run_cell(repeats, seed_base, (inst, m, spec.config))
    except Exception as exc:
        return exc


def _map(fn, items, workers: int) -> list:
    """``fn`` over ``items`` in order: in this process for one worker, else on
    ``workers`` spawned processes, so ``fn``, the items and the results must
    pickle.  The pool is shut down, its processes joined, before returning."""
    if workers > 1:
        # Imported here, so that solving in this process never loads them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_plan(plan: ExperimentPlan, workers: int = 1) -> BenchResults:
    """Execute every cell of the plan.

    Instance files parse up front: a parse failure aborts the whole plan with
    the file named.  A solver failure marks that cell failed and the plan
    continues.  With ``workers`` above one, the (instance, robots, algorithm)
    cells run in that many worker processes; each cell's seeds are fixed by
    the plan, so the results are the same for any worker count.
    """
    loaded: list[Instance] = []
    path_of: dict[str, str] = {}
    for path in plan.instances:
        try:
            inst = load_instance(path)
        except Exception as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        if inst.name in path_of:
            # Cells are keyed by instance name: the second file would
            # overwrite the first one's cells.
            raise ValueError(
                f"{path_of[inst.name]} and {path} share the instance name {inst.name!r}"
            )
        path_of[inst.name] = path
        loaded.append(inst)

    tasks = [
        (inst, m, spec)
        for inst in loaded
        for m in plan.robot_counts
        for spec in plan.algorithms
    ]

    run_task = partial(_try_cell, plan.repeats, plan.seed_base)
    results = BenchResults(seed_base=plan.seed_base)
    for (inst, m, spec), outcome in zip(tasks, _map(run_task, tasks, workers)):
        if isinstance(outcome, Exception):
            results.failed[(inst.name, m, spec.name)] = str(outcome)
            continue
        for metric, cell in outcome.items():
            results.cells[(inst.name, m, spec.name, metric)] = cell
    return results


def ablation_sweep(
    inst: Instance,
    robot_counts,
    weights=DEFAULT_ABLATION_WEIGHTS,
    repeats: int = 8,
    seed_base: int = 0,
    base_config: SolverConfig | None = None,
    workers: int = 1,
) -> dict[int, dict[float, dict[str, CellStats]]]:
    """One run set per (robot count, structural weight), everything else
    held fixed; the result maps robots -> weight -> metric -> cell.

    The weight drives the deposit-side backbone influence (kappa).  The
    default base keeps the transition bias neutral (omega = 1) and seeding
    off, so weight 0 degenerates to the plain colony: with the same seeds it
    is bit-identical to mode "aco".  With ``workers`` above one, all the
    (robots, weight) cells run in one pool of that many worker processes,
    like the cells of ``run_plan``.
    """
    if base_config is None:
        base_config = SolverConfig(omega=1.0, seed_with_christofides=False)
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    robot_counts = list(robot_counts)
    if len(set(robot_counts)) != len(robot_counts):
        raise ValueError(f"robot counts must be unique, got {robot_counts}")
    weights = [float(w) for w in weights]
    if any(w < 0 for w in weights):
        raise ValueError("structural weights must be non-negative")
    if len(set(weights)) != len(weights):
        raise ValueError("structural weights must be unique")

    configs = [replace(base_config, aco=replace(base_config.aco, kappa=w)) for w in weights]
    tasks = [(inst, m, config) for m in robot_counts for config in configs]
    cells = iter(_map(partial(_run_cell, repeats, seed_base), tasks, workers))
    return {m: {w: next(cells) for w in weights} for m in robot_counts}


# ---------------------------------------------------------------------------
# Emitters.  Numbers are written with shortest round-trip decimals (repr), so
# parse -> emit reproduces the bytes exactly.

_RESULT_COLUMNS = ("instance", "robots", "algorithm", "metric", "mean", "std", "n")
_WILCOXON_COLUMNS = (
    "instance", "robots", "metric", "algorithm", "mean", "std", "p_value", "verdict"
)


def _csv(header, rows, footer: str = "") -> str:
    """``header`` names the columns; floats are written as ``repr(float(x))``,
    everything else with ``str``, and a field holding a comma, a quote or a
    line break is quoted.  The footer line is written as given."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows
    )
    if footer:
        out.write(footer + "\n")
    return out.getvalue()


def _result_rows(results: BenchResults):
    """One (key..., mean, std, n) row per cell, in key order, with its cell."""
    for key in sorted(results.cells):
        c = results.cells[key]
        yield (*key, c.mean, c.std, c.n), c


def format_results_csv(results: BenchResults) -> str:
    return _csv(_RESULT_COLUMNS, (row for row, _ in _result_rows(results)))


def format_results_json(results: BenchResults) -> str:
    cells = [
        dict(zip(_RESULT_COLUMNS, row), runs=list(c.runs))
        for row, c in _result_rows(results)
    ]
    failed = [
        dict(zip(_RESULT_COLUMNS[:3] + ("error",), (*k, msg)))
        for k, msg in sorted(results.failed.items())
    ]
    return json.dumps(
        {"seed_base": results.seed_base, "cells": cells, "failed": failed},
        sort_keys=True,
        indent=2,
    ) + "\n"


def wilcoxon_verdict_rows(
    results: BenchResults, significance: float = DEFAULT_SIGNIFICANCE
) -> list[dict]:
    """Per (instance, robots, metric): each algorithm against the best mean.

    The best-mean algorithm anchors the comparison and gets verdict "best".
    Cells without enough raw runs for the signed-rank test (fewer than 5, or
    parsed back from csv where runs are not carried) get verdict "untested".
    """
    rows: list[dict] = []
    for inst in results.instances():
        for m in results.robot_counts():
            for metric in METRICS:
                algs = [
                    a
                    for a in results.algorithms()
                    if (inst, m, a, metric) in results.cells
                ]
                if len(algs) < 2:
                    continue
                best = min(algs, key=lambda a: (results.cells[(inst, m, a, metric)].mean, a))
                best_runs = results.cells[(inst, m, best, metric)].runs
                for alg in algs:
                    cell = results.cells[(inst, m, alg, metric)]
                    if alg == best:
                        verdict, p = "best", ""
                    elif len(cell.runs) < 5 or len(cell.runs) != len(best_runs):
                        verdict, p = "untested", ""
                    else:
                        res = wilcoxon_signed_rank(cell.runs, best_runs, significance)
                        verdict, p = res.verdict, repr(float(res.p_value))
                    row = (inst, m, metric, alg, cell.mean, cell.std, p, verdict)
                    rows.append(dict(zip(_WILCOXON_COLUMNS, row)))
    return rows


def format_wilcoxon_csv(rows: list[dict], significance: float = DEFAULT_SIGNIFICANCE) -> str:
    return _csv(
        _WILCOXON_COLUMNS,
        ([r[c] for c in _WILCOXON_COLUMNS] for r in rows),
        f"# wilcoxon signed-rank, two-sided, significance {significance}",
    )


def friedman_blocks(results: BenchResults, metric: str = "total") -> dict[str, RankTable]:
    """Mean-rank tables per robot count plus an overall block.

    The overall block treats every (instance, robots) pair as one ranking
    unit.  Blocks that lack two algorithms or two complete units (rows with
    every algorithm of the block) are skipped; a NaN mean is refused.
    """
    # One table, (instance, robots) -> {algorithm: mean}, feeds every block.
    means: dict[tuple[str, int], dict[str, float]] = {}
    for (inst, m, alg, cell_metric), cell in results.cells.items():
        if cell_metric == metric:
            means.setdefault((inst, m), {})[alg] = cell.mean
    units = {
        str(m): {inst: row for (inst, k), row in means.items() if k == m}
        for m in results.robot_counts()
    }
    units["overall"] = {f"{inst}@{m}": row for (inst, m), row in means.items()}
    blocks: dict[str, RankTable] = {}
    for block, rows in units.items():
        algs = set().union(*rows.values())
        complete = sum(set(row) == algs for row in rows.values())
        if len(algs) >= 2 and complete >= 2:
            blocks[block] = friedman_mean_ranks(rows)
    return blocks


def format_friedman_csv(blocks: dict[str, RankTable]) -> str:
    rows = []
    for block in sorted(blocks):
        table = blocks[block]
        order = table.ordering()
        rows += [
            (block, alg, table.mean_ranks[alg], order.index(alg) + 1)
            for alg in table.algorithms
        ]
    return _csv(("block", "algorithm", "mean_rank", "position"), rows)


def format_ablation_csv(sweep: dict[int, dict[float, dict[str, CellStats]]]) -> str:
    """One table: robot counts in sweep order, weights ascending within each."""
    cells = (
        (w, m, metric, per_weight[w][metric])
        for m, per_weight in sweep.items()
        for w in sorted(per_weight)
        for metric in METRICS
    )
    return _csv(
        ("weight", "robots", "metric", "mean", "std", "n"),
        ((w, m, metric, c.mean, c.std, c.n) for w, m, metric, c in cells),
    )


# ---------------------------------------------------------------------------
# Route drawing.

_ROUTE_COLORS = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
)


def format_svg_routes(report: SolveReport, inst: Instance, size: float = 640.0) -> str:
    """SVG 1.1 drawing: nodes as dots, one closed polyline per robot.

    The viewBox fits the coordinate bounding box with a 5% margin; the
    vertical axis is flipped so y grows upward.  Geographic instances draw
    as lon (x) by lat (y).
    """
    coords = inst.coords
    if inst.metric.value == "greatcircle":
        xs, ys = coords[:, 1], coords[:, 0]
    else:
        xs, ys = coords[:, 0], coords[:, 1]
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    span_x = max(xmax - xmin, 1e-9)
    span_y = max(ymax - ymin, 1e-9)
    margin_x, margin_y = 0.05 * span_x, 0.05 * span_y
    width = span_x + 2 * margin_x
    height = span_y + 2 * margin_y
    scale = size / max(width, height)

    def sx(x: float) -> float:
        return (x - xmin + margin_x) * scale

    def sy(y: float) -> float:
        return (ymax - y + margin_y) * scale

    w_px, h_px = width * scale, height * scale
    radius = 0.006 * max(w_px, h_px)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {w_px:.2f} {h_px:.2f}">',
        f'<rect width="{w_px:.2f}" height="{h_px:.2f}" fill="white"/>',
    ]
    for i, tour in enumerate(report.tours):
        color = _ROUTE_COLORS[i % len(_ROUTE_COLORS)]
        pts = [f"{sx(xs[v]):.2f},{sy(ys[v]):.2f}" for v in tour.order]
        pts.append(pts[0])  # close the loop
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="{radius / 2:.2f}"/>'
        )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{sx(float(x)):.2f}" cy="{sy(float(y)):.2f}" '
            f'r="{radius:.2f}" fill="#222222"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_bench_artifacts(
    results: BenchResults,
    out_dir,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> list[Path]:
    """Write results.csv, results.json, wilcoxon.csv and, when at least two
    instances completed, friedman.csv.  Returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = {
        "results.csv": format_results_csv(results),
        "results.json": format_results_json(results),
        "wilcoxon.csv": format_wilcoxon_csv(
            wilcoxon_verdict_rows(results, significance), significance
        ),
    }
    if len(results.instances()) >= 2:
        blocks = friedman_blocks(results)
        if blocks:
            texts["friedman.csv"] = format_friedman_csv(blocks)
    for name, text in texts.items():
        (out / name).write_text(text)
    return [out / name for name in texts]
