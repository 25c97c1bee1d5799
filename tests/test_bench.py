"""Benchmark plans, aggregation, artifact emitters, and route drawing."""

import json
import multiprocessing
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oracles import parse_results_csv
import sinepath.bench as bench
from sinepath.aco import AcoParams
from sinepath.bench import (
    DEFAULT_ABLATION_WEIGHTS,
    AlgorithmSpec,
    BenchResults,
    CellStats,
    ExperimentPlan,
    ablation_sweep,
    cell_stats,
    emit_bench_artifacts,
    format_ablation_csv,
    format_friedman_csv,
    format_results_csv,
    format_results_json,
    format_svg_routes,
    format_wilcoxon_csv,
    friedman_blocks,
    run_plan,
    wilcoxon_verdict_rows,
)
from sinepath.instances import (
    Instance,
    Metric,
    load_instance,
    random_planar_instance,
    serialize_tsplib,
)
from sinepath.solver import SolverConfig, solve

TINY = AcoParams(n_ants=4, max_iter=4)


def _tiny_specs():
    return (
        AlgorithmSpec("sine", SolverConfig(aco=TINY)),
        AlgorithmSpec("aco", SolverConfig.classic(aco=TINY)),
    )


@pytest.fixture()
def inst_file(tmp_path):
    inst = random_planar_instance(8, seed=880, name="p8")
    path = tmp_path / "p8.tsp"
    path.write_text(serialize_tsplib(inst))
    return path


@pytest.fixture()
def inst_file2(tmp_path):
    inst = random_planar_instance(9, seed=881, name="p9")
    path = tmp_path / "p9.tsp"
    path.write_text(serialize_tsplib(inst))
    return path


def test_plan_validation():
    specs = _tiny_specs()
    with pytest.raises(ValueError, match="at least one instance"):
        ExperimentPlan((), (2,), specs)
    with pytest.raises(ValueError, match="robot counts"):
        ExperimentPlan(("x.tsp",), (), specs)
    with pytest.raises(ValueError, match="at least one algorithm"):
        ExperimentPlan(("x.tsp",), (2,), ())
    with pytest.raises(ValueError, match="unique"):
        ExperimentPlan(("x.tsp",), (2,), (specs[0], specs[0]))
    with pytest.raises(ValueError, match="repeats"):
        ExperimentPlan(("x.tsp",), (2,), specs, repeats=1)


def test_plan_refuses_duplicate_robot_counts():
    # Cells are keyed by robot count, so a repeated count would be solved
    # twice and reported once.
    with pytest.raises(ValueError, match="robot counts must be unique"):
        ExperimentPlan(("x.tsp",), (2, 4, 2), _tiny_specs())


def test_cell_stats_matches_numpy():
    rng = np.random.default_rng(95)
    for _ in range(20):
        runs = rng.uniform(10, 20, size=int(rng.integers(2, 12)))
        c = cell_stats(runs)
        assert c.mean == pytest.approx(float(np.mean(runs)), abs=1e-12)
        assert c.std == pytest.approx(float(np.std(runs, ddof=1)), abs=1e-12)
        assert c.n == len(runs)
        assert min(runs) <= c.mean <= max(runs)
    with pytest.raises(ValueError, match="at least 2"):
        cell_stats([1.0])


def test_run_plan_counts_and_seeds(inst_file, monkeypatch):
    calls = []
    real_solve = bench.solve

    def counting_solve(inst, m, cfg):
        calls.append((inst.name, m, cfg.mode, cfg.master_seed))
        return real_solve(inst, m, cfg)

    monkeypatch.setattr(bench, "solve", counting_solve)
    plan = ExperimentPlan(
        (str(inst_file),), (2,), _tiny_specs(), repeats=3, seed_base=10
    )
    results = run_plan(plan)
    assert len(calls) == 6  # 1 instance x 1 robot count x 2 algorithms x 3
    assert len(results.cells) == 4  # x 2 metrics
    for mode in ("sine", "aco"):
        seeds = sorted(s for (_, _, md, s) in calls if md == mode)
        assert seeds == [10, 11, 12]  # seed_base + run index, paired
    for key, cell in results.cells.items():
        assert cell.n == 3
        assert len(cell.runs) == 3


def test_run_plan_deterministic(inst_file):
    plan = ExperimentPlan((str(inst_file),), (2,), _tiny_specs(), repeats=2)
    a = run_plan(plan)
    b = run_plan(plan, workers=3)
    assert multiprocessing.active_children() == []
    assert a.cells == b.cells
    assert not a.failed


def test_run_plan_parse_failure_names_file(tmp_path):
    bad = tmp_path / "broken.tsp"
    bad.write_text("NAME: broken\nDIMENSION: 2\n")
    plan = ExperimentPlan((str(bad),), (2,), _tiny_specs(), repeats=2)
    with pytest.raises(Exception, match="broken.tsp"):
        run_plan(plan)


def test_run_plan_refuses_repeated_instance_name(tmp_path, inst_file, monkeypatch):
    # cells are keyed by instance name, so a second file named p8 used to
    # overwrite the first file's cells
    other = tmp_path / "other" / "renamed.tsp"
    other.parent.mkdir()
    other.write_text(inst_file.read_text())
    solves = []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    plan = ExperimentPlan((str(inst_file), str(other)), (2,), _tiny_specs(), repeats=2)
    with pytest.raises(ValueError, match="'p8'") as err:
        run_plan(plan)
    assert str(inst_file) in str(err.value) and str(other) in str(err.value)
    assert solves == []


@pytest.mark.parametrize("workers", [1, 2])
def test_run_plan_failed_cell_continues(inst_file, workers):
    # one depot for two robots: that algorithm's cells fail, the other's run;
    # a failure raised inside a worker process comes back with its message
    bad_cfg = SolverConfig(aco=TINY, depots=((0.0, 0.0),))
    plan = ExperimentPlan(
        (str(inst_file),),
        (2,),
        (AlgorithmSpec("sine", SolverConfig(aco=TINY)), AlgorithmSpec("bad", bad_cfg)),
        repeats=2,
    )
    results = run_plan(plan, workers=workers)
    assert multiprocessing.active_children() == []
    assert results.failed == {
        ("p8", 2, "bad"): "number of depots must equal the robot count"
    }
    assert ("p8", 2, "sine", "total") in results.cells
    assert ("p8", 2, "bad", "total") not in results.cells


def test_results_csv_round_trip(inst_file):
    plan = ExperimentPlan((str(inst_file),), (2, 3), _tiny_specs(), repeats=2)
    results = run_plan(plan)
    text = format_results_csv(results)
    again = format_results_csv(parse_results_csv(text))
    assert again == text
    assert text.splitlines()[0] == "instance,robots,algorithm,metric,mean,std,n"


def test_results_csv_empty_and_errors():
    assert format_results_csv(BenchResults()) == (
        "instance,robots,algorithm,metric,mean,std,n\n"
    )
    with pytest.raises(ValueError, match="header"):
        parse_results_csv("nope\n")
    with pytest.raises(ValueError, match="bad results row"):
        parse_results_csv(
            "instance,robots,algorithm,metric,mean,std,n\nx,1,a,total,1.0\n"
        )


def test_results_json_carries_raw_runs(inst_file):
    plan = ExperimentPlan((str(inst_file),), (2,), _tiny_specs(), repeats=3)
    results = run_plan(plan)
    data = json.loads(format_results_json(results))
    assert data["seed_base"] == 0
    assert len(data["cells"]) == 4
    for cell in data["cells"]:
        key = (cell["instance"], cell["robots"], cell["algorithm"], cell["metric"])
        stored = results.cells[key]
        assert cell["runs"] == list(stored.runs)
        assert cell["n"] == 3


def test_wilcoxon_rows_verdicts():
    rng = np.random.default_rng(96)
    base = rng.uniform(100.0, 120.0, size=8)
    results = BenchResults()
    for metric in ("total", "max_single"):
        results.cells[("i", 2, "good", metric)] = cell_stats(base)
        results.cells[("i", 2, "bad", metric)] = cell_stats(base + 5.0)
    rows = wilcoxon_verdict_rows(results)
    by_alg = {(r["metric"], r["algorithm"]): r for r in rows}
    assert by_alg[("total", "good")]["verdict"] == "best"
    assert by_alg[("total", "good")]["p_value"] == ""
    assert by_alg[("total", "bad")]["verdict"] == "worse"
    assert float(by_alg[("total", "bad")]["p_value"]) < 0.05
    text = format_wilcoxon_csv(rows)
    assert text.splitlines()[0] == (
        "instance,robots,metric,algorithm,mean,std,p_value,verdict"
    )
    assert text.splitlines()[-1].startswith("# wilcoxon signed-rank")
    assert "0.05" in text.splitlines()[-1]


def test_wilcoxon_rows_short_samples_untested():
    results = BenchResults()
    results.cells[("i", 2, "a", "total")] = cell_stats([1.0, 2.0, 3.0])
    results.cells[("i", 2, "b", "total")] = cell_stats([4.0, 5.0, 6.0])
    rows = wilcoxon_verdict_rows(results)
    verdicts = {r["algorithm"]: r["verdict"] for r in rows}
    assert verdicts == {"a": "best", "b": "untested"}


def test_friedman_blocks_structure():
    results = BenchResults()
    rng = np.random.default_rng(97)
    for inst in ("i1", "i2"):
        for m in (2, 4):
            base = rng.uniform(50, 60, size=4)
            for alg, shift in (("sine", 0.0), ("aco", 3.0)):
                runs = base + shift
                results.cells[(inst, m, alg, "total")] = cell_stats(runs)
                results.cells[(inst, m, alg, "max_single")] = cell_stats(runs / 2)
    blocks = friedman_blocks(results)
    assert set(blocks) == {"2", "4", "overall"}
    assert set(blocks["overall"].per_instance) == {"i1@2", "i1@4", "i2@2", "i2@4"}
    assert blocks["overall"].mean_ranks["sine"] == 1.0
    text = format_friedman_csv(blocks)
    assert text.splitlines()[0] == "block,algorithm,mean_rank,position"
    assert "overall,sine,1.0,1" in text


def test_friedman_blocks_single_instance_overall_only():
    results = BenchResults()
    rng = np.random.default_rng(98)
    for m in (2, 4):
        for alg in ("sine", "aco"):
            results.cells[("only", m, alg, "total")] = cell_stats(
                rng.uniform(50, 60, size=3)
            )
    blocks = friedman_blocks(results)
    # per-robot blocks need two complete instances; overall has two units
    assert set(blocks) == {"overall"}


def test_ablation_default_weights_shape(inst_file):
    inst = load_instance(inst_file)
    base = SolverConfig(aco=TINY, omega=1.0, seed_with_christofides=False)
    sweep = ablation_sweep(inst, 2, repeats=2, base_config=base)
    assert tuple(sorted(sweep)) == DEFAULT_ABLATION_WEIGHTS
    for w, cells in sweep.items():
        assert set(cells) == {"total", "max_single"}
        assert cells["total"].n == 2
    text = format_ablation_csv(sweep, 2)
    lines = text.splitlines()
    assert lines[0] == "weight,robots,metric,mean,std,n"
    assert len(lines) == 1 + 7 * 2


def test_ablation_validation(inst_file):
    inst = load_instance(inst_file)
    with pytest.raises(ValueError, match="non-negative"):
        ablation_sweep(inst, 2, weights=[-1.0], repeats=2)
    with pytest.raises(ValueError, match="repeats"):
        ablation_sweep(inst, 2, repeats=1)


def test_ablation_refuses_duplicate_weights(inst_file, monkeypatch):
    # The sweep is keyed by weight, so a repeated weight would be solved
    # twice and reported once.  Nothing may be solved before the refusal.
    inst = load_instance(inst_file)
    monkeypatch.setattr(bench, "solve", None)
    for weights in ([1.0, 0.5, 1.0], [0.0, -0.0], [2, 2.0]):
        with pytest.raises(ValueError, match="structural weights must be unique"):
            ablation_sweep(inst, 2, weights=weights, repeats=2)


def test_ablation_weight_zero_equals_classic(inst_file):
    inst = load_instance(inst_file)
    base = SolverConfig(aco=TINY, omega=1.0, seed_with_christofides=False)
    sweep = ablation_sweep(inst, 2, weights=[0.0], repeats=3, base_config=base)
    for r in range(3):
        classic = solve(inst, 2, SolverConfig.classic(aco=TINY, master_seed=r))
        assert sweep[0.0]["total"].runs[r] == classic.objectives.total
        assert sweep[0.0]["max_single"].runs[r] == classic.objectives.max_single


def _svg_polylines(text):
    root = ET.fromstring(text)  # raises on malformed XML
    ns = "{http://www.w3.org/2000/svg}"
    return root, root.findall(f"{ns}polyline"), root.findall(f"{ns}circle")


def test_svg_single_tour_closed(tri3_path):
    inst = load_instance(tri3_path)
    report = solve(inst, 1, SolverConfig(aco=TINY))
    text = format_svg_routes(report, inst)
    root, polylines, circles = _svg_polylines(text)
    assert len(polylines) == 1
    assert len(circles) == 3
    points = polylines[0].attrib["points"].split()
    assert len(points) == 4  # three nodes plus the repeated first point
    assert points[0] == points[-1]


def test_svg_multiple_tours_distinct_colors():
    inst = random_planar_instance(12, seed=882)
    report = solve(inst, 4, SolverConfig(aco=TINY))
    text = format_svg_routes(report, inst)
    _, polylines, circles = _svg_polylines(text)
    assert len(polylines) == 4
    colors = {p.attrib["stroke"] for p in polylines}
    assert len(colors) == 4
    assert len(circles) == 12
    assert "viewBox" in text


def test_svg_geo_axes():
    # two nodes sharing a latitude: the higher-longitude one sits further right
    coords = np.array([[10.0, 20.0], [10.0, 30.0], [12.0, 25.0]])
    inst = Instance("g3", coords, Metric.GREAT_CIRCLE)
    report = solve(inst, 1, SolverConfig(aco=TINY))
    text = format_svg_routes(report, inst)
    _, _, circles = _svg_polylines(text)
    cx = [float(c.attrib["cx"]) for c in circles]
    assert cx[1] > cx[0]


def test_emit_artifacts_file_set(tmp_path, inst_file, inst_file2):
    plan1 = ExperimentPlan((str(inst_file),), (2,), _tiny_specs(), repeats=2)
    written = emit_bench_artifacts(run_plan(plan1), tmp_path / "one")
    assert [p.name for p in written] == ["results.csv", "results.json", "wilcoxon.csv"]

    plan2 = ExperimentPlan(
        (str(inst_file), str(inst_file2)), (2, 3), _tiny_specs(), repeats=2
    )
    written2 = emit_bench_artifacts(run_plan(plan2), tmp_path / "two")
    assert [p.name for p in written2] == [
        "results.csv",
        "results.json",
        "wilcoxon.csv",
        "friedman.csv",
    ]
    for p in written2:
        assert p.read_text().strip()
