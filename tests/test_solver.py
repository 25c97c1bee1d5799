"""End-to-end solve behaviour: validity, determinism, traces, reports."""

import dataclasses
import hashlib
import importlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sinepath import solver
from sinepath.aco import AcoParams, SubsetColony
from sinepath.instances import build_distance_matrix, load_instance, random_planar_instance
from sinepath.objective import scalarized_objective, tour_length
from sinepath.solver import (
    IncumbentState,
    SolveReport,
    SolverConfig,
    incumbent_update,
    solve,
)

FAST = AcoParams(n_ants=8, max_iter=25)


def _fast_config(**kwargs):
    kwargs.setdefault("aco", FAST)
    return SolverConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ValueError, match="classic"):
        SolverConfig(mode="aco")  # omega/kappa/seeding not degenerate
    with pytest.raises(ValueError, match="unknown mode"):
        SolverConfig(mode="hybrid")
    with pytest.raises(ValueError, match="omega"):
        SolverConfig(omega=0.5)
    with pytest.raises(ValueError, match="lambda"):
        SolverConfig(lambda_weight=1.5)
    with pytest.raises(ValueError, match="partition"):
        SolverConfig(partition_method="grid")
    with pytest.raises(ValueError, match="stagnation"):
        SolverConfig(stagnation_window=0)
    with pytest.raises(ValueError, match="master_seed"):
        SolverConfig(master_seed=-1)
    for name in ("omega", "lambda_weight"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SolverConfig(**{name: bad})


@pytest.mark.parametrize(
    "name, bad",
    [
        ("master_seed", 2.5),
        ("master_seed", True),
        ("master_seed", None),
        ("master_seed", np.int64(3)),
        ("stagnation_window", 2.5),
        ("stagnation_window", True),
        ("stagnation_window", "3"),
    ],
)
def test_config_counts_must_be_integers(name, bad):
    # 2.5 and True used to be accepted and echoed as 2.5 and true
    with pytest.raises(ValueError, match=f"{name} must be a"):
        SolverConfig(**{name: bad})


@pytest.mark.parametrize(
    "depots",
    [
        ((float("nan"), 0.0), (50.0, 50.0)),
        ((float("inf"), 0.0), (50.0, 50.0)),
        ((0.0, float("-inf")),),
        ((1.0,), (2.0, 3.0)),
        ((1.0, 2.0, 3.0),),
        (("1", 2.0),),
        ((True, 2.0),),
        ((None, 1.0),),
        (1.0, 2.0),
        "ab",
        5,
    ],
    ids=["nan", "inf", "-inf", "short", "long", "string", "bool", "none", "flat", "text", "number"],
)
def test_config_refuses_bad_depots(depots):
    # a NaN depot used to solve with an arbitrary partition and write a bare
    # NaN, which is not JSON, into canonical_json()
    with pytest.raises(ValueError, match="depots must be"):
        SolverConfig(depots=depots)


def test_far_depots_refused_by_name():
    # a depot near 1e308 overflowed the squared distances with numpy
    # warnings and made every node equally far from it
    inst = random_planar_instance(12, seed=82)
    far = _fast_config(depots=((1e308, 0.0), (50.0, 50.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="depots"):
            solve(inst, 2, far)
    # integer coordinates stay legal and are echoed as given
    cfg = _fast_config(depots=((0, 0), [60, 60.5]))
    assert cfg.to_dict()["depots"] == [[0, 0], [60, 60.5]]


def test_classic_constructor():
    cfg = SolverConfig.classic(aco=FAST, master_seed=3)
    assert cfg.mode == "aco"
    assert cfg.omega == 1.0
    assert cfg.aco.kappa == 0.0
    assert not cfg.seed_with_christofides
    assert cfg.master_seed == 3


def test_solve_tours_partition_nodes():
    inst = random_planar_instance(20, seed=70)
    report = solve(inst, 3, _fast_config())
    seen = [v for t in report.tours for v in t.order]
    assert sorted(seen) == list(range(20))
    sizes = sorted(len(t.order) for t in report.tours)
    assert max(sizes) - min(sizes) <= 1
    assert report.robots == 3
    assert report.instance == inst.name


def test_solve_objectives_recompute():
    inst = random_planar_instance(16, seed=71)
    cfg = _fast_config(lambda_weight=0.4)
    report = solve(inst, 2, cfg)
    d = build_distance_matrix(inst)
    lengths = [tour_length(t.order, d) for t in report.tours]
    assert lengths == pytest.approx(list(report.objectives.per_robot), rel=1e-9)
    assert report.objectives.total == pytest.approx(sum(lengths), rel=1e-9)
    assert report.objectives.max_single == pytest.approx(max(lengths), rel=1e-9)
    assert report.objectives.j_value == pytest.approx(
        scalarized_objective(lengths, 0.4), rel=1e-9
    )
    assert report.objectives.overlap_total == 0


def test_trace_monotone_and_complete():
    inst = random_planar_instance(18, seed=72)
    report = solve(inst, 2, _fast_config())
    trace = np.asarray(report.convergence)
    assert len(trace) == report.iterations_run == FAST.max_iter
    assert np.all(np.diff(trace) <= 0)
    assert report.objectives.j_value == pytest.approx(trace[-1], rel=1e-12)


def test_seeded_incumbent_bounds_first_trace_entry():
    from sinepath.backbone import christofides_seed

    inst = random_planar_instance(15, seed=73)
    cfg = _fast_config()
    report = solve(inst, 2, cfg)
    d = build_distance_matrix(inst)
    subsets = [tuple(sorted(t.order)) for t in report.tours]
    seed_j = scalarized_objective(
        [christofides_seed(d, s).length for s in subsets], cfg.lambda_weight
    )
    assert report.convergence[0] <= seed_j + 1e-9


def test_determinism_same_seed():
    inst = random_planar_instance(14, seed=74)
    cfg = _fast_config(master_seed=5)
    a = solve(inst, 3, cfg)
    b = solve(inst, 3, cfg)
    assert a.canonical_json() == b.canonical_json()
    c = solve(inst, 3, _fast_config(master_seed=6))
    assert c.canonical_json() != a.canonical_json()


def test_classic_mode_is_parameter_degeneration():
    inst = random_planar_instance(17, seed=76)
    degen = _fast_config(
        aco=dataclasses.replace(FAST, kappa=0.0),
        omega=1.0,
        seed_with_christofides=False,
        master_seed=11,
    )
    classic = SolverConfig.classic(aco=FAST, master_seed=11)
    a = solve(inst, 2, degen)
    b = solve(inst, 2, classic)
    # the config echo differs (mode string), the results must not
    ra, rb = (json.loads(r.canonical_json()) for r in (a, b))
    assert ra.pop("config") != rb.pop("config")
    assert ra == rb


def test_stagnation_window_stops_early():
    inst = random_planar_instance(6, seed=77)
    cfg = _fast_config(
        aco=AcoParams(n_ants=10, max_iter=400), stagnation_window=5
    )
    report = solve(inst, 1, cfg)
    assert report.iterations_run < 400
    assert len(report.convergence) == report.iterations_run


def test_depot_starts():
    rng = np.random.default_rng(79)
    left = rng.normal(0.0, 2.0, size=(8, 2))
    right = rng.normal(60.0, 2.0, size=(8, 2))
    from sinepath.instances import Instance, Metric

    inst = Instance("dep", np.vstack([left, right]), Metric.EUCLIDEAN)
    depots = ((0.0, 0.0), (60.0, 60.0))
    cfg = _fast_config(depots=depots)
    report = solve(inst, 2, cfg)
    from sinepath.partition import depot_start_nodes, partition_by_depots

    part = partition_by_depots(inst, depots)
    starts = depot_start_nodes(inst, part, depots)
    assert tuple(t.order[0] for t in report.tours) == starts
    with pytest.raises(ValueError, match="depots"):
        solve(inst, 3, _fast_config(depots=depots))


def test_solve_memory_peak():
    # the distance matrix, its n^2 scratch and the per-subset blocks: each
    # colony keeps only its own subset's trail, where one n x n trail over
    # the whole instance used to peak at ~2.5 n^2 doubles
    n = 1000
    inst = random_planar_instance(n, seed=5)
    cfg = SolverConfig(aco=AcoParams(n_ants=5, max_iter=2))
    tracemalloc.start()
    try:
        solve(inst, 8, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * n * n * 8


def test_robot_count_validation():
    inst = random_planar_instance(10, seed=80)
    with pytest.raises(ValueError, match="robot count"):
        solve(inst, 0, _fast_config())
    with pytest.raises(ValueError, match="robot count"):
        solve(inst, 11, _fast_config())


def test_report_round_trip():
    inst = random_planar_instance(12, seed=81)
    report = solve(inst, 2, _fast_config())
    data = json.loads(json.dumps(report.to_dict()))
    back = SolveReport.from_dict(data)
    assert back.canonical_json() == report.canonical_json()
    assert back.wall_time == report.wall_time
    # wall time is physical: present in the full dict, absent from the
    # canonical form
    assert "wall_time" in data
    assert "wall_time" not in json.loads(report.canonical_json())


def test_incumbent_update_rules():
    from sinepath.objective import Tour

    state = IncumbentState()
    first = (Tour((0, 1), 10.0),)
    incumbent_update(state, first, 0.5, 0)
    assert state.tours == first
    assert state.trace == [10.0]

    same_j = (Tour((1, 0), 10.0),)
    incumbent_update(state, same_j, 0.5, 1)
    assert state.tours == first  # ties never replace
    assert state.trace == [10.0, 10.0]

    better = (Tour((0, 1), 8.0),)
    incumbent_update(state, better, 0.5, 2)
    assert state.tours == better
    assert state.last_improvement == 2
    assert state.trace == [10.0, 10.0, 8.0]

    worse = (Tour((0, 1), 9.0),)
    incumbent_update(state, worse, 0.5, 3)
    assert state.tours == better
    assert state.trace == [10.0, 10.0, 8.0, 8.0]


def test_incumbent_trace_follows_decreasing_sequence():
    from sinepath.objective import Tour

    state = IncumbentState()
    seq = [20.0, 17.5, 12.0, 3.25]
    for i, val in enumerate(seq):
        incumbent_update(state, (Tour((0, 1), val),), 0.5, i)
    assert state.trace == seq


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


@pytest.mark.parametrize("master_seed", [0, 1])
def test_bench51_m4_matches_benchmark_golden(bench51_path, master_seed):
    # the benchmark's recorded answers, read only: a speed-up of the default
    # path must leave canonical_json byte-identical
    golden = json.loads(GOLDEN.read_text())["bench51-m4"]
    report = solve(load_instance(bench51_path), 4, SolverConfig(master_seed=master_seed))
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == golden[f"bench51/m4/seed{master_seed}"]


def test_one_colony_call_per_subset_per_iteration(bench51_path, monkeypatch):
    # perfbench's traced run counts one construct_colony call per subset per
    # iteration and reads the (n_ants, n_local) uniform block from the second
    # positional argument; a change to that call pattern must show here first
    calls = []
    original = SubsetColony.construct_colony

    def counted(self, *args, **kwargs):
        calls.append((self.n_local, args[1].shape))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SubsetColony, "construct_colony", counted)
    report = solve(load_instance(bench51_path), 4, _fast_config())
    sizes = sorted(len(t.order) for t in report.tours)
    assert report.iterations_run == FAST.max_iter
    assert len(calls) == FAST.max_iter * 4
    assert all(shape == (FAST.n_ants, n_local) for n_local, shape in calls)
    for t in range(FAST.max_iter):
        assert sorted(n_local for n_local, _ in calls[4 * t : 4 * t + 4]) == sizes


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_counts_match_benchmark_cross_check(bench51_path, monkeypatch):
    # the benchmark wraps named functions from outside and checks the counts
    # it observes against the work a default-path solve must do; a refactor
    # that renames or bypasses a traced name must fail here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    for module, cls, attr, _span, _hook in tracer.TARGETS:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        assert callable(getattr(owner, attr, None)), f"{module}.{cls}.{attr}"
    inst = load_instance(bench51_path)
    iters = 5
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        solver.solve(inst, 4, SolverConfig(aco=AcoParams(max_iter=iters)))
    finally:
        restore()
    expected = workloads.computed_counts(inst.dimension, 4, AcoParams().n_ants, iters)
    assert {key: tr.counts[key] for key in expected} == expected


def test_config_to_dict():
    cfg = SolverConfig(depots=((0.0, 0.0), (10.0, 5.0)), stagnation_window=3)
    expected = {
        "aco": {
            "alpha": 1.0,
            "beta": 2.0,
            "rho": 0.1,
            "q_scale": 1.0,
            "kappa": 1.0,
            "n_ants": 50,
            "max_iter": 1000,
            "gamma": 1.0,  # retired, echoed at its only value
        },
        "omega": 2.0,
        "lambda_weight": 0.5,
        "partition_method": "angle",
        "seed_with_christofides": True,
        "master_seed": 0,
        "mode": "sine",
        "stagnation_window": 3,
        "depots": [[0.0, 0.0], [10.0, 5.0]],
        # retired knobs, echoed at their only value
        "repartition_each_iter": False,
        "matching_method": "greedy",
        "backbone_per_subset": False,
        "tau0": 1.0,
        "mu": 0.0,
        "seed_method": "christofides",
    }
    got = cfg.to_dict()
    assert got == expected
    assert list(got) == list(expected)
    assert list(got["aco"]) == list(expected["aco"])
    assert type(got["depots"]) is list
    assert all(type(p) is list for p in got["depots"])
    assert SolverConfig().to_dict()["depots"] is None


def test_report_json_key_order():
    # `sinepath solve` writes json.dumps(report.to_dict(), indent=2): the
    # keys keep this order in the file
    report = solve(random_planar_instance(12, seed=81), 2, _fast_config())
    data = json.loads(json.dumps(report.to_dict(), indent=2))
    assert list(data) == [
        "instance", "robots", "tours", "objectives", "convergence",
        "iterations_run", "seed", "config", "wall_time",
    ]
    assert list(data["tours"][0]) == ["order", "length"]
    assert list(data["objectives"]) == [
        "per_robot", "total", "max_single", "lambda_weight", "j_value",
        "overlap_total", "mu", "j_prime",
    ]
    assert list(data["config"]) == [f.name for f in dataclasses.fields(SolverConfig)] + [
        "repartition_each_iter", "matching_method", "backbone_per_subset",
        "tau0", "mu", "seed_method",
    ]
    assert list(data["config"]["aco"]) == [
        f.name for f in dataclasses.fields(AcoParams)
    ] + ["gamma"]
