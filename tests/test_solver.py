"""End-to-end solve behaviour: validity, determinism, traces, reports."""

import dataclasses
import hashlib
import importlib
import json
import math
import re
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pairwise_overlap_total, reference_solve
from sinepath import aco, solver
from sinepath.aco import AcoParams, SubsetColony
from sinepath.instances import (
    Instance,
    Metric,
    build_distance_matrix,
    load_instance,
    random_planar_instance,
)
from sinepath.objective import scalarized_objective, tour_length
from sinepath.solver import (
    IncumbentState,
    SolverConfig,
    incumbent_update,
    solve,
)

FAST = AcoParams(n_ants=8, max_iter=25)


def _fast_config(**kwargs):
    kwargs.setdefault("aco", FAST)
    return SolverConfig(**kwargs)


def test_config_validation():
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


@pytest.mark.parametrize("name", ["omega", "lambda_weight"])
@pytest.mark.parametrize("bad", [True, np.bool_(True), "2", None, 1j])
def test_config_reals_must_be_real_numbers(name, bad):
    # omega=True ran at omega = 1 and echoed "omega": true; omega="2" raised a
    # bare TypeError from math.isfinite
    message = f"{name} must be a real number, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{name: bad})


@pytest.mark.parametrize("bad", ["False", 1, 0, None, np.bool_(True)],
                         ids=["text", "one", "zero", "none", "numpy-bool"])
def test_config_seeding_switch_must_be_a_bool(bad):
    # "False" used to seed, and 1 ran the solve of True under another report hash
    message = f"seed_with_christofides must be a bool, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        SolverConfig(seed_with_christofides=bad)


def test_config_reals_are_stored_as_floats():
    # omega=2 echoed "omega": 2 where omega=2.0 echoes 2.0, and depots
    # ((0, 0),) echoed [[0, 0]], so one configuration had two report hashes
    given = SolverConfig(omega=2, lambda_weight=np.float32(0.25),
                         depots=[(0, np.int64(0)), [60, 60.5]])
    spelled = SolverConfig(omega=2.0, lambda_weight=0.25, depots=((0.0, 0.0), (60.0, 60.5)))
    assert given == spelled
    assert (type(given.omega), type(given.lambda_weight)) == (float, float)
    assert {type(c) for p in given.depots for c in p} == {float}
    assert json.dumps(given.to_dict()) == json.dumps(spelled.to_dict())


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
        np.array([1.0, 2.0]),
        np.array([[True, False]]),
        "ab",
        5,
    ],
    ids=["nan", "inf", "-inf", "short", "long", "string", "bool", "none", "flat", "flat-array",
         "bool-array", "text", "number"],
)
def test_config_refuses_bad_depots(depots):
    # a NaN depot used to solve with an arbitrary partition and write a bare
    # NaN, which is not JSON, into canonical_json()
    with pytest.raises(ValueError, match="depots must be"):
        SolverConfig(depots=depots)


def test_config_takes_depots_as_an_array():
    # an (m, 2) array, which partition_by_depots took, used to be refused here
    spelled = SolverConfig(depots=((0.0, 0.0), (60.0, 60.5)))
    given = SolverConfig(depots=np.array([[0.0, 0.0], [60.0, 60.5]]))
    assert {type(x) for p in given.depots for x in p} == {float}
    assert json.dumps(given.to_dict()) == json.dumps(spelled.to_dict())


def test_far_depots_refused_by_name():
    # a depot near 1e308 overflowed the squared distances with numpy
    # warnings and made every node equally far from it
    inst = random_planar_instance(12, seed=82)
    far = _fast_config(depots=((1e308, 0.0), (50.0, 50.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="depots"):
            solve(inst, 2, far)
    # integer coordinates stay legal and are echoed as floats
    cfg = _fast_config(depots=((0, 0), [60, 60.5]))
    assert cfg.to_dict()["depots"] == [[0.0, 0.0], [60.0, 60.5]]


def test_overflowing_scores_refused_without_warnings(bench51_path):
    # numpy printed "RuntimeWarning: overflow" (an error in this suite) before
    # the refusal: from the trail times the weight, and from the omega boost
    bench51 = load_instance(bench51_path)
    huge_q = SolverConfig(aco=AcoParams(q_scale=1e308, n_ants=5, max_iter=30))
    with pytest.raises(ValueError, match="non-finite successor scores"):
        solve(bench51, 2, huge_q)
    with pytest.raises(ValueError, match="non-finite successor scores"):
        solve(bench51, 2, _fast_config(omega=1e308))
    # a finite visibility whose unscaled scores pass the row-total limit used
    # to be refused; the colony scales it down, and the instance solves
    report = solve(_fine12(), 2, _fast_config(omega=1e300))
    assert sorted(v for t in report.tours for v in t.order) == list(range(12))
    assert 0 < report.objectives.j_value < math.inf


def test_mode_is_derived_from_the_prior():
    # "aco" exactly when omega = 1, kappa = 0 and seeding is off; no field sets it
    assert SolverConfig().mode == "sine"
    assert SolverConfig.classic().mode == "aco"
    assert dataclasses.replace(SolverConfig.classic(), aco=AcoParams(kappa=0.5)).mode == "sine"
    neutral = SolverConfig(aco=AcoParams(kappa=0.0), omega=1.0, seed_with_christofides=False)
    assert neutral == SolverConfig.classic()
    assert neutral.to_dict()["mode"] == "aco"
    assert len(dataclasses.fields(SolverConfig)) == 8
    with pytest.raises(TypeError, match="mode"):
        SolverConfig(mode="aco")


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
    # disjoint subsets share no edge: the report echoes the overlap count 0,
    # the retired weight mu = 0 and J' = J
    echoed = report.to_dict()["objectives"]
    assert (echoed["overlap_total"], echoed["mu"], echoed["j_prime"]) == (
        0, 0.0, report.objectives.j_value)
    assert pairwise_overlap_total(report.tours) == 0


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
        [christofides_seed(d[np.ix_(s, s)]).length for s in subsets], cfg.lambda_weight
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
    # the mode is derived, so even the config echo agrees
    assert solve(inst, 2, degen).canonical_json() == solve(inst, 2, classic).canonical_json()


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
    from sinepath.partition import partition_by_depots

    _, starts = partition_by_depots(inst, depots)
    assert tuple(t.order[0] for t in report.tours) == starts
    with pytest.raises(ValueError, match="depots"):
        solve(inst, 3, _fast_config(depots=depots))


def test_depot_seed_incumbent_starts_at_the_depots():
    # the seed tours stay the incumbent here; they were reported from each
    # subset's lowest node, (0, 4, 5, 1), instead of the depot starts
    from sinepath.backbone import christofides_seed
    from sinepath.instances import distance_block
    from sinepath.partition import partition_by_depots

    inst = random_planar_instance(300, 3)
    depots = ((0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0))
    report = solve(inst, 4, SolverConfig(aco=AcoParams(n_ants=10, max_iter=5), depots=depots))
    part, starts = partition_by_depots(inst, depots)
    assert starts == (190, 256, 10, 180)
    assert tuple(t.order[0] for t in report.tours) == starts
    for sub, start, tour in zip(part.subsets, starts, report.tours):
        seed = christofides_seed(distance_block(inst, sub)).order
        i = seed.index(sub.index(start))
        assert tour.order == tuple(sub[v] for v in seed[i:] + seed[:i])
    d = build_distance_matrix(inst)
    assert [t.length for t in report.tours] == [tour_length(t.order, d) for t in report.tours]


def test_depots_refuse_a_kmeans_partition():
    # depots decide the split, so a kmeans request was ignored and yet
    # echoed in the report; it is refused by name
    with pytest.raises(ValueError, match="depots.*kmeans"):
        SolverConfig(depots=((0.0, 0.0), (60.0, 60.0)), partition_method="kmeans")


def test_depot_solve_measures_its_depots_once(monkeypatch):
    # the split and the start nodes come from one pass over the n x m
    # squared point-to-depot distances
    from sinepath import partition

    calls = []
    measure = partition._depot_distances
    monkeypatch.setattr(partition, "_depot_distances", lambda *a: calls.append(a) or measure(*a))
    solve(random_planar_instance(20, 3), 2, _fast_config(depots=((0.0, 0.0), (100.0, 100.0))))
    assert len(calls) == 1


def test_solve_memory_peak():
    # the distance matrix lives only through the global MST, and each colony
    # keeps its own subset's block and trail: ~1.08 n^2 doubles at m = 8.
    # Holding the matrix beside its n^2 scratch and then through the colony
    # loop peaked at 2.02, and one n x n trail at ~2.5
    n = 1000
    inst = random_planar_instance(n, seed=5)
    cfg = SolverConfig(aco=AcoParams(n_ants=5, max_iter=2))
    tracemalloc.start()
    try:
        solve(inst, 8, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


def test_matrix_released_before_the_colonies_run(monkeypatch):
    # solve builds the dense matrix once, for the global MST, and must drop
    # it before the first colony step; the colonies read their own blocks
    built = []
    original = solver.build_distance_matrix

    def watched(inst):
        d = original(inst)
        built.append(weakref.finalize(d, lambda: None))
        return d

    alive_at_first_step = []
    construct = SubsetColony.construct_colony

    def first_step(self, *args, **kwargs):
        if not alive_at_first_step:
            alive_at_first_step.append(built[0].alive)
        return construct(self, *args, **kwargs)

    monkeypatch.setattr(solver, "build_distance_matrix", watched)
    monkeypatch.setattr(SubsetColony, "construct_colony", first_step)
    solve(random_planar_instance(60, seed=6), 3, _fast_config())
    assert len(built) == 1
    assert alive_at_first_step == [False]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 24),
    direction=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (3.0, -7.0)]),
    exponent=st.floats(-6.0, 6.0),
    robots=st.sampled_from(["one", "all", "some"]),
    partition_method=st.sampled_from(["angle", "kmeans"]),
    seed=st.integers(0, 2**16),
)
@example(n=2, direction=(1.0, 0.0), exponent=-6.0, robots="all", partition_method="angle",
         seed=0)
@example(n=24, direction=(1.0, 1.0), exponent=6.0, robots="one", partition_method="kmeans",
         seed=1)
def test_solve_on_collinear_points(n, direction, exponent, robots, partition_method, seed):
    # points on one line at scales 1e-6 to 1e6, one robot or one robot per
    # node: the tours are a disjoint cover, and each reported length is the
    # full matrix's tour length bit for bit, so every block held its bits
    rng = np.random.default_rng(seed)
    steps = np.cumsum(rng.uniform(0.5, 2.0, size=n)) * 10.0**exponent
    coords = np.outer(steps, direction) + 10.0**exponent
    inst = Instance("line", coords, Metric.EUCLIDEAN)
    m = {"one": 1, "all": n, "some": max(1, n // 3)}[robots]
    cfg = _fast_config(
        aco=AcoParams(n_ants=4, max_iter=6), partition_method=partition_method, master_seed=seed
    )
    report = solve(inst, m, cfg)
    visited = [v for t in report.tours for v in t.order]
    assert sorted(visited) == list(range(n))
    assert len(report.tours) == m
    d = build_distance_matrix(inst)
    for tour in report.tours:
        assert tour.length == tour_length(tour.order, d)


def test_robot_count_validation():
    inst = random_planar_instance(10, seed=80)
    with pytest.raises(ValueError, match="robot count"):
        solve(inst, 0, _fast_config())
    with pytest.raises(ValueError, match="robot count"):
        solve(inst, 11, _fast_config())
    # True used to run one robot and report "robots": true; 2.0 died inside
    # the partition with a bare TypeError.
    for bad in (True, 2.0, np.int64(2), "2", None):
        with pytest.raises(ValueError, match=re.escape(f"robot count must be an integer, got {bad!r}")):
            solve(inst, bad, _fast_config())


def test_report_round_trip():
    inst = random_planar_instance(12, seed=81)
    report = solve(inst, 2, _fast_config())
    data = json.loads(json.dumps(report.to_dict()))
    # wall time is physical: present in the full dict, absent from the
    # canonical form, which reads back as the rest of the full dict
    assert data["wall_time"] == report.wall_time
    assert json.loads(report.canonical_json()) == {k: v for k, v in data.items()
                                                    if k != "wall_time"}
    # the objectives echo the retired overlap, penalty and J' at their values
    obj = data["objectives"]
    assert (obj["overlap_total"], obj["mu"], obj["j_prime"]) == (0, 0.0, obj["j_value"])
    assert list(obj)[-3:] == ["overlap_total", "mu", "j_prime"]


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


def test_rand2000_m8_matches_benchmark_golden():
    # the benchmark's wide workload, read only: its colonies run on 250-wide
    # rows, which the bench51 subsets never reach, so this is the check of
    # wide colony steps against a recorded answer
    golden = json.loads(GOLDEN.read_text())["rand2000-m8"]
    config = SolverConfig(aco=AcoParams(max_iter=20), master_seed=0)
    report = solve(random_planar_instance(2000, 2000), 8, config)
    assert {len(t.order) for t in report.tours} == {250}
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == golden["rand2000-s2000/m8/seed0"]


_PIN_ACO = AcoParams(n_ants=9, max_iter=40)
_R30 = (30, 5, 3)  # random_planar_instance(30, 5, clusters=3)

# Solves off the default path, each pinned to the sha256 of its
# canonical_json(): (instance, robots, config, digest).  The goldens above
# cover only default solves; these reach the kmeans and depot partitions, a
# great-circle instance, the clamped roulette (rho = 1), a stagnation stop,
# one robot and one node per robot, the plain colony, other exponents and
# weights, and a master seed past 2^32.
_PINNED = {
    "kmeans": ("bench51.tsp", 4, SolverConfig(aco=_PIN_ACO, partition_method="kmeans",
                                              master_seed=2),
               "e2bc3302b5faec34fc8b7eb6f2adc581a8d5cddaa182367dd25795752210a9c0"),
    # Re-recorded when seed tours began at the depot starts: its seeds stay
    # the incumbent, now reported from nodes (23, 39) instead of (1, 0), with
    # J unchanged; it was 3990a801a2347c2ce8befca70170718b860d88f982851bb91758d9bc352bbcf3.
    "depots": ("bench51.tsp", 2, SolverConfig(aco=_PIN_ACO, depots=((0.0, 0.0), (60.0, 60.0)),
                                              master_seed=1),
               "531e51a1e579a857b924ff20282c71183e3ca3f57efbc33dd21873885837f4f8"),
    "geo-depots": ("geo50.csv", 3, SolverConfig(
        aco=_PIN_ACO, depots=((-74.0, -73.9), (-73.8, -73.7), (-73.95, -73.6))),
        "8b6c8d5fab3b9046f5ea1e31feb218008a8cb1fe75a53ccda3827a8066e636eb"),
    "rho-1": ("bench51.tsp", 4, SolverConfig(aco=dataclasses.replace(_PIN_ACO, rho=1.0)),
              "4c6a8cbce39fb61aaa1229c7e5085451601c127f604fae1ad6d0f5ea21d146b7"),
    "stagnation": ("bench51.tsp", 4, SolverConfig(
        aco=dataclasses.replace(_PIN_ACO, max_iter=10**6), stagnation_window=5),
        "1d10293d9932d8ff4ec7a631aa52616a7f159c9b6e5d490d16ad6444fdbd0498"),
    "m1": ("bench51.tsp", 1, SolverConfig(aco=_PIN_ACO),
           "3fcf76ec413e7dd5c046593d6e60f9e2fbf3cde48f145ca1792d52f09344cb2a"),
    "m25": ("bench51.tsp", 25, SolverConfig(aco=_PIN_ACO),
            "e3c529d84f3103c3991d6bc62d117b99c64bead2b1d423c8c719cf0ab520f81c"),
    "m51": ("bench51.tsp", 51, SolverConfig(aco=_PIN_ACO),
            "71af8f111973441714c758b55d54a0dee15741e1067901b18cec545b97a51b65"),
    "tri3": ("tri3.tsp", 3, SolverConfig(aco=_PIN_ACO),
             "9c69474f837d25f2de9cacd5119c887406a33fa230c1d1eff055d618e2f57c0b"),
    "classic": ("geo50.csv", 4, SolverConfig.classic(aco=_PIN_ACO, master_seed=9),
                "1e2184ed5087eba3d5785ae157865dfbe84c5304ebee21319834c9956f75e98f"),
    "lambda-0": (_R30, 3, SolverConfig(aco=dataclasses.replace(_PIN_ACO, alpha=2.0, beta=3.5),
                                       lambda_weight=0.0),
                 "187faadd7d1906864d2e7f41232e8e504196ffff787363e203b7b0c148792d83"),
    "seed-2^40+7": ("bench51.tsp", 4, SolverConfig(aco=_PIN_ACO, master_seed=2**40 + 7),
                    "b2de8b8ba0bc18909da009aef7c9481ed3dcd4bbd98745ddc9f6282b65e09c10"),
    "lambda-1-depots": (_R30, 2, SolverConfig(aco=_PIN_ACO, depots=((0.0, 100.0), (100.0, 0.0)),
                                              lambda_weight=1.0),
                        "5e121ae9e7d1da4e4b007399213ee96c12e3a4121b5539dfc954b9e657ce2150"),
}


def _pinned_case(case, data_dir):
    """The instance, robots, config and digest of the pinned solve ``case``."""
    where, m, config, digest = _PINNED[case]
    if isinstance(where, tuple):
        n, seed, clusters = where
        inst = random_planar_instance(n, seed, clusters=clusters)
    else:
        inst = load_instance(data_dir / where)
    return inst, m, config, digest


@pytest.mark.parametrize("case", _PINNED)
def test_pinned_solve_matches_recorded_hash(case, data_dir):
    # recorded before the closed-tour length rule moved into objective.py;
    # a byte-identical refactor must leave every one of these unchanged
    inst, m, config, digest = _pinned_case(case, data_dir)
    report = solve(inst, m, config)
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest


def _fine12():
    """12 random points shrunk by 1e-5, whose visibility at omega = 1e300
    the colony scales down."""
    base = random_planar_instance(12, seed=83)
    return Instance("fine12", base.coords * 1e-5, base.metric)


@st.composite
def _solve_draws(draw):
    n = draw(st.integers(3, 29))
    m = draw(st.integers(1, min(5, n)))
    inst = random_planar_instance(n, draw(st.integers(0, 10**6)),
                                  clusters=draw(st.sampled_from([0, 3])))
    # a power of two scales every distance exactly
    scale = 2.0 ** draw(st.integers(-40, 40))
    inst = Instance(inst.name, inst.coords * scale, inst.metric)
    aco = AcoParams(
        alpha=draw(st.sampled_from([0.5, 1.0, 2.0])),
        beta=draw(st.sampled_from([1.0, 2.0, 3.5])),
        rho=draw(st.sampled_from([0.1, 0.5, 1.0])),
        kappa=draw(st.sampled_from([0.0, 1.0, 2.5])),
        n_ants=draw(st.integers(1, 6)),
        max_iter=draw(st.integers(1, 8)),
    )
    split = draw(st.sampled_from(["angle", "kmeans", "depots"]))
    depots = None
    if split == "depots":
        depots = tuple(tuple(scale * c for c in draw(st.tuples(st.floats(-20.0, 120.0),
                                                               st.floats(-20.0, 120.0))))
                       for _ in range(m))
    config = SolverConfig(
        aco=aco,
        omega=draw(st.sampled_from([1.0, 2.0, 5.0])),
        lambda_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
        partition_method="angle" if split == "depots" else split,
        seed_with_christofides=draw(st.booleans()),
        master_seed=draw(st.integers(0, 2**40)),
        stagnation_window=draw(st.none() | st.integers(1, 3)),
        depots=depots,
    )
    return inst, m, config


def _outcome(run, inst, m, config):
    try:
        return run(inst, m, config).canonical_json()
    except ValueError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(_solve_draws())
# the oracle's unscaled visibility used to overflow here, where solve solves
@example((_fine12(), 2, _fast_config(omega=1e300)))
def test_solve_matches_the_reference_solve(draw):
    # the whole solve against oracles.reference_solve, which rebuilds it from
    # the reference colony steps on one n x n trail in node ids: both report
    # the same bytes, or both refuse
    inst, m, config = draw
    assert _outcome(solve, inst, m, config) == _outcome(reference_solve, inst, m, config)


def test_one_colony_call_per_subset_per_iteration(bench51_path, monkeypatch):
    # perfbench's traced run counts one construct_colony call per subset per
    # iteration and reads the (n_ants, n_local) uniform block from the second
    # positional argument; a change to that call pattern must show here first.
    # Block (t, k) holds the draws the determinism contract documents: those
    # of a SeedSequence seeded with the tuple (master_seed, 1, t, k).
    calls = []
    original = SubsetColony.construct_colony

    def counted(self, *args, **kwargs):
        calls.append((self.n_local, args[1].copy()))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SubsetColony, "construct_colony", counted)
    master_seed = 2**40 + 7
    report = solve(load_instance(bench51_path), 4, _fast_config(master_seed=master_seed))
    sizes = sorted(len(t.order) for t in report.tours)
    assert report.iterations_run == FAST.max_iter
    assert len(calls) == FAST.max_iter * 4
    assert all(block.shape == (FAST.n_ants, n_local) for n_local, block in calls)
    for t in range(FAST.max_iter):
        assert sorted(n_local for n_local, _ in calls[4 * t : 4 * t + 4]) == sizes
        for k, (n_local, block) in enumerate(calls[4 * t : 4 * t + 4]):
            ss = np.random.SeedSequence((master_seed, 1, t, k))
            expected = np.random.default_rng(ss).random((FAST.n_ants, n_local))
            assert np.array_equal(block, expected)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**80 - 1),
    st.integers(0, 10**6 - 1) | st.integers(2**32 - 4, 2**32 + 4),
    st.integers(0, 63),
)
@example(0, 0, 0)
@example(2**32 - 1, 0, 0)
@example(2**32, 999_999, 63)
@example(2**64 + 3, 5, 1)
@example(7, 2**32 - 1, 3)  # the last iteration of one word
@example(7, 2**32, 2)  # the first of two words: the entropy rows widen
@example(2**40, 2**64 + 1, 0)  # three words of t
@example(1, solver._SEED_CHUNK - 1, 3)  # the last iteration of a seeding chunk
@example(1, solver._SEED_CHUNK, 3)  # the first of the next
def test_colony_entropy_seeds_like_the_tuple(master_seed, t, k):
    # the solver builds the uint32 words of block (t, k) and hashes them in
    # one pass over a chunk of iterations; both the words and the hashed state
    # must start the generator where seeding from the documented tuple does
    from_tuple = np.random.PCG64(np.random.SeedSequence((master_seed, 1, t, k))).state
    words = solver._colony_entropy(master_seed, t, 1, k + 1)[k]
    assert np.random.PCG64(np.random.SeedSequence(words)).state == from_tuple
    # a few iterations of the seeding chunk that holds t, up to t
    lo = max(t - 2, t - t % solver._SEED_CHUNK)
    states = solver._colony_seeds(master_seed, lo, t + 1 - lo, k + 1)
    assert np.random.PCG64(solver._SeedState(states[t - lo, k])).state == from_tuple


def test_draw_blocks_across_a_seeding_chunk(bench51_path, monkeypatch):
    # a budget that crosses a seeding chunk: each block (t, k) still holds
    # the draws of a SeedSequence seeded with (master_seed, 1, t, k)
    blocks = []
    original = SubsetColony.construct_colony

    def recorded(self, *args, **kwargs):
        blocks.append(args[1].copy())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SubsetColony, "construct_colony", recorded)
    iters = solver._SEED_CHUNK + 3
    cfg = _fast_config(aco=AcoParams(n_ants=2, max_iter=iters), master_seed=11)
    solve(load_instance(bench51_path), 4, cfg)
    assert len(blocks) == 4 * iters
    for i, block in enumerate(blocks):
        t, k = divmod(i, 4)
        expected = np.random.default_rng(np.random.SeedSequence((11, 1, t, k)))
        assert np.array_equal(block, expected.random(block.shape)), (t, k)


def _generator_calls(monkeypatch) -> dict:
    """The arguments of every ``SeedSequence``, ``default_rng``, ``PCG64``
    and ``Generator`` that numpy builds from here on, by name."""
    calls = {}
    for name in ("SeedSequence", "default_rng", "PCG64", "Generator"):
        real = getattr(np.random, name)

        def built(*args, _real=real, _name=name, **kwargs):
            calls.setdefault(_name, []).append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, built)
    return calls


def test_the_compiled_loop_builds_no_generator(bench51_path, monkeypatch):
    # on the compiled loop one call per iteration runs numpy's PCG64 stream
    # from the hashed states and fills every subset's block, so a solve
    # builds no numpy generator and no seed at all
    if aco._step_kernel() is None:
        pytest.skip(f"the compiled step loop is unavailable: {aco._kernel}")
    calls = _generator_calls(monkeypatch)
    solve(load_instance(bench51_path), 4, _fast_config())
    assert calls == {}


def test_no_draw_block_is_hashed_by_numpy(bench51_path, monkeypatch, numpy_loop):
    # on the numpy loop every block's generator starts from a state hashed
    # in advance for many blocks at once; a SeedSequence per block, or a
    # seed that numpy hashes itself, would bring back the per-block hash
    calls = _generator_calls(monkeypatch)
    solve(load_instance(bench51_path), 4, _fast_config())
    assert "SeedSequence" not in calls and "default_rng" not in calls
    seeds = [seed for seed, in calls["PCG64"]]
    assert len(seeds) == 4 * FAST.max_iter
    assert all(type(seed) is solver._SeedState for seed in seeds)


def test_huge_budget_stops_at_stagnation_quickly(bench51_path):
    # the seed words are built per iteration, never for the whole budget
    inst = load_instance(bench51_path)
    cfg = _fast_config(aco=AcoParams(n_ants=8, max_iter=10**7), stagnation_window=1)
    start = time.perf_counter()
    report = solve(inst, 4, cfg)
    assert time.perf_counter() - start < 1.0
    assert report.iterations_run < 100


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
    # every construct call reads its trail through one traced local_tau call,
    # so the per-layer local_tau time stays the colonies' whole trail cost
    construct = {sid for sid, _, _, name, _, _ in tr.spans if name == "aco.construct"}
    parents = [parent for _, parent, _, name, _, _ in tr.spans if name == "aco.local_tau"]
    assert len(construct) == 4 * iters
    assert sorted(parents) == sorted(construct)


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
        "stagnation_window": 3,
        "depots": [[0.0, 0.0], [10.0, 5.0]],
        "mode": "sine",  # derived from omega, kappa and seeding
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
        "mode", "repartition_each_iter", "matching_method", "backbone_per_subset",
        "tau0", "mu", "seed_method",
    ]
    assert list(data["config"]["aco"]) == [
        f.name for f in dataclasses.fields(AcoParams)
    ] + ["gamma"]
