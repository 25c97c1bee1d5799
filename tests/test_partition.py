"""Node partitioning: balance, disjoint cover, and depot assignment."""

import re

import numpy as np
import pytest

from sinepath.instances import Instance, Metric, load_instance, random_planar_instance
from sinepath.partition import partition_angle, partition_by_depots, partition_kmeans_like
from sinepath.solver import SolverConfig


def _check_valid(part, n, m):
    assert len(part.subsets) == m
    all_nodes = [v for sub in part.subsets for v in sub]
    assert sorted(all_nodes) == list(range(n))
    sizes = [len(s) for s in part.subsets]
    assert max(sizes) - min(sizes) <= 1
    for sub in part.subsets:
        assert list(sub) == sorted(sub)


def test_partitions_valid_across_methods():
    rng = np.random.default_rng(51)
    depot_rng = np.random.default_rng(58)
    for trial in range(20):
        n = int(rng.integers(6, 30))
        m = int(rng.integers(1, min(n, 9) + 1))
        inst = random_planar_instance(n, seed=800 + trial)
        _check_valid(partition_angle(inst, m), n, m)
        _check_valid(partition_kmeans_like(inst, m, seed=trial), n, m)
        depots = depot_rng.uniform(-20.0, 120.0, size=(m, 2))
        part, starts = partition_by_depots(inst, depots)
        _check_valid(part, n, m)
        assert all(start in sub for start, sub in zip(starts, part.subsets, strict=True))


def test_angle_contiguous_on_circle():
    # eight points evenly spread around the origin, laid out so ascending
    # angle matches ascending index; m=4 must cut adjacent pairs
    angles = np.deg2rad(-180 + 22.5 + 45.0 * np.arange(8))
    coords = np.column_stack([np.cos(angles), np.sin(angles)])
    inst = Instance("circle8", coords, Metric.EUCLIDEAN)
    part = partition_angle(inst, 4)
    assert part.subsets == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_kmeans_finds_two_natural_clusters():
    rng = np.random.default_rng(52)
    a = rng.normal(0.0, 1.0, size=(10, 2))
    b = rng.normal(100.0, 1.0, size=(10, 2))
    inst = Instance("two", np.vstack([a, b]), Metric.EUCLIDEAN)
    for seed in range(5):
        part = partition_kmeans_like(inst, 2, seed=seed)
        groups = {frozenset(sub) for sub in part.subsets}
        assert groups == {frozenset(range(10)), frozenset(range(10, 20))}


def test_kmeans_rebalances_uneven_clusters():
    rng = np.random.default_rng(53)
    a = rng.normal(0.0, 1.0, size=(14, 2))
    b = rng.normal(50.0, 1.0, size=(6, 2))
    inst = Instance("uneven", np.vstack([a, b]), Metric.EUCLIDEAN)
    part = partition_kmeans_like(inst, 2, seed=0)
    assert sorted(len(s) for s in part.subsets) == [10, 10]


def test_kmeans_seeded_determinism():
    inst = random_planar_instance(25, seed=54)
    p1 = partition_kmeans_like(inst, 4, seed=9)
    p2 = partition_kmeans_like(inst, 4, seed=9)
    assert p1.subsets == p2.subsets


def test_depot_partition_and_starts():
    rng = np.random.default_rng(55)
    a = rng.normal(0.0, 1.0, size=(8, 2))
    b = rng.normal(40.0, 1.0, size=(8, 2))
    inst = Instance("depots", np.vstack([a, b]), Metric.EUCLIDEAN)
    depots = [(0.0, 0.0), (40.0, 40.0)]
    part, starts = partition_by_depots(inst, depots)
    assert {frozenset(s) for s in part.subsets} == {
        frozenset(range(8)),
        frozenset(range(8, 16)),
    }
    assert len(starts) == 2 and {type(v) for v in starts} == {int}
    for k, (sub, depot) in enumerate(zip(part.subsets, depots)):
        dist = ((inst.coords[list(sub)] - np.asarray(depot)) ** 2).sum(axis=1)
        assert starts[k] == sub[int(dist.argmin())]
        assert starts[k] in sub


def test_depot_validation():
    inst = random_planar_instance(10, seed=56)
    with pytest.raises(ValueError, match="depots must be"):
        partition_by_depots(inst, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="robot count 11"):
        partition_by_depots(inst, [(0.0, 0.0)] * 11)


def test_extreme_robot_counts():
    inst = random_planar_instance(7, seed=57)
    whole = partition_angle(inst, 1)
    assert whole.subsets == (tuple(range(7)),)
    singles = partition_angle(inst, 7)
    assert sorted(len(s) for s in singles.subsets) == [1] * 7
    for bad in (0, 8, -1):
        with pytest.raises(ValueError, match="robot count"):
            partition_angle(inst, bad)
        with pytest.raises(ValueError, match="robot count"):
            partition_kmeans_like(inst, bad, seed=0)


@pytest.mark.parametrize("m", [2.0, True, "2"], ids=repr)
def test_partitions_refuse_a_robot_count_that_is_not_an_integer(m):
    # 2.0 used to raise a bare TypeError from the block sizes or the centre
    # loop, True to split the angle sweep into one subset, and "2" to raise
    # a bare TypeError; solve refuses all three by name
    inst = random_planar_instance(10, seed=57)
    message = re.escape(f"robot count must be an integer, got {m!r}")
    with pytest.raises(ValueError, match=message):
        partition_angle(inst, m)
    with pytest.raises(ValueError, match=message):
        partition_kmeans_like(inst, m, seed=0)


@pytest.mark.parametrize(
    "depots", [(("0", "0"), ("100", "100")), ((True, False), (60, 60))], ids=["string", "bool"]
)
def test_partition_by_depots_refuses_what_the_config_refuses(depots):
    # strings and booleans used to be read as coordinates here while
    # SolverConfig refused them; both now refuse them with one message
    inst = random_planar_instance(10, seed=57)
    with pytest.raises(ValueError, match="depots must be") as refused:
        partition_by_depots(inst, depots)
    with pytest.raises(ValueError) as config_refused:
        SolverConfig(depots=depots)
    assert str(refused.value) == str(config_refused.value)


@pytest.mark.parametrize("seed", [1.5, "3", True, -1, None], ids=repr)
def test_kmeans_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # 1.5 and "3" used to raise a bare TypeError, True to run as seed 1, -1
    # to raise numpy's message without the name and None to draw fresh entropy
    inst = random_planar_instance(10, seed=57)
    message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        partition_kmeans_like(inst, 2, seed=seed)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_partition_by_depots_refuses_non_finite_depots(bad):
    # a NaN or infinite depot used to return an arbitrary balanced split
    inst = random_planar_instance(10, seed=57)
    with pytest.raises(ValueError, match="depots must be"):
        partition_by_depots(inst, [(bad, 0.0), (100.0, 100.0)])


@pytest.mark.parametrize("far", [1e200, 1e308])
def test_far_depots_refused_alike(bench51_path, far):
    # a finite but far depot used to overflow the squared offsets of the
    # start-node pass, warn and return the lowest-index member of each
    # subset; the split and the starts now come from one guarded pass
    inst = load_instance(bench51_path)
    with pytest.raises(ValueError, match="depots too far"):
        partition_by_depots(inst, [(far, 0.0), (100.0, 100.0)])
