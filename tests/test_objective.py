"""Tour lengths, the scalarized trade-off, and edge overlap."""

import dataclasses

import numpy as np
import pytest

from oracles import edge_overlap, pairwise_overlap_total
from sinepath.instances import build_distance_matrix, random_planar_instance
from sinepath.objective import (
    Tour,
    evaluate_objectives,
    scalarized_objective,
    tour_length,
)

TRI_D = np.array(
    [[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]]
)  # right triangle 3-4-5


def test_tour_length_triangle():
    assert tour_length([0, 1, 2], TRI_D) == 12.0
    assert tour_length([2, 0, 1], TRI_D) == 12.0


def test_tour_length_degenerate():
    assert tour_length([1], TRI_D) == 0.0
    assert tour_length([0, 2], TRI_D) == 8.0  # edge traversed out and back
    with pytest.raises(ValueError, match="empty"):
        tour_length([], TRI_D)


def test_scalarized_identities():
    rng = np.random.default_rng(21)
    for _ in range(200):
        lengths = rng.uniform(1.0, 100.0, size=rng.integers(1, 9))
        total, mx = lengths.sum(), lengths.max()
        assert scalarized_objective(lengths, 1.0) == total
        assert scalarized_objective(lengths, 0.0) == mx
        lam = float(rng.uniform(0, 1))
        assert scalarized_objective(lengths, lam) == pytest.approx(
            lam * total + (1 - lam) * mx, rel=1e-15
        )
        # J is affine in lambda with slope total - max
        slope = scalarized_objective(lengths, 1.0) - scalarized_objective(lengths, 0.0)
        assert slope == pytest.approx(total - mx, rel=1e-15)
        assert scalarized_objective(lengths, lam) == pytest.approx(
            mx + lam * slope, rel=1e-12
        )


def test_scalarized_validation():
    with pytest.raises(ValueError, match="lambda"):
        scalarized_objective([1.0], 1.5)
    with pytest.raises(ValueError, match="lambda"):
        scalarized_objective([1.0], -0.1)
    with pytest.raises(ValueError, match="no tour lengths"):
        scalarized_objective([], 0.5)


def test_selection_monotone_in_lambda():
    # Over a fixed candidate set, the J-minimiser's sensitivity (total - max)
    # can only decrease as lambda sweeps upward.
    rng = np.random.default_rng(22)
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(50):
        candidates = [rng.uniform(5.0, 50.0, size=4) for _ in range(6)]
        sens = []
        for lam in grid:
            js = [scalarized_objective(c, lam) for c in candidates]
            pick = int(np.argmin(js))
            c = candidates[pick]
            sens.append(scalarized_objective(c, 1.0) - scalarized_objective(c, 0.0))
        diffs = np.diff(sens)
        assert np.all(diffs <= 1e-9)


def _tour(order):
    return Tour(tuple(order), tour_length(order, TRI_D))


def test_edge_overlap():
    t = _tour([0, 1, 2])
    assert edge_overlap(t, t) == 3  # closing edge counts
    a = Tour((0, 1), 6.0)
    b = Tour((1, 2), 10.0)
    assert edge_overlap(a, b) == 0
    assert edge_overlap(a, t) == 1
    assert edge_overlap(a, t) == edge_overlap(t, a)
    assert len(a.edge_set()) == 1


def test_pairwise_overlap_total():
    t = _tour([0, 1, 2])
    a = Tour((0, 1), 6.0)
    assert pairwise_overlap_total([t, a]) == 1
    assert pairwise_overlap_total([t, t, a]) == 3 + 1 + 1
    assert pairwise_overlap_total([t]) == 0


def test_penalized_objective():
    # J' = J + mu * (pairwise shared edges) at mu = 0, which the report only
    # echoes (see test_solve_objectives_recompute); t shares (0, 1) with a
    # and (1, 2) with b, a and b share nothing
    tours = (_tour([0, 1, 2]), Tour((0, 1), 6.0), Tour((1, 2), 10.0))
    base = evaluate_objectives(tours, 0.5)
    assert pairwise_overlap_total(tours) == 2
    assert base.j_value == 0.5 * 28.0 + 0.5 * 12.0


def test_evaluate_objectives_fields():
    tours = (_tour([0, 1, 2]), Tour((0, 1), 6.0))
    obj = evaluate_objectives(tours, 0.5)
    assert obj.per_robot == (12.0, 6.0)
    assert obj.total == 18.0
    assert obj.max_single == 12.0
    assert obj.j_value == 0.5 * 18.0 + 0.5 * 12.0
    assert obj.lambda_weight == 0.5
    assert len(dataclasses.fields(obj)) == 5


def test_objectives_recompute_from_solver_free_tours():
    rng = np.random.default_rng(23)
    inst = random_planar_instance(9, seed=31)
    d = build_distance_matrix(inst)
    order = list(range(9))
    rng.shuffle(order)
    halves = [order[:5], order[5:]]
    tours = tuple(Tour(tuple(h), tour_length(h, d)) for h in halves)
    obj = evaluate_objectives(tours, 0.7)
    assert obj.total == pytest.approx(sum(t.length for t in tours), rel=1e-15)
    assert pairwise_overlap_total(tours) == 0
