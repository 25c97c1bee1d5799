"""Transition rule, deposits, pheromone updates, and colony construction.

The scalar transition rule and deposit live in ``tests/oracles.py``; the
tests here pin them to hand-computed values and the colony to them.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    StructuralBias,
    construct_tour,
    deposit_amount,
    exhaustive_tsp,
    reference_construct_colony,
    reference_seed_deposit,
    reference_update_pheromones,
    roulette_index,
    transition_probabilities,
)
from sinepath.aco import TRAIL_FLOOR, AcoParams, SubsetColony, update_pheromones
from sinepath.backbone import kruskal_mst, restrict_edges
from sinepath.instances import Instance, build_distance_matrix, random_planar_instance
from sinepath.objective import Tour, tour_length

TRI_D = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
NO_BIAS = StructuralBias(1.0, frozenset())


def _keys(mst):
    """The (u, v) keys of every edge of ``mst``."""
    return restrict_edges(mst, mst.nodes)


def _uniform_trail(n, level=1.0):
    """An (n, n) trail of ``level`` with a zero diagonal; a colony starts
    its trail at level 1."""
    tau = np.full((n, n), level)
    np.fill_diagonal(tau, 0.0)
    return tau


class ScriptedRng:
    """Hands out a fixed uniform sequence and counts consumption."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def random(self):
        self.used += 1
        return self.values.pop(0)


def test_params_validation():
    AcoParams()  # defaults are legal
    with pytest.raises(ValueError, match="positive"):
        AcoParams(alpha=0.0)
    with pytest.raises(ValueError, match="rho"):
        AcoParams(rho=0.0)
    with pytest.raises(ValueError, match="rho"):
        AcoParams(rho=1.1)
    with pytest.raises(ValueError, match="q_scale"):
        AcoParams(q_scale=0.0)
    with pytest.raises(ValueError, match="kappa"):
        AcoParams(kappa=-0.5)
    with pytest.raises(ValueError, match="at least 1"):
        AcoParams(n_ants=0)
    with pytest.raises(ValueError, match="at least 1"):
        AcoParams(max_iter=0)
    for name in ("alpha", "beta", "rho", "q_scale", "kappa"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                AcoParams(**{name: bad})


@pytest.mark.parametrize("name", ["n_ants", "max_iter"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "4", None, np.int64(4)])
def test_params_counts_must_be_integers(name, bad):
    # max_iter=True used to run one iteration, n_ants=2.5 escaped from numpy
    # as a TypeError
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        AcoParams(**{name: bad})


def test_structural_bias():
    bias = StructuralBias(2.0, frozenset({(0, 1)}))
    assert bias.psi(0, 1) == 2.0
    assert bias.psi(1, 0) == 2.0
    assert bias.psi(0, 2) == 1.0
    with pytest.raises(ValueError, match="omega"):
        StructuralBias(0.5, frozenset())
    with pytest.raises(ValueError, match="canonical"):
        StructuralBias(2.0, frozenset({(3, 1)}))


def test_tour_edge_set():
    assert Tour((0, 1, 2), 12.0).edge_set() == {(0, 1), (1, 2), (0, 2)}
    assert Tour((0, 1), 6.0).edge_set() == {(0, 1)}
    assert Tour((4,), 0.0).edge_set() == frozenset()


def test_init_pheromone():
    # each colony starts its own subset's trail at 1 with a zero diagonal
    d = build_distance_matrix(random_planar_instance(6, seed=899))
    colony = SubsetColony(d[np.ix_([1, 3, 4], [1, 3, 4])], frozenset(), 1.0, AcoParams())
    assert np.array_equal(colony.tau, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_transition_probabilities_frozen_cases():
    params = AcoParams()
    tau = _uniform_trail(3)

    # equal tau, equal d, no backbone -> uniform
    d_eq = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    p = transition_probabilities(0, [1, 2], tau, d_eq, NO_BIAS, params)
    assert p == pytest.approx([0.5, 0.5], abs=1e-12)

    # equal tau and d, candidate 1 on the backbone, omega=2 -> (2/3, 1/3)
    bias2 = StructuralBias(2.0, frozenset({(0, 1)}))
    p = transition_probabilities(0, [1, 2], tau, d_eq, bias2, params)
    assert p == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)

    # d=(1,2), beta=2 -> (0.8, 0.2)
    d12 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    p = transition_probabilities(0, [1, 2], tau, d12, NO_BIAS, params)
    assert p == pytest.approx([0.8, 0.2], abs=1e-12)

    # 3-4-5 triangle from node 0: (1/9, 1/16) -> (16/25, 9/25)
    p = transition_probabilities(0, [1, 2], tau, TRI_D, NO_BIAS, params)
    assert p == pytest.approx([16.0 / 25.0, 9.0 / 25.0], abs=1e-12)
    # backbone boost on (0,1) with omega=2: (2/9, 1/16) -> (32/41, 9/41)
    p = transition_probabilities(0, [1, 2], tau, TRI_D, bias2, params)
    assert p == pytest.approx([32.0 / 41.0, 9.0 / 41.0], abs=1e-12)


def test_transition_probabilities_normalized_random():
    rng = np.random.default_rng(61)
    inst = random_planar_instance(12, seed=900)
    d = build_distance_matrix(inst)
    mst = kruskal_mst(d)
    bias = StructuralBias(2.5**1.1, _keys(mst))
    tau = _uniform_trail(12) * rng.uniform(0.5, 2.0, size=(12, 12))
    tau = (tau + tau.T) / 2
    np.fill_diagonal(tau, 0.0)
    params = AcoParams(alpha=1.3, beta=2.7)
    for _ in range(30):
        i = int(rng.integers(0, 12))
        cands = [j for j in range(12) if j != i]
        p = transition_probabilities(i, cands, tau, d, bias, params)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all((p >= 0) & (p <= 1))


def test_backbone_candidate_strictly_preferred():
    params = AcoParams()
    tau = _uniform_trail(3)
    d_eq = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    for omega in (1.5, 2.0, 5.0):
        bias = StructuralBias(omega**1.5, frozenset({(0, 1)}))
        p = transition_probabilities(0, [1, 2], tau, d_eq, bias, params)
        assert p[0] > p[1]


def test_transition_probability_errors():
    params = AcoParams()
    tau = _uniform_trail(3)
    with pytest.raises(ValueError, match="no candidates"):
        transition_probabilities(0, [], tau, TRI_D, NO_BIAS, params)
    with pytest.raises(ValueError, match="own successor"):
        transition_probabilities(0, [0, 1], tau, TRI_D, NO_BIAS, params)
    degenerate = TRI_D.copy()
    degenerate[0, 1] = degenerate[1, 0] = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        transition_probabilities(0, [1, 2], tau, degenerate, NO_BIAS, params)


def test_roulette_index_boundaries():
    cum = np.array([0.64, 1.0])
    assert roulette_index(cum, 0.0) == 0
    assert roulette_index(cum, 0.5) == 0
    assert roulette_index(cum, 0.64) == 1
    assert roulette_index(cum, 0.99) == 1
    assert roulette_index(cum, 1.0) == 1  # clamp keeps it in range
    with pytest.raises(ValueError, match="zero total"):
        roulette_index(np.array([0.0, 0.0]), 0.5)


def test_construct_tour_draw_budget_and_validity():
    rng = np.random.default_rng(62)
    inst = random_planar_instance(9, seed=901)
    d = build_distance_matrix(inst)
    tau = _uniform_trail(9)
    params = AcoParams()
    for _ in range(10):
        subset = sorted(rng.choice(9, size=6, replace=False).tolist())
        start = int(rng.choice(subset))
        scripted = ScriptedRng(rng.random(16).tolist())
        tour = construct_tour(subset, start, tau, d, NO_BIAS, params, scripted)
        assert scripted.used == len(subset) - 1
        assert tour.order[0] == start
        assert sorted(tour.order) == subset
        assert tour.length == pytest.approx(tour_length(tour.order, d), rel=1e-9)


def test_construct_tour_forced_cases():
    d = build_distance_matrix(random_planar_instance(5, seed=902))
    tau = _uniform_trail(5)
    params = AcoParams()
    one = construct_tour([3], 3, tau, d, NO_BIAS, params, ScriptedRng([]))
    assert one.order == (3,) and one.length == 0.0
    two = construct_tour([1, 4], 4, tau, d, NO_BIAS, params, ScriptedRng([0.9]))
    assert two.order == (4, 1)
    assert two.length == pytest.approx(2 * d[1, 4], rel=1e-12)
    with pytest.raises(ValueError, match="start"):
        construct_tour([1, 4], 2, tau, d, NO_BIAS, params, ScriptedRng([0.5]))


def test_deposit_amount_values():
    params = AcoParams(q_scale=1.0, kappa=2.0)
    tour = Tour((0, 1, 2), 10.0)
    backbone = frozenset({(0, 1)})
    assert deposit_amount((0, 2), tour, frozenset(), params) == pytest.approx(0.1)
    assert deposit_amount((0, 1), tour, backbone, params) == pytest.approx(0.3)
    assert deposit_amount((1, 0), tour, backbone, params) == pytest.approx(0.3)
    # not on the tour -> nothing, backbone or not
    far = Tour((0, 1), 6.0)
    assert deposit_amount((0, 2), far, backbone, params) == 0.0
    # kappa=0 degenerates to Q/L everywhere on the tour
    plain = AcoParams(kappa=0.0)
    assert deposit_amount((0, 1), tour, backbone, plain) == pytest.approx(0.1)


def _to_local(sub, tour):
    """``tour``, given in node ids, in the local ids of the ascending ``sub``."""
    return Tour(tuple(sub.index(v) for v in tour.order), tour.length)


def _colonies_on(tau, subsets, backbones, params):
    """One colony per ascending subset of a random instance, each holding its
    block of the global trail ``tau`` and its backbone (given in node ids) in
    local ids: the oracles then run on ``tau`` itself, in node ids."""
    d = build_distance_matrix(random_planar_instance(len(tau), seed=913))
    colonies = []
    for sub, bk in zip(subsets, backbones):
        local_bk = {(sub.index(u), sub.index(v)) for u, v in bk}
        colony = SubsetColony(d[np.ix_(sub, sub)], local_bk, 1.0, params)
        colony.tau = tau[np.ix_(sub, sub)]
        colonies.append(colony)
    return colonies


def test_update_pheromones_pure_evaporation():
    # a single-node tour deposits nothing, so only evaporation is left
    params = AcoParams(rho=0.1)
    colony = SubsetColony(TRI_D, frozenset(), 1.0, params)
    update_pheromones([colony], [Tour((1,), 0.0)])
    assert np.allclose(colony.tau, _uniform_trail(3, 0.9), atol=1e-15)


def test_update_pheromones_deposits_only_at_rho_one():
    params = AcoParams(rho=1.0, q_scale=1.0, kappa=1.0)
    colony = SubsetColony(TRI_D, frozenset({(0, 1)}), 1.0, params)
    update_pheromones([colony], [Tour((0, 1, 2), 12.0)])
    base = 1.0 / 12.0
    expected = np.array(
        [[0.0, 2 * base, base], [2 * base, 0.0, base], [base, base, 0.0]]
    )
    assert np.allclose(colony.tau, expected, atol=1e-15)


def test_update_pheromones_disjoint_tours_single_deposit_each():
    params = AcoParams(rho=1.0, kappa=0.0)
    first, second = _colonies_on(
        _uniform_trail(5), [(0, 1, 2), (3, 4)], [frozenset(), frozenset()], params
    )
    update_pheromones([first, second], [Tour((0, 1, 2), 12.0), Tour((0, 1), 8.0)])
    assert np.array_equal(first.tau, _uniform_trail(3, 1.0 / 12.0))
    assert np.array_equal(second.tau, _uniform_trail(2, 1.0 / 8.0))


def test_update_pheromones_bit_identical_to_edge_loop():
    # overlapping tours (edge (0, 1) twice, deposited on one colony), a 2-node
    # tour, a 1-node tour and backbone bonuses on a random trail: each
    # colony's block must hold the same floats, added in the same order, as
    # one deposit_amount per edge on the global matrix
    rng = np.random.default_rng(914)
    tau = _uniform_trail(12) * rng.uniform(0.2, 2.0, size=(12, 12))
    subsets = [(0, 1, 2, 3, 7, 8), (5, 6), (9,), (4, 10, 11)]
    backbones = [
        frozenset({(0, 1), (2, 3), (7, 8)}),
        frozenset({(5, 6)}),
        frozenset(),
        frozenset({(4, 10)}),
    ]
    tours = [Tour((0, 1, 2, 3), 7.3), Tour((5, 6), 2.9), Tour((9,), 0.0), Tour((10, 4, 11), 5.7)]
    overlap = Tour((1, 0, 7, 8), 11.1)
    for params in (AcoParams(rho=0.3, q_scale=1.7, kappa=1.5), AcoParams(kappa=0.0)):
        colonies = _colonies_on(tau, subsets, backbones, params)
        update_pheromones(colonies, list(map(_to_local, subsets, tours)))
        colonies[0].deposit(_to_local(subsets[0], overlap))
        ref = reference_update_pheromones(
            tau.copy(), tours + [overlap], backbones + [backbones[0]], params
        )
        for sub, colony in zip(subsets, colonies):
            assert np.array_equal(colony.tau, ref[np.ix_(sub, sub)])
        # the 2-node tour deposits exactly once in each direction
        amount = params.q_scale / 2.9 * (1.0 + params.kappa)
        pair = colonies[1].tau
        assert pair[0, 1] == tau[5, 6] * (1.0 - params.rho) + amount
        assert pair[1, 0] == tau[6, 5] * (1.0 - params.rho) + amount


@pytest.mark.parametrize("kappa", [0.0, 1.5])
def test_seed_deposit_bit_identical_to_scalar_loop(kappa):
    # the solver's seed bonus deposits each seed with a flat bonus: the
    # q/L * (1 + kappa) of the former scalar loop, bit for bit
    rng = np.random.default_rng(915)
    tau = _uniform_trail(10) * rng.uniform(0.2, 2.0, size=(10, 10))
    seeds = [Tour((0, 3, 1, 2), 7.3), Tour((4, 5), 2.9), Tour((6,), 0.0), Tour((9, 7, 8), 5.7)]
    params = AcoParams(rho=0.3, q_scale=1.7, kappa=kappa)
    subsets = [sorted(s.order) for s in seeds]
    colonies = _colonies_on(tau, subsets, [frozenset()] * len(seeds), params)
    for sub, colony, seed in zip(subsets, colonies, seeds):
        colony.deposit(_to_local(sub, seed), flat_bonus=True)
    ref = reference_seed_deposit(tau.copy(), seeds, params)
    for sub, colony in zip(subsets, colonies):
        assert np.array_equal(colony.tau, ref[np.ix_(sub, sub)])
    assert not np.array_equal(colonies[0].tau, tau[:4, :4])


def test_aco_params_to_dict():
    assert AcoParams().to_dict() == {
        "alpha": 1.0,
        "beta": 2.0,
        "rho": 0.1,
        "q_scale": 1.0,
        "kappa": 1.0,
        "n_ants": 50,
        "max_iter": 1000,
    }


def test_update_pheromones_validation():
    # one tour per colony: a missing or extra tour is refused, not dropped
    colony = SubsetColony(TRI_D, frozenset(), 1.0, AcoParams())
    with pytest.raises(ValueError, match="shorter"):
        update_pheromones([colony], [])
    with pytest.raises(ValueError, match="longer"):
        update_pheromones([colony], [Tour((0, 1), 6.0), Tour((2,), 0.0)])


def test_pheromone_bounds_over_long_run():
    # 1000 iterations of construct + update on one subset; tau must stay
    # nonnegative, symmetric, and under max(1, max_deposit / rho), 1 being
    # the initial trail.
    inst = random_planar_instance(10, seed=903)
    d = build_distance_matrix(inst)
    mst = kruskal_mst(d)
    params = AcoParams(n_ants=8, rho=0.1, q_scale=1.0, kappa=1.0)
    colony = SubsetColony(d, _keys(mst), 2.0, params)
    rng = np.random.default_rng(904)
    min_length = np.inf
    off_diag = ~np.eye(10, dtype=bool)
    for t in range(1000):
        uniforms = rng.random((params.n_ants, 10))
        orders, lengths = colony.construct_colony(colony.local_tau(), uniforms)
        best = int(lengths.argmin())
        tour = Tour(tuple(orders[best].tolist()), float(lengths[best]))
        min_length = min(min_length, tour.length)
        update_pheromones([colony], [tour])
        if t % 100 == 0:
            assert np.array_equal(colony.tau, colony.tau.T)
            assert np.all(colony.tau >= 0)
    tau = colony.tau
    bound = max(1.0, params.q_scale * (1 + params.kappa) / min_length / params.rho)
    assert tau.max() <= bound + 1e-9
    assert np.all(tau[off_diag] > 0)
    assert np.array_equal(np.diag(tau), np.zeros(10))


def _colony_setup(n, seed, omega=1.0, params=None):
    inst = random_planar_instance(n, seed=seed)
    d = build_distance_matrix(inst)
    mst = kruskal_mst(d)
    params = params or AcoParams()
    colony = SubsetColony(d, _keys(mst), omega, params)
    return d, mst, params, colony


def test_colony_zero_distance_rejected():
    d = build_distance_matrix(random_planar_instance(4, seed=905))
    d[1, 2] = d[2, 1] = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        SubsetColony(d, frozenset(), 1.0, AcoParams())


def test_colony_weight_matrix():
    d, mst, params, colony = _colony_setup(8, 906, omega=3.0)
    safe = d + np.eye(8)
    eta = 1.0 / safe
    np.fill_diagonal(eta, 0.0)
    expected = eta**params.beta
    for u, v in _keys(mst):
        expected[u, v] *= 3.0
        expected[v, u] *= 3.0
    assert np.array_equal(colony.weight, expected)
    # omega=1 leaves the matrix untouched, bit for bit
    _, _, _, neutral = _colony_setup(8, 906, omega=1.0)
    plain = eta**params.beta
    assert np.array_equal(neutral.weight, plain)


def test_colony_matches_scalar_construction():
    n = 9
    d, mst, params, colony = _colony_setup(n, 907, omega=2.0)
    bias = StructuralBias(2.0, _keys(mst))
    tau = _uniform_trail(n)
    rng = np.random.default_rng(908)
    tau *= rng.uniform(0.5, 1.5, size=(n, n))
    tau = (tau + tau.T) / 2
    np.fill_diagonal(tau, 0.0)
    colony.tau = tau

    uniforms = rng.random((6, n))
    start = 4
    orders, lengths = colony.construct_colony(colony.local_tau(), uniforms, start_local=start)
    for ant in range(6):
        scripted = ScriptedRng(uniforms[ant, 1:].tolist())
        ref = construct_tour(range(n), start, tau, d, bias, params, scripted)
        assert tuple(orders[ant].tolist()) == ref.order
        assert lengths[ant] == pytest.approx(ref.length, rel=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3, 13, 64, 250])
@pytest.mark.parametrize("alpha", [1.0, 1.3])
@pytest.mark.parametrize("omega", [1.0, 2.0])
@pytest.mark.parametrize("start", [None, "fixed"])
def test_colony_bit_identical_to_reference(width, alpha, omega, start):
    n = max(70, width)
    d = build_distance_matrix(random_planar_instance(n, seed=915))
    rng = np.random.default_rng(916 + width)
    nodes = np.sort(rng.choice(n, size=width, replace=False))
    block = d[np.ix_(nodes, nodes)]
    params = AcoParams(alpha=alpha, beta=2.5)
    # omega**1.2: a backbone boost that is no round number
    colony = SubsetColony(block, _keys(kruskal_mst(block)), omega**1.2, params)
    tau = _uniform_trail(n) * rng.uniform(0.05, 3.0, size=(n, n))
    colony.tau = tau[np.ix_(nodes, nodes)]
    tau_local = colony.local_tau()
    assert np.array_equal(tau_local, colony.tau ** alpha)
    uniforms = rng.random((17, width))
    start_local = None if start is None else width // 2
    orders, lengths = colony.construct_colony(tau_local, uniforms, start_local)
    ref_orders, ref_lengths = reference_construct_colony(
        colony.weight, colony.dist, tau_local, uniforms, start_local
    )
    assert np.array_equal(orders, ref_orders)
    assert np.array_equal(lengths, ref_lengths)


def test_colony_reused_buffers_match_fresh_colonies():
    # one colony keeps its step buffers between calls: a changed ant count
    # and a refused call in between leave every call bit-identical to a
    # fresh colony's, and the arrays a call returns are the caller's own
    n = 13
    d = build_distance_matrix(random_planar_instance(n, seed=930))
    backbone = _keys(kruskal_mst(d))

    def fresh():
        return SubsetColony(d, backbone, 2.0, AcoParams())

    rng = np.random.default_rng(931)
    colony = fresh()
    tau = colony.local_tau() * rng.uniform(0.5, 1.5, size=(n, n))
    calls = []
    for na, start in ((50, None), (7, 4), (50, None), ("refused", None), (50, 0)):
        if na == "refused":
            with pytest.raises(ValueError, match="vanished"):
                colony.construct_colony(np.zeros((n, n)), rng.random((50, n)))
            continue
        uniforms = rng.random((na, n))
        orders, lengths = colony.construct_colony(tau, uniforms, start)
        ref_orders, ref_lengths = fresh().construct_colony(tau, uniforms, start)
        assert np.array_equal(orders, ref_orders)
        assert np.array_equal(lengths, ref_lengths)
        calls.append((orders, lengths, ref_orders, ref_lengths, uniforms, start))
    # later calls left the earlier results alone
    for orders, lengths, ref_orders, ref_lengths, _, _ in calls:
        assert np.array_equal(orders, ref_orders)
        assert np.array_equal(lengths, ref_lengths)
    # and writing into a result does not reach the next call
    orders, lengths, ref_orders, ref_lengths, uniforms, start = calls[-1]
    orders[:] = 0
    lengths[:] = -1.0
    again, again_lengths = colony.construct_colony(tau, uniforms, start)
    assert np.array_equal(again, ref_orders)
    assert np.array_equal(again_lengths, ref_lengths)


def test_colony_refuses_backbone_edge_outside_subset():
    # backbone edges are local ids of the block, so each end lies in [0, 3)
    d = build_distance_matrix(random_planar_instance(6, seed=932))
    for edge in ((2, 3), (-1, 2), (0, 7)):
        with pytest.raises(ValueError, match=re.escape("backbone edge with an end outside [0, 3)")):
            SubsetColony(d[:3, :3], frozenset({(0, 1), edge}), 2.0, AcoParams())


def test_colony_refuses_a_distance_block_of_another_shape():
    # the colony takes its subset's square block
    d = build_distance_matrix(random_planar_instance(6, seed=933))
    for dist in (d[:3, :2], d[0], np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match=r"distance block of shape .* is not square"):
            SubsetColony(dist, frozenset(), 2.0, AcoParams())


@pytest.mark.parametrize("order", [(0, 1, 3), (-1, 0, 2), (2, 1, 7), (1, 0, -3), (3,)])
def test_deposit_refuses_a_node_outside_the_subset(order):
    # a tour holds local ids 0..2 of a 3-node colony; any other id would put
    # its deposit on another row's cells, or past the trail
    d = build_distance_matrix(random_planar_instance(10, seed=934))
    nodes = [1, 3, 5]
    colony = SubsetColony(d[np.ix_(nodes, nodes)], frozenset(), 2.0, AcoParams())
    before = colony.tau.copy()
    foreign = next(v for v in order if not 0 <= v < 3)
    message = re.escape(f"tour node {foreign} outside [0, 3)")
    with pytest.raises(ValueError, match=message):
        colony.deposit(Tour(order, 10.0))
    assert np.array_equal(colony.tau, before)
    with pytest.raises(ValueError, match=message):
        update_pheromones([colony], [Tour(order, 10.0)])
    assert np.array_equal(colony.tau, before)


def test_update_pheromones_refusal_leaves_every_trail_unchanged():
    # the first colony used to evaporate and take its deposit before the
    # second colony's tour was found to hold an id outside its block
    d = build_distance_matrix(random_planar_instance(7, seed=935))
    first = SubsetColony(d[:4, :4], frozenset({(0, 1)}), 2.0, AcoParams())
    second = SubsetColony(d[4:, 4:], frozenset(), 2.0, AcoParams())
    before = [first.tau.copy(), second.tau.copy()]
    tours = [Tour((0, 2, 1, 3), 9.0), Tour((0, 3, 1), 4.0)]
    with pytest.raises(ValueError, match=re.escape("tour node 3 outside [0, 3)")):
        update_pheromones([first, second], tours)
    assert np.array_equal(first.tau, before[0])
    assert np.array_equal(second.tau, before[1])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_local_tau_floors_the_trail_factor(alpha):
    params = AcoParams(alpha=alpha)
    _, _, _, colony = _colony_setup(6, 917, params=params)
    off_diag = ~np.eye(6, dtype=bool)
    # an underflowed trail reads as the floor, for every alpha
    colony.tau = np.zeros((6, 6))
    sub = colony.local_tau()
    assert np.array_equal(sub[off_diag], np.full(30, TRAIL_FLOOR))
    assert np.array_equal(np.diag(sub), np.zeros(6))
    uniforms = np.random.default_rng(918).random((4, 6))
    orders, _ = colony.construct_colony(sub, uniforms)
    assert all(sorted(row) == list(range(6)) for row in orders.tolist())
    # a trail above the floor comes back as tau^alpha, bit for bit
    colony.tau = _uniform_trail(6) * np.random.default_rng(919).uniform(1e-40, 2.0, (6, 6))
    assert np.array_equal(colony.local_tau(), colony.tau ** alpha)


def test_colony_vanished_scores_rejected():
    _, _, _, colony = _colony_setup(6, 917)
    uniforms = np.random.default_rng(918).random((4, 6))
    for trail in (np.zeros((6, 6)), np.full((6, 6), np.nan)):
        with pytest.raises(ValueError, match="vanished"):
            colony.construct_colony(trail, uniforms)


def test_colony_later_vanish_rejected_like_reference():
    # node 4 has no outgoing trail, so a row total vanishes only once an ant
    # stands on node 4 with nodes still to visit, never at the first step
    _, _, _, colony = _colony_setup(6, 921)
    trail = _uniform_trail(6)
    trail[4] = 0.0
    uniforms = np.random.default_rng(922).random((8, 6))
    assert (trail[0] * colony.weight[0]).sum() > 0
    with pytest.raises(ValueError, match="vanished"):
        colony.construct_colony(trail, uniforms, 0)
    with pytest.raises(ValueError, match="vanished"):
        reference_construct_colony(colony.weight, colony.dist, trail, uniforms, 0)


def _cycle_trail(n, rng):
    """Trail left after every edge off one Hamiltonian cycle has underflowed
    to exactly 0: an ant can always walk on along the cycle, so no total
    vanishes, but most of each prefix-sum row is flat."""
    cycle = rng.permutation(n)
    trail = np.zeros((n, n))
    trail[cycle, np.roll(cycle, 1)] = rng.uniform(0.5, 1.5, size=n)
    trail[np.roll(cycle, 1), cycle] = rng.uniform(0.5, 1.5, size=n)
    return trail


@pytest.mark.parametrize("case", ["zero-entries", "overflowing-totals"])
def test_colony_bit_identical_to_reference_on_edge_trails(case):
    rng = np.random.default_rng(923)
    if case == "zero-entries":
        _, _, _, colony = _colony_setup(13, 924)
        trail = _cycle_trail(13, rng)
    else:
        # distances near 1e-2 make every weight > 1, so scores near
        # max/4 stay finite while the row sums overflow to inf
        inst = random_planar_instance(13, seed=925)
        d = build_distance_matrix(Instance(inst.name, inst.coords * 1e-3, inst.metric))
        colony = SubsetColony(d, frozenset(), 1.0, AcoParams())
        huge = np.finfo(float).max / 4 * rng.uniform(0.5, 1.0, size=(13, 13))
        trail = huge / (colony.weight + np.eye(13))
        np.fill_diagonal(trail, 0.0)
    uniforms = rng.random((40, 13))
    with np.errstate(over="ignore"):
        scores = trail * colony.weight
        assert np.isfinite(scores).all()
        if case == "overflowing-totals":
            assert np.isinf(scores.sum(axis=1)).all()
        for start in (None, 5):
            orders, lengths = colony.construct_colony(trail, uniforms, start)
            ref_orders, ref_lengths = reference_construct_colony(
                colony.weight, colony.dist, trail, uniforms, start
            )
            assert np.array_equal(orders, ref_orders)
            assert np.array_equal(lengths, ref_lengths)


def test_colony_floor_total_keeps_its_clamp():
    # Unit distances, omega = 1 and a floored trail make every successor
    # score exactly TRAIL_FLOOR, so each ant's last step has one successor
    # and a row total of exactly TRAIL_FLOOR.  (1 - 2^-53) * tiny rounds to
    # tiny, so only the clamp keeps that draw below the total; zero draws
    # before it walk the ants in index order, leaving a last node other
    # than column 0, which an unclamped pick would revisit.
    n = 5
    d = np.ones((n, n)) - np.eye(n)
    colony = SubsetColony(d, frozenset(), 1.0, AcoParams())
    colony.tau = np.zeros((n, n))
    tau_local = colony.local_tau()
    off_diag = ~np.eye(n, dtype=bool)
    assert np.array_equal((tau_local * colony.weight)[off_diag], np.full(n * n - n, TRAIL_FLOOR))
    last = 1.0 - 2.0**-53
    assert last * TRAIL_FLOOR == TRAIL_FLOOR
    uniforms = np.zeros((6, n))
    uniforms[:, -1] = last
    for start in (None, 2):
        orders, lengths = colony.construct_colony(tau_local, uniforms, start)
        ref_orders, ref_lengths = reference_construct_colony(
            colony.weight, colony.dist, tau_local, uniforms, start
        )
        assert np.array_equal(orders, ref_orders)
        assert np.array_equal(lengths, ref_lengths)
        assert all(sorted(row) == list(range(n)) for row in orders.tolist())


def _colony_outcome(construct, *args):
    """Orders and length bytes of one colony call, or its refusal message."""
    try:
        orders, lengths = construct(*args)
    except ValueError as exc:
        return str(exc)
    return orders.tobytes(), lengths.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 40),
    n_ants=st.integers(1, 20),
    exponent=st.floats(-320.0, 308.0),
    zeros=st.sampled_from([0.0, 0.3, 0.9]),
    floored=st.booleans(),
    alpha=st.floats(0.5, 2.0),
    beta=st.floats(0.5, 6.0),
    omega=st.sampled_from([1.0, 2.0, 6.0]),
    start=st.one_of(st.none(), st.integers(0, 39)),
    top=st.sampled_from([None, 1.0 - 2.0**-53, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# the proven branch: every score well inside the normal range
@example(width=13, n_ants=20, exponent=0.0, zeros=0.0, floored=True, alpha=1.0,
         beta=2.0, omega=2.0, start=None, top=None, seed=1)
@example(width=40, n_ants=20, exponent=300.0, zeros=0.0, floored=False, alpha=1.0,
         beta=1.0, omega=6.0, start=7, top=1.0 - 2.0**-53, seed=2)
# the clamped branch: subnormal scores under the largest draw below 1, a
# floored trail times weights below 1, a draw of exactly 1, exact zeros
@example(width=13, n_ants=20, exponent=-320.0, zeros=0.0, floored=False, alpha=1.0,
         beta=2.0, omega=1.0, start=None, top=1.0 - 2.0**-53, seed=3)
@example(width=13, n_ants=20, exponent=-320.0, zeros=0.3, floored=True, alpha=1.0,
         beta=2.0, omega=1.0, start=4, top=1.0 - 2.0**-53, seed=4)
@example(width=13, n_ants=20, exponent=0.0, zeros=0.0, floored=True, alpha=1.0,
         beta=2.0, omega=2.0, start=None, top=1.0, seed=5)
@example(width=13, n_ants=20, exponent=0.0, zeros=0.9, floored=False, alpha=1.0,
         beta=2.0, omega=1.0, start=2, top=None, seed=6)
def test_colony_matches_reference_across_trail_scales(
    width, n_ants, exponent, zeros, floored, alpha, beta, omega, start, top, seed
):
    # Trails from 1e-320 (subnormal) to 1e308, with exact zeros, read raw or
    # floored through local_tau: the colony must pick what the reference
    # picks, bit for bit, or refuse with the same message.
    rng = np.random.default_rng(seed)
    d = build_distance_matrix(random_planar_instance(max(width, 2), seed=seed))
    params = AcoParams(alpha=alpha, beta=beta)
    backbone = _keys(kruskal_mst(d[:width, :width]))
    colony = SubsetColony(d[:width, :width], backbone, omega, params)
    trail = 10.0**exponent * rng.uniform(0.5, 1.5, size=d.shape)
    trail[rng.random(d.shape) < zeros] = 0.0
    colony.tau = trail[:width, :width]
    uniforms = rng.random((n_ants, width))
    if top is not None:
        uniforms[rng.random(uniforms.shape) < 0.3] = top
    start_local = None if start is None else start % width
    with np.errstate(over="ignore", under="ignore"):
        tau_local = colony.local_tau() if floored else colony.tau
        if np.isinf(tau_local * colony.weight).any():
            with pytest.raises(ValueError, match="non-finite successor scores"):
                colony.construct_colony(tau_local, uniforms, start_local)
            return
        got = _colony_outcome(colony.construct_colony, tau_local, uniforms, start_local)
        want = _colony_outcome(
            reference_construct_colony, colony.weight, colony.dist, tau_local, uniforms, start_local
        )
    assert got == want


def test_colony_negative_trail_rejected():
    # a few negative entries used to pass unnoticed and yield tours that
    # revisit nodes, since the prefix sum then falls along a row
    _, _, _, colony = _colony_setup(13, 919)
    rng = np.random.default_rng(920)
    for _ in range(20):
        trail = rng.uniform(0.5, 1.5, size=(13, 13))
        trail.flat[rng.choice(169, size=3, replace=False)] = -0.05
        with pytest.raises(ValueError, match="negative trail"):
            colony.construct_colony(trail, rng.random((4, 13)))


def test_colony_overflowing_scores_rejected():
    # (1/d)^200 with distances near 1e-2 overflows to inf; a 0/1 mask would
    # turn inf into NaN, so construction must refuse instead of sampling
    inst = random_planar_instance(12, seed=3)
    small = Instance(inst.name, inst.coords * 1e-3, inst.metric)
    d = build_distance_matrix(small)
    with np.errstate(over="ignore"):
        colony = SubsetColony(d, frozenset(), 1.0, AcoParams(beta=200.0))
    assert np.isinf(colony.weight).any()
    with pytest.raises(ValueError, match="non-finite successor scores"):
        colony.construct_colony(colony.local_tau(), np.full((3, 12), 0.5))


def test_colony_free_start_uses_first_draw():
    n = 7
    _, _, params, colony = _colony_setup(n, 909)
    uniforms = np.random.default_rng(910).random((5, n))
    orders, _ = colony.construct_colony(colony.local_tau(), uniforms)
    expected_starts = np.minimum((uniforms[:, 0] * n).astype(int), n - 1)
    assert np.array_equal(orders[:, 0], expected_starts)
    for row in orders:
        assert sorted(row.tolist()) == list(range(n))


@pytest.mark.parametrize("start", [13, 14, -1, -13])
def test_colony_start_out_of_range_rejected(start):
    # 13 used to raise a bare IndexError, and -1 read row 0 but marked
    # another ant's column, so every tour revisited nodes
    _, _, _, colony = _colony_setup(13, 923)
    tau = colony.local_tau()
    uniforms = np.random.default_rng(924).random((4, 13))
    with pytest.raises(ValueError, match=rf"start_local {start} outside \[0, 13\)"):
        colony.construct_colony(tau, uniforms, start)


@pytest.mark.parametrize("draw", [-0.5, -1e-300, 1.0 + 2.0**-52, 1.5, np.nan, np.inf])
@pytest.mark.parametrize("cell", [(0, 0), (2, 7)])
def test_colony_draw_outside_unit_interval_rejected(draw, cell):
    # a first draw of -0.5 used to be refused as "all successor scores
    # vanished"; a later one, or one above 1, picked some node silently
    _, _, _, colony = _colony_setup(13, 925)
    tau = colony.local_tau()
    uniforms = np.random.default_rng(926).random((4, 13))
    uniforms[cell] = draw
    with pytest.raises(ValueError, match=r"uniform draws must lie in \[0, 1\]"):
        colony.construct_colony(tau, uniforms)


def test_colony_draws_of_zero_and_one_accepted():
    # both ends of [0, 1] are legal draws
    _, _, _, colony = _colony_setup(13, 927)
    tau = colony.local_tau()
    uniforms = np.random.default_rng(928).random((4, 13))
    uniforms[0] = 0.0
    uniforms[1] = 1.0
    got = _colony_outcome(colony.construct_colony, tau, uniforms)
    want = _colony_outcome(reference_construct_colony, colony.weight, colony.dist, tau, uniforms)
    assert got == want


def test_colony_uniform_shape_checked():
    _, _, _, colony = _colony_setup(6, 911)
    with pytest.raises(ValueError, match="width"):
        colony.construct_colony(colony.local_tau(), np.zeros((3, 5)))


def test_colony_mean_near_optimum_with_strong_guidance():
    # high visibility exponent plus a strong backbone bias: 400 constructions
    # on 8 nodes should average within 10% of the exhaustive optimum
    n = 8
    params = AcoParams(beta=8.0, n_ants=400)
    d, mst, _, colony = _colony_setup(n, 25, omega=6.0, params=params)
    best_len, _ = exhaustive_tsp(d, list(range(n)))
    uniforms = np.random.default_rng(913).random((400, n))
    _, lengths = colony.construct_colony(colony.local_tau(), uniforms)
    assert lengths.mean() <= 1.10 * best_len
    assert lengths.min() >= best_len - 1e-9
