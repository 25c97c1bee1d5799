"""Transition rule, deposits, pheromone updates, and colony construction.

The scalar transition rule and deposit live in ``tests/oracles.py``; the
tests here pin them to hand-computed values and the colony to them.
"""

import json
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
from sinepath import aco
from sinepath.aco import (
    TRAIL_FLOOR,
    AcoParams,
    SubsetColony,
    update_pheromones,
)
from sinepath.backbone import kruskal_mst, restrict_edges
from sinepath.instances import (
    Instance,
    build_distance_matrix,
    distance_block,
    load_instance,
    random_planar_instance,
)
from sinepath.objective import Tour, tour_length
from sinepath.partition import partition_angle

# construct_colony's refusals of its scores, by the bound each names
NON_FINITE = "non-finite successor scores"
TOO_LARGE = "successor scores too large"

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


_REALS = ("alpha", "beta", "rho", "q_scale", "kappa")


@pytest.mark.parametrize("name", _REALS)
@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1", None, 1j])
def test_params_reals_must_be_real_numbers(name, bad):
    # rho=True ran at rho = 1 and echoed "rho": true; alpha="1" raised a bare
    # TypeError from math.isfinite
    message = f"{name} must be a real number, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        AcoParams(**{name: bad})


def test_params_reals_are_stored_as_floats():
    # alpha=np.float32(1.5) and q_scale=np.int64(2) ran a whole solve and then
    # canonical_json() raised TypeError; kappa=1 echoed 1 where 1.0 echoes 1.0
    given = AcoParams(alpha=np.float32(1.5), beta=2, rho=np.float64(0.5),
                      q_scale=np.int64(2), kappa=1)
    spelled = AcoParams(alpha=1.5, beta=2.0, rho=0.5, q_scale=2.0, kappa=1.0)
    assert given == spelled
    assert [type(getattr(given, name)) for name in _REALS] == [float] * len(_REALS)
    assert json.dumps(given.to_dict()) == json.dumps(spelled.to_dict())
    with pytest.raises(ValueError, match="q_scale must be finite"):
        AcoParams(q_scale=10**400)  # past the largest double


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
        colony.tau[...] = tau[np.ix_(sub, sub)]
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
    # overlapping tours (edge (0, 1) twice, deposited on one colony, the
    # second time as a seed), a 2-node tour, a 1-node tour and backbone
    # bonuses on a random trail: each colony's block must hold the same
    # floats, added in the same order, as one deposit_amount per edge on the
    # global matrix and then the seed's flat deposit
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
        ref = reference_update_pheromones(tau.copy(), tours, backbones, params)
        reference_seed_deposit(ref, [overlap], params)
        for sub, colony in zip(subsets, colonies):
            assert np.array_equal(colony.tau, ref[np.ix_(sub, sub)])
        # the 2-node tour deposits exactly once in each direction
        amount = params.q_scale / 2.9 * (1.0 + params.kappa)
        pair = colonies[1].tau
        assert pair[0, 1] == tau[5, 6] * (1.0 - params.rho) + amount
        assert pair[1, 0] == tau[6, 5] * (1.0 - params.rho) + amount


@pytest.mark.parametrize("kappa", [0.0, 1.5])
def test_seed_deposit_bit_identical_to_scalar_loop(kappa):
    # a colony deposits each seed with a flat bonus: the q/L * (1 + kappa)
    # of the former scalar loop, bit for bit
    rng = np.random.default_rng(915)
    tau = _uniform_trail(10) * rng.uniform(0.2, 2.0, size=(10, 10))
    seeds = [Tour((0, 3, 1, 2), 7.3), Tour((4, 5), 2.9), Tour((6,), 0.0), Tour((9, 7, 8), 5.7)]
    params = AcoParams(rho=0.3, q_scale=1.7, kappa=kappa)
    subsets = [sorted(s.order) for s in seeds]
    colonies = _colonies_on(tau, subsets, [frozenset()] * len(seeds), params)
    for sub, colony, seed in zip(subsets, colonies, seeds):
        colony.deposit(_to_local(sub, seed))
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
        orders, lengths = colony.construct_colony(None, uniforms)
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


def _scaled(weight):
    """``weight`` times the power of two 2^k that takes its least
    off-diagonal entry to [2, 4)."""
    least = weight[~np.eye(len(weight), dtype=bool)].min()
    k = 0
    while least * 2.0**k < 2.0:
        k += 1
    while least * 2.0**k >= 4.0:
        k -= 1
    return weight * 2.0**k


def test_colony_weight_matrix():
    # (1/d)^beta * psi, scaled by a power of two so that the least
    # off-diagonal weight lies in [2, 4)
    d, mst, params, colony = _colony_setup(8, 906, omega=3.0)
    safe = d + np.eye(8)
    eta = 1.0 / safe
    np.fill_diagonal(eta, 0.0)
    expected = eta**params.beta
    for u, v in _keys(mst):
        expected[u, v] *= 3.0
        expected[v, u] *= 3.0
    assert np.array_equal(colony.weight, _scaled(expected))
    # omega=1 leaves the visibility unboosted, bit for bit
    _, _, _, neutral = _colony_setup(8, 906, omega=1.0)
    plain = eta**params.beta
    assert np.array_equal(neutral.weight, _scaled(plain))
    # a least weight of 4 or more is scaled down to [2, 4) as well
    inst = random_planar_instance(8, seed=906)
    close = build_distance_matrix(Instance(inst.name, inst.coords * 1e-3, inst.metric))
    colony = SubsetColony(close, frozenset(), 1.0, params)
    eta = 1.0 / (close + np.eye(8))
    np.fill_diagonal(eta, 0.0)
    assert (eta**params.beta)[~np.eye(8, dtype=bool)].min() >= 4.0
    assert np.array_equal(colony.weight, _scaled(eta**params.beta))
    assert 2.0 <= colony.weight[~np.eye(8, dtype=bool)].min() < 4.0


def test_colony_weight_is_free_of_the_coordinate_scale(bench51_path):
    # scaling the coordinates by 2^j scales every (1/d)^2 by 2^(-2j) exactly,
    # and the colony's power of two undoes it whichever way it points: the
    # weight of a 13-node bench51 subset keeps its bits for every j, where a
    # colony that only scaled up kept a least weight above 4 as it was
    inst = load_instance(bench51_path)
    sub = next(s for s in partition_angle(inst, 4).subsets if len(s) == 13)
    backbone = restrict_edges(kruskal_mst(build_distance_matrix(inst)), sub)
    params = AcoParams(beta=2.0)

    def weight(j):
        scaled = Instance(inst.name, inst.coords * 2.0**j, inst.metric)
        return SubsetColony(distance_block(scaled, sub), backbone, 2.0, params).weight

    base = weight(0)
    assert 2.0 <= base[~np.eye(13, dtype=bool)].min() < 4.0
    for j in range(-60, 61):
        assert np.array_equal(weight(j), base), j


def _api_trail_ops(n):
    """Random trail updates through the API: an evaporating update or a seed
    deposit of a tour over some of the n nodes, with a positive length."""
    tour = st.tuples(st.permutations(range(n)), st.integers(1, n),
                     st.floats(1e-3, 1e3))
    return st.lists(st.tuples(st.sampled_from(["update", "deposit"]), tour),
                    min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(
    case=st.integers(2, 30).flatmap(lambda n: st.tuples(st.just(n), _api_trail_ops(n))),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    rho=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    q_scale=st.floats(1e-3, 1e3),
    kappa=st.sampled_from([0.0, 1.5]),
    omega=st.sampled_from([1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_colony_accepts_every_trail_the_api_builds(case, alpha, rho, q_scale, kappa, omega, seed):
    # a trail starts at 1 - I, evaporates by 1 - rho in [0, 1) and takes only
    # deposits of q/L * gain with L positive and finite, so it never goes
    # negative and local_tau floors it: below the overflow limit every call
    # is accepted and picks what the reference picks on local_tau(), bit for
    # bit, after each update
    n, ops = case
    rng = np.random.default_rng(seed)
    d = build_distance_matrix(random_planar_instance(n, seed=seed))
    params = AcoParams(alpha=alpha, rho=rho, q_scale=q_scale, kappa=kappa)
    colony = SubsetColony(d, _keys(kruskal_mst(d)), omega, params)
    for op, (order, size, length) in ops:
        tour = Tour(order[:size], length if size > 1 else 0.0)
        if op == "update":
            update_pheromones([colony], [tour])
        else:
            colony.deposit(tour)
        assert (colony.tau >= 0).all()
        uniforms = rng.random((int(rng.integers(1, 8)), n))
        start = None if rng.random() < 0.5 else int(rng.integers(n))
        orders, lengths = colony.construct_colony(start, uniforms)
        ref_orders, ref_lengths = reference_construct_colony(
            colony.weight, colony.dist, colony.local_tau(), uniforms, start
        )
        assert np.array_equal(orders, ref_orders)
        assert np.array_equal(lengths, ref_lengths)


def test_colony_matches_scalar_construction():
    n = 9
    d, mst, params, colony = _colony_setup(n, 907, omega=2.0)
    bias = StructuralBias(2.0, _keys(mst))
    tau = _uniform_trail(n)
    rng = np.random.default_rng(908)
    tau *= rng.uniform(0.5, 1.5, size=(n, n))
    tau = (tau + tau.T) / 2
    np.fill_diagonal(tau, 0.0)
    colony.tau[...] = tau

    uniforms = rng.random((6, n))
    start = 4
    orders, lengths = colony.construct_colony(start, uniforms)
    for ant in range(6):
        scripted = ScriptedRng(uniforms[ant, 1:].tolist())
        ref = construct_tour(range(n), start, tau, d, bias, params, scripted)
        assert tuple(orders[ant].tolist()) == ref.order
        assert lengths[ant] == pytest.approx(ref.length, rel=1e-12)


# rows on both sides of GROUP_MIN (24), the width from which the C loop runs
# four ants at a time, up to rand2000-m8's 250
@pytest.mark.parametrize("width", [1, 2, 3, 13, 45, 46, 64, 250])
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
    colony.tau[...] = tau[np.ix_(nodes, nodes)]
    tau_local = colony.local_tau()
    assert np.array_equal(tau_local, colony.tau ** alpha)
    uniforms = rng.random((17, width))
    start_local = None if start is None else width // 2
    orders, lengths = colony.construct_colony(start_local, uniforms)
    ref_orders, ref_lengths = reference_construct_colony(
        colony.weight, colony.dist, tau_local, uniforms, start_local
    )
    assert np.array_equal(orders, ref_orders)
    assert np.array_equal(lengths, ref_lengths)


@pytest.mark.parametrize("width", [8, 60])
def test_draws_of_one_give_whole_tours(width, numpy_loop):
    # each draw is capped at 1 - 2^-53: uncapped, a draw of 1 would set the
    # target to the row total, which no prefix sum exceeds, and the ant
    # would take column 0 again
    d = build_distance_matrix(random_planar_instance(width, seed=940))
    colony = SubsetColony(d, frozenset(), 2.0, AcoParams())
    uniforms = np.random.default_rng(941).random((6, width))
    uniforms[:, 1::2] = 1.0
    orders, _ = colony.construct_colony(None, uniforms)
    assert np.array_equal(np.sort(orders, axis=1), np.broadcast_to(np.arange(width), orders.shape))


@pytest.mark.parametrize("n", [13, 120])
@pytest.mark.parametrize("loop", ["compiled", "numpy"])
def test_colony_calls_match_fresh_colonies(loop, n, request):
    # on one colony, a changed ant count, a call with draws of exactly 1 and
    # a refused call in between leave every call bit-identical to a fresh
    # colony's on the same trail, and the arrays a call returns are the
    # caller's own
    if loop == "numpy":
        request.getfixturevalue("numpy_loop")
    d = build_distance_matrix(random_planar_instance(n, seed=930))
    backbone = _keys(kruskal_mst(d))
    rng = np.random.default_rng(931)
    tau = _uniform_trail(n) * rng.uniform(0.5, 1.5, size=(n, n))

    def fresh():
        colony = SubsetColony(d, backbone, 2.0, AcoParams())
        colony.tau[...] = tau
        return colony

    colony = fresh()
    calls = []
    sequence = ((50, None), (7, 4), (50, None), ("ones", None), ("refused", None), (50, 0))
    for na, start in sequence:
        if na == "refused":
            with pytest.raises(ValueError, match="uniform draws must lie in"):
                colony.construct_colony(None, rng.random((50, n)) + 1.0)
            continue
        if na == "ones":
            uniforms = rng.random((50, n))
            uniforms[:, ::7] = 1.0
        else:
            uniforms = rng.random((na, n))
        orders, lengths = colony.construct_colony(start, uniforms)
        ref_orders, ref_lengths = fresh().construct_colony(start, uniforms)
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
    again, again_lengths = colony.construct_colony(start, uniforms)
    assert np.array_equal(again, ref_orders)
    assert np.array_equal(again_lengths, ref_lengths)


def test_colony_refuses_backbone_edge_outside_subset():
    # backbone edges are local ids of the block, so each end lies in [0, 3)
    d = build_distance_matrix(random_planar_instance(6, seed=932))
    for edge, end in (((2, 3), 3), ((-1, 2), -1), ((0, 7), 7), ((2**70, 1), 2**70)):
        with pytest.raises(ValueError, match=re.escape(f"backbone edge end {end} outside [0, 3)")):
            SubsetColony(d[:3, :3], frozenset({(0, 1), edge}), 2.0, AcoParams())


@pytest.mark.parametrize(
    "edge, message",
    [
        ((0.7, 1), "backbone edge end 0.7 is not an integer"),
        ((True, 2), "backbone edge end True is not an integer"),
        (("0", 1), "backbone edge end '0' is not an integer"),
        ((0, 1, 2), "backbone edge (0, 1, 2) is not a pair"),
        ((0, (1, 2)), "backbone edge end (1, 2) is not an integer"),
    ],
    ids=["float-end", "bool-end", "string-end", "triple", "ragged"],
)
def test_colony_refuses_a_backbone_edge_that_is_not_a_pair_of_ids(edge, message):
    # (0.7, 1), (True, 2) and ("0", 1) used to be read as ids in [0, 3)
    # without a word, a triple raised numpy's reshape error, and (0, (1, 2))
    # numpy's "inhomogeneous shape" error
    d = build_distance_matrix(random_planar_instance(6, seed=932))
    with pytest.raises(ValueError, match=re.escape(message)):
        SubsetColony(d[:3, :3], [edge], 2.0, AcoParams())


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_colony_reads_backbone_edges_given_as_numpy_rows(dtype):
    # an (E, 2) integer array used to raise numpy's broadcast error: adding
    # an ndarray row to a list dispatched to ndarray addition
    d = build_distance_matrix(random_planar_instance(12, seed=937))
    pairs = sorted(_keys(kruskal_mst(d)))
    colony = SubsetColony(d, np.array(pairs, dtype=dtype), 2.0, AcoParams())
    listed = SubsetColony(d, pairs, 2.0, AcoParams())
    assert colony.weight.tobytes() == listed.weight.tobytes()
    assert colony._gain.tobytes() == listed._gain.tobytes()


@st.composite
def _listed_backbones(draw):
    """A block size and its backbone edges listed in any order, each in
    either orientation and any number of times."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=30))


@settings(max_examples=100, deadline=None)
@given(_listed_backbones(), st.integers(0, 10**6), st.sampled_from([1.0, 2.0, 1e3]),
       st.sampled_from([0.0, 1.0, 2.5]))
@example((3, [(0, 1), (1, 0)]), 0, 2.0, 1.0)
def test_colony_reads_each_backbone_edge_once_in_either_orientation(listed, seed, omega, kappa):
    # a backbone edge is undirected: [(0, 1), (1, 0)] used to bias edge 0-1
    # by omega^2, once per listing
    n, pairs = listed
    d = build_distance_matrix(random_planar_instance(n, seed=seed))
    params = AcoParams(kappa=kappa)
    colony = SubsetColony(d, pairs, omega, params)
    canonical = SubsetColony(d, frozenset((min(e), max(e)) for e in pairs), omega, params)
    assert colony.weight.tobytes() == canonical.weight.tobytes()
    assert colony._gain.tobytes() == canonical._gain.tobytes()


def test_colony_refuses_a_distance_block_of_another_shape():
    # the colony takes its subset's square block
    d = build_distance_matrix(random_planar_instance(6, seed=933))
    for dist in (d[:3, :2], d[0], np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match=r"distance block of shape .* is not square"):
            SubsetColony(dist, frozenset(), 2.0, AcoParams())


def test_colony_refuses_an_empty_subset():
    # a colony has no tour to build on no nodes; its first call used to fail
    # inside numpy's reduction over the empty score block
    with pytest.raises(ValueError, match=re.escape("distance block of shape (0, 0) is an empty subset")):
        SubsetColony(np.zeros((0, 0)), [], 1.0, AcoParams())


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


@pytest.mark.parametrize(
    "order, length, message",
    [
        # 1.5 used to deposit as if it were 1, and True as 1
        ((0, 1.5, 2, 3, 4), 10.0, "tour node 1.5 is not an integer"),
        ((0, True, 2, 3, 4), 10.0, "tour node True is not an integer"),
        ((0, 1, np.float64(2.0), 3), 10.0, "tour node np.float64(2.0) is not an integer"),
        # 0 used to raise ZeroDivisionError, -5 lowered the trail, inf
        # deposited nothing and NaN was refused later as vanished scores
        ((0, 1, 2, 3, 4), 0.0, "tour length 0.0 is not a positive finite number"),
        ((0, 1, 2, 3, 4), -5.0, "tour length -5.0 is not a positive finite number"),
        ((0, 1, 2, 3, 4), np.inf, "tour length inf is not a positive finite number"),
        ((0, 1), np.nan, "tour length nan is not a positive finite number"),
    ],
    ids=["float-id", "bool-id", "numpy-float-id", "zero", "negative", "inf", "nan"],
)
def test_deposit_refuses_a_tour_that_cannot_mean_what_it_says(order, length, message):
    d = build_distance_matrix(random_planar_instance(5, seed=936))
    colony = SubsetColony(d, frozenset({(0, 1)}), 2.0, AcoParams())
    before = colony.tau.copy()
    with pytest.raises(ValueError, match=re.escape(message)):
        colony.deposit(Tour(order, length))
    with pytest.raises(ValueError, match=re.escape(message)):
        update_pheromones([colony], [Tour(order, length)])
    assert np.array_equal(colony.tau, before)
    # numpy integer ids and a single node of length 0 still deposit as before
    colony.deposit(Tour((np.int64(0), np.int32(1), 2), 4.0))
    assert colony.tau[0, 1] > before[0, 1]
    update_pheromones([colony], [Tour((3,), 0.0)])


@pytest.mark.parametrize(
    "order, repeated",
    [((0, 1, 1, 2), 1), ((0, 1, 0, 1), 0), ((4, 2, 3, 0, 3), 3), ((2, np.int64(2)), 2)],
    ids=["adjacent", "edge-twice", "apart", "numpy-id"],
)
def test_deposit_refuses_a_tour_that_repeats_a_node(order, repeated):
    # a tour visits each node once: (0, 1, 1, 2) used to raise the diagonal
    # cell tau[1, 1] from 0, and (0, 1, 0, 1) deposited its one edge once
    # instead of four times, since a fancy-index += drops repeated cells
    d = build_distance_matrix(random_planar_instance(5, seed=936))
    colony = SubsetColony(d, frozenset({(0, 1)}), 2.0, AcoParams())
    other = SubsetColony(d[:3, :3], frozenset(), 2.0, AcoParams())
    before = [colony.tau.copy(), other.tau.copy()]
    message = re.escape(f"tour node {repeated} is visited more than once")
    with pytest.raises(ValueError, match=message):
        colony.deposit(Tour(order, 5.0))
    with pytest.raises(ValueError, match=message):
        update_pheromones([other, colony], [Tour((0, 2, 1), 3.0), Tour(order, 5.0)])
    assert np.array_equal(colony.tau, before[0])
    assert np.array_equal(other.tau, before[1])


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


@pytest.mark.parametrize("name", ["tau", "dist"])
def test_a_colony_keeps_its_own_trail_and_distances(name):
    # a strided view bound as the distance block reached the compiled call,
    # which read it from the base buffer: the same orders, with a first
    # ant's length of 695.07 where numpy's was 527.52; a view bound as the
    # trail kept its layout too.  Neither can be rebound now
    big = build_distance_matrix(random_planar_instance(24, seed=936))
    colony = SubsetColony(big[::2, ::2], frozenset(), 1.0, AcoParams())
    owned = getattr(colony, name)
    with pytest.raises(AttributeError):
        setattr(colony, name, big[::2, ::2])
    assert getattr(colony, name) is owned and owned.flags.c_contiguous


@pytest.mark.parametrize("layout", ["fortran", "transposed", "strided"])
def test_local_tau_zeroes_the_diagonal_of_a_trail_written_from_any_layout(layout):
    # a trail rebound to a Fortran-ordered array kept the floor on its
    # diagonal, as the zeroing wrote into a flattened copy
    _, _, _, colony = _colony_setup(5, 937)
    source = np.random.default_rng(938).uniform(0.5, 2.0, (10, 10))
    colony.tau[...] = {"fortran": np.asfortranarray(source[:5, :5]), "transposed": source[:5, :5].T,
                       "strided": source[::2, ::2]}[layout]
    assert colony.tau.flags.c_contiguous
    assert np.array_equal(np.diag(colony.local_tau()), np.zeros(5))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_local_tau_floors_the_trail_factor(alpha):
    params = AcoParams(alpha=alpha)
    _, _, _, colony = _colony_setup(6, 917, params=params)
    off_diag = ~np.eye(6, dtype=bool)
    # an underflowed trail reads as the floor, for every alpha
    colony.tau[...] = np.zeros((6, 6))
    sub = colony.local_tau()
    assert np.array_equal(sub[off_diag], np.full(30, TRAIL_FLOOR))
    assert np.array_equal(np.diag(sub), np.zeros(6))
    uniforms = np.random.default_rng(918).random((4, 6))
    orders, _ = colony.construct_colony(None, uniforms)
    assert all(sorted(row) == list(range(6)) for row in orders.tolist())
    # a trail above the floor comes back as tau^alpha, bit for bit
    colony.tau[...] = _uniform_trail(6) * np.random.default_rng(919).uniform(1e-40, 2.0, (6, 6))
    assert np.array_equal(colony.local_tau(), colony.tau ** alpha)


def test_colony_vanished_scores_rejected():
    # the one way a trail built through the API goes bad: a deposit of
    # q/L past the largest double makes a trail cell inf, and at rho = 1 the
    # next evaporation makes that inf NaN.  Either is refused by name, since
    # the 0/1 mask would carry it into every prefix sum of the row
    d = build_distance_matrix(random_planar_instance(6, seed=917))
    colony = SubsetColony(d, frozenset(), 1.0, AcoParams(rho=1.0, q_scale=1e308))
    uniforms = np.random.default_rng(918).random((4, 6))
    colony.deposit(Tour((0, 1, 2, 3, 4, 5), 0.5))
    assert np.isinf(colony.tau).any()
    with pytest.raises(ValueError, match=NON_FINITE):
        colony.construct_colony(None, uniforms)
    with np.errstate(invalid="ignore"):
        update_pheromones([colony], [Tour((0, 2, 1, 3, 5, 4), 1e300)])
    assert np.isnan(colony.tau).any() and not np.isinf(colony.tau).any()
    with pytest.raises(ValueError, match=NON_FINITE):
        colony.construct_colony(2, uniforms)


def _cycle_trail(n, rng):
    """Trail left after every edge off one Hamiltonian cycle has underflowed
    to exactly 0; floored, most of each prefix-sum row climbs by scores near
    TRAIL_FLOOR alone."""
    cycle = rng.permutation(n)
    trail = np.zeros((n, n))
    trail[cycle, np.roll(cycle, 1)] = rng.uniform(0.5, 1.5, size=n)
    trail[np.roll(cycle, 1), cycle] = rng.uniform(0.5, 1.5, size=n)
    return trail


@pytest.mark.parametrize("case", ["zero-entries", "near-overflowing-totals"])
def test_colony_bit_identical_to_reference_on_edge_trails(case):
    # the two edges of what a call accepts: a trail whose zeros the floor
    # lifts to TRAIL_FLOOR, and scores whose row totals stay just finite
    rng = np.random.default_rng(923)
    if case == "zero-entries":
        _, _, _, colony = _colony_setup(13, 924)
        colony.tau[...] = _cycle_trail(13, rng)
        trail = colony.local_tau()
        assert (trail == TRAIL_FLOOR).sum() == 13 * 13 - 13 - 26
    else:
        # scores of up to just under max / (2 * 13), so that no row total
        # can overflow while 13 times the largest nears half the largest double
        _, _, _, colony = _colony_setup(13, 925)
        big = np.finfo(float).max / 2 / 13 * rng.uniform(0.5, 0.999, size=(13, 13))
        colony.tau[...] = big / (colony.weight + np.eye(13))
        np.fill_diagonal(colony.tau, 0.0)
        trail = colony.local_tau()
        assert (trail * colony.weight).max() * 13 > np.finfo(float).max / 4
    uniforms = rng.random((40, 13))
    uniforms[rng.random(uniforms.shape) < 0.2] = 1.0
    for start in (None, 5):
        orders, lengths = colony.construct_colony(start, uniforms)
        ref_orders, ref_lengths = reference_construct_colony(
            colony.weight, colony.dist, trail, uniforms, start
        )
        assert np.array_equal(orders, ref_orders)
        assert np.array_equal(lengths, ref_lengths)


def test_colony_floor_total_keeps_its_clamp():
    # Unit distances, omega = 1 and a floored trail give the least scores a
    # call accepts: the weight 1 is scaled to 2, so every successor scores
    # exactly 2 * TRAIL_FLOOR.  Zero draws walk the ants in index order, and
    # the last draws of 1 - 2^-53 and 1 meet the least row totals, 4 and
    # 2 times TRAIL_FLOOR, where the capped draw must still land below the
    # total, as the clamping reference's target does.  At a total of
    # TRAIL_FLOOR itself, (1 - 2^-53) * tiny would round back to tiny.
    n = 5
    d = np.ones((n, n)) - np.eye(n)
    colony = SubsetColony(d, frozenset(), 1.0, AcoParams())
    colony.tau[...] = np.zeros((n, n))
    tau_local = colony.local_tau()
    off_diag = ~np.eye(n, dtype=bool)
    assert ((tau_local * colony.weight)[off_diag] == 2 * TRAIL_FLOOR).all()
    last = 1.0 - 2.0**-53
    assert last * TRAIL_FLOOR == TRAIL_FLOOR
    assert last * (2 * TRAIL_FLOOR) < 2 * TRAIL_FLOOR
    uniforms = np.zeros((6, n))
    uniforms[:3, -2:] = last
    uniforms[3:, -2:] = 1.0
    for start in (None, 2):
        orders, lengths = colony.construct_colony(start, uniforms)
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
    width=st.integers(1, 160),
    n_ants=st.integers(1, 20),
    exponent=st.floats(-320.0, 308.0),
    zeros=st.sampled_from([0.0, 0.3, 0.9]),
    alpha=st.floats(0.5, 2.0),
    beta=st.floats(0.5, 6.0),
    omega=st.sampled_from([1.0, 2.0, 6.0]),
    scale=st.sampled_from([1e-30, 1.0, 1e3, 1e51]),
    start=st.one_of(st.none(), st.integers(0, 159)),
    top=st.sampled_from([None, 1.0 - 2.0**-53, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# every score well inside the normal range, under draws of exactly 1, and
# subnormal trails
@example(width=13, n_ants=20, exponent=0.0, zeros=0.0, alpha=1.0,
         beta=2.0, omega=2.0, scale=1.0, start=None, top=None, seed=1)
@example(width=40, n_ants=20, exponent=300.0, zeros=0.0, alpha=1.0,
         beta=1.0, omega=6.0, scale=1.0, start=7, top=1.0 - 2.0**-53, seed=2)
@example(width=13, n_ants=20, exponent=0.0, zeros=0.0, alpha=1.0,
         beta=2.0, omega=2.0, scale=1.0, start=None, top=1.0, seed=5)
@example(width=13, n_ants=20, exponent=-320.0, zeros=0.3, alpha=1.0,
         beta=2.0, omega=1.0, scale=1.0, start=4, top=1.0 - 2.0**-53, seed=4)
# large scales: beta = 3.5 on coordinates times 1e3, a least weight that is
# subnormal (beta = 6 on coordinates times 1e51), and one near 1e170 that
# the colony scales down (beta = 6 on coordinates times 1e-30)
@example(width=40, n_ants=20, exponent=0.0, zeros=0.3, alpha=1.0,
         beta=3.5, omega=2.0, scale=1e3, start=None, top=1.0, seed=15)
@example(width=40, n_ants=20, exponent=-300.0, zeros=0.0, alpha=1.3,
         beta=6.0, omega=6.0, scale=1e51, start=3, top=1.0, seed=16)
@example(width=13, n_ants=20, exponent=0.0, zeros=0.0, alpha=1.0,
         beta=6.0, omega=1.0, scale=1e-30, start=None, top=None, seed=17)
# trails that the floor lifts: subnormal, and mostly exact zeros
@example(width=13, n_ants=20, exponent=-320.0, zeros=0.0, alpha=1.0,
         beta=2.0, omega=1.0, scale=1.0, start=None, top=1.0 - 2.0**-53, seed=3)
@example(width=13, n_ants=20, exponent=0.0, zeros=0.9, alpha=1.0,
         beta=2.0, omega=1.0, scale=1.0, start=2, top=None, seed=6)
# refused: a trail factor that overflows, and scores past the row-total bound
@example(width=13, n_ants=20, exponent=300.0, zeros=0.0, alpha=2.0,
         beta=2.0, omega=1.0, scale=1.0, start=None, top=None, seed=18)
@example(width=13, n_ants=20, exponent=305.0, zeros=0.0, alpha=1.0,
         beta=1.0, omega=1.0, scale=1.0, start=None, top=None, seed=19)
# wide rows, whose ants the C loop runs four at a time: at unit and 1e300
# scales, under a draw of exactly 1, subnormal and refused at 1e306
@example(width=120, n_ants=20, exponent=0.0, zeros=0.0, alpha=1.3,
         beta=2.0, omega=2.0, scale=1.0, start=None, top=1.0 - 2.0**-53, seed=7)
@example(width=120, n_ants=20, exponent=300.0, zeros=0.0, alpha=1.0,
         beta=1.0, omega=6.0, scale=1.0, start=70, top=None, seed=8)
@example(width=120, n_ants=20, exponent=0.0, zeros=0.0, alpha=1.0,
         beta=2.0, omega=2.0, scale=1.0, start=None, top=1.0, seed=9)
@example(width=120, n_ants=20, exponent=-320.0, zeros=0.3, alpha=1.0,
         beta=2.0, omega=1.0, scale=1.0, start=4, top=1.0 - 2.0**-53, seed=10)
@example(width=120, n_ants=20, exponent=-318.0, zeros=0.0, alpha=1.0,
         beta=0.5, omega=1.0, scale=1.0, start=None, top=1.0 - 2.0**-53, seed=11)
@example(width=120, n_ants=20, exponent=306.0, zeros=0.0, alpha=1.0,
         beta=1.0, omega=1.0, scale=1.0, start=None, top=None, seed=12)
# one and two ants on a wide row, too few for a group of four
@example(width=120, n_ants=1, exponent=0.0, zeros=0.0, alpha=1.0,
         beta=2.0, omega=2.0, scale=1.0, start=None, top=None, seed=13)
@example(width=120, n_ants=2, exponent=0.0, zeros=0.0, alpha=1.3,
         beta=2.0, omega=2.0, scale=1.0, start=50, top=1.0 - 2.0**-53, seed=14)
def test_colony_matches_reference_across_trail_scales(
    width, n_ants, exponent, zeros, alpha, beta, omega, scale, start, top, seed
):
    # Trails from 1e-320 (subnormal) to 1e308, with exact zeros, on
    # coordinates scaled from 1e-30 up to 1e51.  A call is accepted exactly
    # when every successor score of the floored trail is finite and n_local
    # times the largest stays below half the largest double; then it picks
    # what the clamping reference picks on local_tau(), bit for bit, draws of
    # exactly 1 included.  Any other call is refused by name.
    rng = np.random.default_rng(seed)
    inst = random_planar_instance(max(width, 2), seed=seed)
    d = build_distance_matrix(Instance(inst.name, inst.coords * scale, inst.metric))
    params = AcoParams(alpha=alpha, beta=beta)
    backbone = _keys(kruskal_mst(d[:width, :width]))
    with np.errstate(over="ignore"):
        colony = SubsetColony(d[:width, :width], backbone, omega, params)
    trail = 10.0**exponent * rng.uniform(0.5, 1.5, size=d.shape)
    trail[rng.random(d.shape) < zeros] = 0.0
    colony.tau[...] = trail[:width, :width]
    uniforms = rng.random((n_ants, width))
    if top is not None:
        uniforms[rng.random(uniforms.shape) < 0.3] = top
    start_local = None if start is None else start % width
    with np.errstate(over="ignore", under="ignore"):
        tau_local = colony.local_tau()
        scores = tau_local * colony.weight
    assert (scores[~np.eye(width, dtype=bool)] >= 2 * TRAIL_FLOOR).all()
    if np.isinf(scores).any():
        refusal = NON_FINITE
    elif not scores.max() < np.finfo(float).max / 2 / width:
        refusal = TOO_LARGE
    else:
        orders, lengths = colony.construct_colony(start_local, uniforms)
        ref_orders, ref_lengths = reference_construct_colony(
            colony.weight, colony.dist, tau_local, uniforms, start_local
        )
        assert np.array_equal(orders, ref_orders)
        assert np.array_equal(lengths, ref_lengths)
        assert (np.sort(orders, axis=1) == np.arange(width)).all()
        return
    with pytest.raises(ValueError, match=refusal):
        colony.construct_colony(start_local, uniforms)


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
        colony.construct_colony(None, np.full((3, 12), 0.5))


def test_colony_refuses_scores_whose_row_totals_overflow():
    # scores near max/4 are finite while their row sums overflow to inf; a
    # draw of exactly 0 then made 0 * inf = NaN, no prefix sum exceeded the
    # target, and every ant re-picked column 0 at step 3 and returned 12
    # distinct nodes of 13 without an error (the clamping reference does too)
    inst = random_planar_instance(13, seed=925)
    d = build_distance_matrix(Instance(inst.name, inst.coords * 1e-3, inst.metric))
    colony = SubsetColony(d, frozenset(), 1.0, AcoParams())
    rng = np.random.default_rng(923)
    huge = np.finfo(float).max / 4 * rng.uniform(0.5, 1.0, size=(13, 13))
    colony.tau[...] = huge / (colony.weight + np.eye(13))
    np.fill_diagonal(colony.tau, 0.0)
    uniforms = rng.random((40, 13))
    uniforms[:, 3] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=TOO_LARGE):
            colony.construct_colony(0, uniforms)


def test_colony_free_start_uses_first_draw():
    n = 7
    _, _, params, colony = _colony_setup(n, 909)
    uniforms = np.random.default_rng(910).random((5, n))
    orders, _ = colony.construct_colony(None, uniforms)
    expected_starts = np.minimum((uniforms[:, 0] * n).astype(int), n - 1)
    assert np.array_equal(orders[:, 0], expected_starts)
    for row in orders:
        assert sorted(row.tolist()) == list(range(n))


@pytest.mark.parametrize("start", [13, 14, -1, -13])
def test_colony_start_out_of_range_rejected(start):
    # 13 used to raise a bare IndexError, and -1 read row 0 but marked
    # another ant's column, so every tour revisited nodes
    _, _, _, colony = _colony_setup(13, 923)
    uniforms = np.random.default_rng(924).random((4, 13))
    with pytest.raises(ValueError, match=rf"start_local {start} outside \[0, 13\)"):
        colony.construct_colony(start, uniforms)


@pytest.mark.parametrize("start", [2.5, np.float64(3.9), True, np.bool_(False), "3"], ids=repr)
def test_colony_start_must_be_an_integer(start):
    # 2.5 used to start every ant at node 2, np.float64(3.9) at 3 and True
    # at 1; "3" raised a bare TypeError
    _, _, _, colony = _colony_setup(13, 923)
    uniforms = np.random.default_rng(924).random((4, 13))
    message = re.escape(f"start_local {start!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        colony.construct_colony(start, uniforms)
    orders, _ = colony.construct_colony(np.int64(3), uniforms)
    assert (orders[:, 0] == 3).all()


@pytest.mark.parametrize("draw", [-0.5, -1e-300, 1.0 + 2.0**-52, 1.5, np.nan, np.inf])
@pytest.mark.parametrize("cell", [(0, 0), (2, 7)])
def test_colony_draw_outside_unit_interval_rejected(draw, cell):
    # a first draw of -0.5 used to be refused as "all successor scores
    # vanished"; a later one, or one above 1, picked some node silently
    _, _, _, colony = _colony_setup(13, 925)
    uniforms = np.random.default_rng(926).random((4, 13))
    uniforms[cell] = draw
    with pytest.raises(ValueError, match=r"uniform draws must lie in \[0, 1\]"):
        colony.construct_colony(None, uniforms)


def test_colony_draws_of_zero_and_one_accepted():
    # both ends of [0, 1] are legal draws
    _, _, _, colony = _colony_setup(13, 927)
    tau = colony.local_tau()
    uniforms = np.random.default_rng(928).random((4, 13))
    uniforms[0] = 0.0
    uniforms[1] = 1.0
    got = _colony_outcome(colony.construct_colony, None, uniforms)
    want = _colony_outcome(reference_construct_colony, colony.weight, colony.dist, tau, uniforms)
    assert got == want


def test_colony_uniform_shape_checked():
    _, _, _, colony = _colony_setup(6, 911)
    with pytest.raises(ValueError, match="width"):
        colony.construct_colony(None, np.zeros((3, 5)))


@pytest.mark.parametrize("shape", [(6,), (2, 6, 1), (), (1, 2, 6)], ids=str)
def test_colony_refuses_a_draw_block_that_is_not_2d(shape):
    # the unpack na, nl = uniforms.shape used to fail with numpy's bare
    # "not enough values to unpack" or "too many values to unpack"
    _, _, _, colony = _colony_setup(6, 911)
    message = re.escape(f"uniform block of shape {shape} is not (n_ants, 6)")
    with pytest.raises(ValueError, match=message):
        colony.construct_colony(None, np.full(shape, 0.5))


def test_colony_refuses_a_draw_block_that_is_not_float64():
    # solve hands the colony float64 blocks only; a block of another dtype,
    # or a list, is refused by name rather than converted
    _, _, _, colony = _colony_setup(6, 911)
    uniforms = np.full((3, 6), 0.5)
    swapped = uniforms.astype(uniforms.dtype.newbyteorder())
    blocks = {"type list": uniforms.tolist(), "dtype float32": uniforms.astype(np.float32),
              "dtype complex128": uniforms + 0j, "dtype bool": uniforms > 0,
              f"dtype {swapped.dtype}": swapped}
    for kind, block in blocks.items():
        with pytest.raises(ValueError, match=f"^uniform block of {kind} is not a float64 ndarray$"):
            colony.construct_colony(None, block)


def test_colony_mean_near_optimum_with_strong_guidance():
    # high visibility exponent plus a strong backbone bias: 400 constructions
    # on 8 nodes should average within 10% of the exhaustive optimum
    n = 8
    params = AcoParams(beta=8.0, n_ants=400)
    d, mst, _, colony = _colony_setup(n, 25, omega=6.0, params=params)
    best_len, _ = exhaustive_tsp(d, list(range(n)))
    uniforms = np.random.default_rng(913).random((400, n))
    _, lengths = colony.construct_colony(None, uniforms)
    assert lengths.mean() <= 1.10 * best_len
    assert lengths.min() >= best_len - 1e-9
