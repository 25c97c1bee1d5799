"""MST, matching, Euler walk, and shortcut seed construction."""

import collections
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_matching,
    exact_min_matching,
    make_edge,
    prim_mst_cost,
    reference_distance_matrix,
    reference_kruskal_mst,
)
from sinepath.backbone import (
    Backbone,
    Edge,
    christofides_seed,
    dfs_preorder_seed,
    euler_tour,
    greedy_min_matching,
    kruskal_mst,
    odd_degree_vertices,
    restrict_edges,
    shortcut,
)
from sinepath.instances import (
    Instance,
    Metric,
    build_distance_matrix,
    distance_block,
    random_planar_instance,
)
from sinepath.objective import Tour, tour_length
from test_native import _numpy_loop


def _random_matrix(n, seed):
    inst = random_planar_instance(n, seed=seed)
    return build_distance_matrix(inst)


def test_make_edge_canonical():
    e = make_edge(5, 2, 1.5)
    assert (e.u, e.v, e.weight) == (2, 5, 1.5)
    with pytest.raises(ValueError, match="self-loop"):
        make_edge(3, 3, 1.0)


def test_kruskal_matches_prim_oracle():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(4, 13))
        d = _random_matrix(n, 300 + trial)
        got = kruskal_mst(d)
        assert got.total_cost == pytest.approx(prim_mst_cost(d), rel=1e-12)
        assert len(got.edges) == n - 1


def test_kruskal_tree_structure():
    d = _random_matrix(14, 32)
    mst = kruskal_mst(d)
    assert mst.nodes == tuple(range(14))
    for e in mst.edges:
        assert e.u < e.v
        assert e.weight == d[e.u, e.v]
    # spanning: breadth-first reach from node 0 covers everything
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for nbr in mst.adjacency[v]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    assert seen == set(range(14))


def test_kruskal_on_subset():
    # a subset's MST is the MST of its block, in the block's local ids
    d = _random_matrix(12, 33)
    subset = [2, 5, 7, 11]
    mst = kruskal_mst(d[np.ix_(subset, subset)])
    assert mst.nodes == (0, 1, 2, 3)
    assert len(mst.edges) == 3
    assert all(e.weight == d[subset[e.u], subset[e.v]] for e in mst.edges)
    assert kruskal_mst(d[np.ix_([4], [4])]) == Backbone((0,), (), 0.0)
    with pytest.raises(ValueError, match="non-empty"):
        kruskal_mst(np.zeros((0, 0)))


def test_kruskal_tie_break_frozen():
    # unit square: four side edges all weigh 1; ranked (0,1), (0,2), (1,3)
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    diff = coords[:, None] - coords[None, :]
    d = np.sqrt((diff**2).sum(axis=2))
    mst = kruskal_mst(d)
    assert [(e.u, e.v) for e in mst.edges] == [(0, 1), (0, 2), (1, 3)]
    assert mst.total_cost == pytest.approx(3.0)
    again = kruskal_mst(d)
    assert again.edges == mst.edges


@st.composite
def _mst_inputs(draw):
    """A weight matrix and a node subset.  Grids and small integer weights
    make equal weights common, so the (weight, u, v) tie-break decides the
    tree; an asymmetric matrix is read through its upper triangle."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["points", "grid", "symmetric", "asymmetric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "points":
        d = reference_distance_matrix(rng.uniform(0.0, 100.0, size=(n, 2)))
    elif kind == "grid":
        d = reference_distance_matrix(rng.integers(0, 4, size=(n, 2)).astype(float))
    else:
        d = rng.integers(0, 4, size=(n, n)).astype(float)
        if kind == "symmetric":
            d = np.minimum(d, d.T)
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    if draw(st.booleans()):
        subset = range(n)
    return d, subset


@settings(max_examples=400, deadline=None)
@given(_mst_inputs())
def test_mst_equals_reference_kruskal(case):
    # the MST of the subset's block, mapped back through the ascending
    # subset: same nodes, same edges in the same order, same total bits,
    # on the compiled Prim and on the numpy loop
    d, subset = case
    s = np.unique(np.asarray(list(subset)))
    block = d[np.ix_(s, s)]
    want = reference_kruskal_mst(d, subset)
    for local in (kruskal_mst(block), _numpy_loop(lambda: kruskal_mst(block))):
        got = Backbone(
            tuple(s[list(local.nodes)].tolist()),
            tuple(Edge(int(s[e.u]), int(s[e.v]), e.weight) for e in local.edges),
            local.total_cost,
        )
        assert got == want
        assert got.total_cost.hex() == want.total_cost.hex()


def test_mst_equals_reference_kruskal_at_2000_nodes():
    d = build_distance_matrix(random_planar_instance(2000, seed=2000))
    assert kruskal_mst(d) == reference_kruskal_mst(d, range(2000))


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4,), (2, 2, 2), (0, 3)])
@pytest.mark.parametrize("build", [kruskal_mst, christofides_seed, dfs_preorder_seed])
def test_mst_refuses_a_matrix_that_is_not_square(build, shape):
    # refused by name before any Prim runs; the compiled Prim would read
    # the wrong cells of a (3, 5) matrix and past the end of a (5, 3) one
    d = np.ones(shape)
    d[..., 0] = np.nan  # the shape is named before the weights are read
    with pytest.raises(ValueError, match=rf"distance matrix of shape {re.escape(str(shape))} "
                                         "is not square"):
        build(d)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mst_refuses_non_finite_weights(bad):
    d = _random_matrix(8, 36)
    d[2, 5] = bad
    for subset in (range(8), [1, 2, 5, 7]):
        with pytest.raises(ValueError, match="non-finite"):
            kruskal_mst(d[np.ix_(subset, subset)])
    kruskal_mst(d[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])])  # a block without the bad entry is fine


def test_mst_memory_peak():
    # Prim needs O(n) scratch; an n^2 pair list or block copy would fail this.
    n = 1500
    d = _random_matrix(n, 37)
    tracemalloc.start()
    try:
        kruskal_mst(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n * n * 8


def test_restrict_edges():
    d = _random_matrix(10, 34)
    mst = kruskal_mst(d)
    # the edges inside the subset, each end as its position in the
    # ascending subset; the subset may come in any order
    subset = [1, 3, 5, 7, 9]
    kept = restrict_edges(mst, {9, 1, 7, 3, 5})
    inside = [(e.u, e.v) for e in mst.edges if e.u in subset and e.v in subset]
    assert inside
    assert kept == {(subset.index(u), subset.index(v)) for u, v in inside}
    assert all(u < v for u, v in kept)
    assert restrict_edges(mst, range(10)) == {(e.u, e.v) for e in mst.edges}


def test_odd_degree_vertices_path():
    # chain 0-1-2-3: endpoints odd
    edges = (make_edge(0, 1, 1.0), make_edge(1, 2, 1.0), make_edge(2, 3, 1.0))
    bb = Backbone((0, 1, 2, 3), edges, 3.0)
    assert odd_degree_vertices(bb) == (0, 3)


def test_matching_greedy_vs_exact_vs_oracle():
    rng = np.random.default_rng(35)
    for trial in range(50):
        n = int(rng.integers(8, 15))
        d = _random_matrix(n, 400 + trial)
        k = int(rng.choice([2, 4, 6, 8]))
        verts = sorted(rng.choice(n, size=k, replace=False).tolist())
        exact = exact_min_matching(d, verts)
        greedy = greedy_min_matching(d, verts)
        exact_cost = sum(e.weight for e in exact)
        greedy_cost = sum(e.weight for e in greedy)
        oracle_cost, _ = brute_force_matching(d, verts)
        assert exact_cost == pytest.approx(oracle_cost, rel=1e-12)
        assert greedy_cost >= exact_cost - 1e-12
        assert all(e.u < e.v for e in greedy)
        # both are perfect matchings over the vertex set
        for matching in (exact, greedy):
            touched = [v for e in matching for v in (e.u, e.v)]
            assert sorted(touched) == verts


def test_matching_validation():
    d = _random_matrix(16, 36)
    with pytest.raises(ValueError, match="even"):
        greedy_min_matching(d, [0, 1, 2])
    with pytest.raises(ValueError, match="even"):
        exact_min_matching(d, [0, 1, 2])
    with pytest.raises(ValueError, match="capped at 12"):
        exact_min_matching(d, list(range(14)))
    assert greedy_min_matching(d, []) == ()
    assert exact_min_matching(d, []) == ()


def test_euler_tour_covers_edge_multiset():
    rng = np.random.default_rng(37)
    for trial in range(20):
        n = int(rng.integers(5, 16))
        d = _random_matrix(n, 500 + trial)
        mst = kruskal_mst(d)
        matching = greedy_min_matching(d, odd_degree_vertices(mst))
        walk = euler_tour(mst, matching)
        assert walk[0] == 0 and walk[-1] == 0
        walked = collections.Counter(
            (min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])
        )
        expected = collections.Counter(
            (e.u, e.v) for e in list(mst.edges) + list(matching)
        )
        assert walked == expected


def test_euler_tour_parallel_edges():
    # two nodes: MST edge doubled by the matching -> walk 0,1,0
    bb = Backbone((0, 1), (make_edge(0, 1, 2.0),), 2.0)
    matching = (make_edge(0, 1, 2.0),)
    assert euler_tour(bb, matching) == [0, 1, 0]


def test_euler_tour_edgeless_and_errors():
    # a one-node backbone walks its node alone, as christofides_seed's
    # one-node block does
    assert euler_tour(Backbone((0,), (), 0.0), ()) == [0]
    # odd degree
    chain = Backbone((0, 1), (make_edge(0, 1, 1.0),), 1.0)
    with pytest.raises(RuntimeError, match="odd"):
        euler_tour(chain, ())
    # even degrees but two components
    bb2 = Backbone(
        (0, 1, 2, 3), (make_edge(0, 1, 1.0), make_edge(2, 3, 1.0)), 2.0
    )
    doubled = (make_edge(0, 1, 1.0), make_edge(2, 3, 1.0))
    with pytest.raises(RuntimeError, match="disconnected"):
        euler_tour(bb2, doubled)


def test_shortcut_first_occurrence():
    d = _random_matrix(5, 38)
    seed = shortcut([0, 1, 0, 2, 3, 2, 0], d)
    assert seed.order == (0, 1, 2, 3)
    assert seed.length == pytest.approx(tour_length([0, 1, 2, 3], d), rel=1e-15)
    with pytest.raises(ValueError, match="empty"):
        shortcut([], d)


def test_shortcut_never_longer_than_walk():
    rng = np.random.default_rng(39)
    for trial in range(20):
        n = int(rng.integers(5, 14))
        d = _random_matrix(n, 600 + trial)
        mst = kruskal_mst(d)
        matching = greedy_min_matching(d, odd_degree_vertices(mst))
        walk = euler_tour(mst, matching)
        walk_len = sum(d[a, b] for a, b in zip(walk, walk[1:]))
        seed = shortcut(walk, d)
        assert seed.length <= walk_len + 1e-9


def test_seed_sandwiched_by_mst_and_matching():
    rng = np.random.default_rng(40)
    for trial in range(30):
        n = int(rng.integers(8, 31))
        d = _random_matrix(n, 700 + trial)
        mst = kruskal_mst(d)
        matching = greedy_min_matching(d, odd_degree_vertices(mst))
        matching_cost = sum(e.weight for e in matching)
        seed = christofides_seed(d)
        assert sorted(seed.order) == list(range(n))
        assert mst.total_cost - 1e-9 <= seed.length
        assert seed.length <= mst.total_cost + matching_cost + 1e-9


def test_seed_single_node():
    d = _random_matrix(6, 42)
    one = d[np.ix_([3], [3])]
    assert christofides_seed(one) == Tour((0,), 0.0)
    assert dfs_preorder_seed(one) == Tour((0,), 0.0)
    for seed in (christofides_seed, dfs_preorder_seed):
        with pytest.raises(ValueError, match="non-empty"):
            seed(np.zeros((0, 0)))


@settings(max_examples=60, deadline=None)
@given(
    metric=st.sampled_from(list(Metric)),
    n=st.integers(2, 60),
    lattice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_block_seed_maps_to_the_subset_seed(metric, n, lattice, seed, data):
    # the solver seeds each colony from its own block in local ids and maps
    # the order back through the ascending node ids once: the result must be
    # a tour over the subset from its lowest node whose length bits are
    # those of the same tour measured on the full matrix, and the seed must
    # be the one the matrix's block for the subset gives.  A lattice makes
    # many equal weights, so the (weight, u, v) tie rule is exercised.
    rng = np.random.default_rng(seed)
    if lattice:
        cells = rng.choice(64, size=n, replace=False)
        coords = np.column_stack([cells // 8, cells % 8]).astype(float)
    else:
        coords = rng.uniform(-60.0, 60.0, size=(n, 2))
    inst = Instance("seeded", coords, metric)
    d = build_distance_matrix(inst)
    k = data.draw(st.integers(1, n))
    nodes = np.sort(rng.choice(n, size=k, replace=False))
    local = christofides_seed(distance_block(inst, nodes))
    mapped = nodes[list(local.order)]
    assert sorted(mapped.tolist()) == nodes.tolist() and mapped[0] == nodes[0]
    assert local.length.hex() == tour_length(mapped, d).hex()
    assert local == christofides_seed(d[np.ix_(nodes, nodes)])


def test_dfs_preorder_seed():
    d = _random_matrix(10, 43)
    seed = dfs_preorder_seed(d)
    assert sorted(seed.order) == list(range(10))
    assert seed.order[0] == 0
    assert seed.length == pytest.approx(tour_length(seed.order, d), rel=1e-15)
    # chain geometry: preorder from the end walks the chain in order
    coords = np.array([[float(i), 0.0] for i in range(5)])
    diff = coords[:, None] - coords[None, :]
    chain_d = np.sqrt((diff**2).sum(axis=2))
    assert dfs_preorder_seed(chain_d).order == (0, 1, 2, 3, 4)
