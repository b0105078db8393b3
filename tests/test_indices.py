import itertools
import math
import random

import pytest

from somborlab.families import (
    TwoTreeRecipe, complete, complete_bipartite, from_recipe, l_graph, random_recipe, x_graph,
)
from somborlab.graph6 import from_graph6
from somborlab.graphs import Graph
from somborlab.indices import (
    _signature, _signature_values, edge_weight, histogram_total, sombor_coindex, sombor_index,
    total_pair_sum,
)
from somborlab.radicals import RadicalSum, sqrt_int


def test_edge_weight_normalizes():
    assert edge_weight(2, 2) == 2 * sqrt_int(2)
    assert edge_weight(2, 3) == sqrt_int(13)
    assert edge_weight(4, 2) == 2 * sqrt_int(5)
    assert edge_weight(3, 2) == edge_weight(2, 3)
    with pytest.raises(ValueError):
        edge_weight(0, 3)
    # an isolated vertex has no edge, but it pairs with every other vertex in
    # the coindex: sqrt(0 + d^2) = d, and two isolated vertices weigh 0
    one_edge = from_graph6("B_")  # one edge plus an isolated vertex
    assert sombor_index(one_edge).exact == sqrt_int(2)
    assert sombor_coindex(one_edge).exact == 2
    edgeless = from_graph6("C?")
    assert sombor_index(edgeless).exact.is_zero() and sombor_coindex(edgeless).exact.is_zero()


def test_star_with_a_hub_of_degree_64():
    # K_{1,64}: one vertex past the graph capacity, so built as rows; the
    # evaluator itself puts no bound on the degrees
    rows = [((1 << 64) - 1) << 1] + [1] * 64
    signature = _signature(rows)
    assert signature == ((1, 64),) * 64
    # the coindex is C(64, 2) leaf pairs of weight sqrt(2)
    assert _signature_values(signature) == (64 * sqrt_int(4097), 2016 * sqrt_int(2))


def test_signatures_share_one_tuple_per_degree_pair():
    book = _signature(x_graph(6)._rows)
    second = _signature(l_graph(6)._rows)
    assert set(book) & set(second) == {(2, 5)}
    for signature in (book, second):  # one object per distinct pair
        assert len({id(pair) for pair in signature}) == len(set(signature))
    assert book[0] is second[3]  # both (2, 5)


def test_triangle_index():
    assert sombor_index(complete(3)).exact == 6 * sqrt_int(2)
    assert sombor_coindex(complete(3)).exact.is_zero()


def test_book_order_4_values():
    x4 = x_graph(4)
    assert sombor_index(x4).exact == 3 * sqrt_int(2) + 4 * sqrt_int(13)
    assert sombor_coindex(x4).exact == 2 * sqrt_int(2)
    assert total_pair_sum(x4).exact == 5 * sqrt_int(2) + 4 * sqrt_int(13)


def test_order_5_second_family_values():
    # built by hand: order-4 book plus one vertex on a hub-leaf edge
    l5 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (2, 4)])
    assert sombor_index(l5).exact == RadicalSum({1: 10, 2: 3, 5: 4, 13: 2})
    assert sombor_coindex(l5).exact == RadicalSum({2: 2, 13: 2})


def test_float_shadow_agrees_with_direct_walk():
    rng = random.Random(2)
    # one edge beside an isolated vertex, an edgeless graph, and a random
    # graph on 9 of 12 vertices, so at least 3 are isolated
    sparse = [(u, v) for u, v in itertools.combinations(range(9), 2) if rng.random() < 0.4]
    graphs = [from_graph6("B_"), from_graph6("C?"), Graph.from_edges(12, sparse)]
    for n in range(2, 65):
        g = from_recipe(random_recipe(n, rng))
        perm = list(range(n))
        rng.shuffle(perm)
        graphs += [g, g.relabeled(perm)]
    for g in graphs:
        degs = g.degrees()
        direct = sum(math.hypot(degs[u], degs[v]) for u, v in g.edges())
        value = sombor_index(g)
        assert value.approx == pytest.approx(direct, rel=1e-12)
        # the index counts degree-pair codes; the edge walk is its reference
        assert value.exact == _pair_walk(g, g.edges())


def _all_pairs_brute_force(g) -> RadicalSum:
    # every vertex pair's weight summed: (0, d) weighs d and (0, 0) weighs 0
    degs = g.degrees()
    total = RadicalSum.zero()
    for u, v in itertools.combinations(range(g.order), 2):
        x, y = degs[u], degs[v]
        total += sqrt_int(x * x + y * y) if x or y else RadicalSum.zero()
    return total


def test_all_pairs_total_reads_the_degree_sequence():
    rng = random.Random(43)
    sparse = [(u, v) for u, v in itertools.combinations(range(9), 2) if rng.random() < 0.4]
    graphs = [Graph.from_edges(12, sparse), complete_bipartite(1, 63)]
    assert graphs[0].degree_sequence()[-3:] == (0, 0, 0)  # (0, 0) and (0, d) pairs
    graphs += [from_recipe(random_recipe(rng.randrange(13, 65), rng)) for _ in range(50)]
    for g in graphs:
        total = _all_pairs_brute_force(g)
        assert total_pair_sum(g).exact == total
        assert histogram_total(g.degree_sequence()) == total


def test_coindex_of_complete_graphs_is_zero():
    for n in range(2, 8):
        assert sombor_coindex(complete(n)).exact.is_zero()


def _pair_walk(g, pairs) -> RadicalSum:
    degs = g.degrees()
    return sum((edge_weight(degs[u], degs[v]) for u, v in pairs), RadicalSum.zero())


def test_partition_identity_exact():
    # coindex is total - index by construction, so check both against pair walks
    rng = random.Random(40)
    for _ in range(60):
        g = from_recipe(random_recipe(rng.randrange(2, 16), rng))
        assert sombor_coindex(g).exact == _pair_walk(g, g.non_edges())
        all_pairs = itertools.combinations(range(g.order), 2)
        assert total_pair_sum(g).exact == _pair_walk(g, all_pairs)


def test_indices_isomorphism_invariant():
    rng = random.Random(41)
    g = from_recipe(random_recipe(9, rng))
    so = sombor_index(g).exact
    so_bar = sombor_coindex(g).exact
    for _ in range(50):
        perm = list(range(g.order))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        assert sombor_index(h).exact == so
        assert sombor_coindex(h).exact == so_bar


def test_growth_step_never_decreases_index():
    rng = random.Random(42)
    for _ in range(25):
        recipe = random_recipe(rng.randrange(4, 14), rng)
        prev = None
        for cut in range(len(recipe.steps) + 1):
            g = from_recipe(TwoTreeRecipe(recipe.steps[:cut]))
            value = sombor_index(g).exact
            if prev is not None:
                assert value >= prev
            prev = value
