import random
from collections import Counter

import pytest

from somborlab.families import (
    TwoTreeRecipe,
    attach,
    complete,
    complete_bipartite,
    from_recipe,
    l_graph,
    linear_two_tree,
    random_recipe,
    x_graph,
)
from somborlab.graphs import (
    MAX_ORDER, CapacityError, Graph, are_isomorphic, canonical_key, is_two_tree,
)
from somborlab.indices import degree_histogram, sombor_index
from somborlab.radicals import RadicalSum


def test_complete_small():
    assert complete(1).order == 1
    assert complete(2) == Graph.from_edges(2, [(0, 1)])
    assert is_two_tree(complete(3))
    assert not is_two_tree(complete(4))  # 6 edges, not 5


def test_complete_bipartite():
    c22 = complete_bipartite(2, 2)
    assert c22.degree_sequence() == (2, 2, 2, 2)
    assert complete_bipartite(2, 3).degree_sequence() == (3, 3, 2, 2, 2)
    assert complete_bipartite(1, 1) == complete(2)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)


def test_x_graph_shapes():
    assert x_graph(2) == complete(2)
    assert are_isomorphic(x_graph(3), complete(3))
    # order 4: complete graph minus one edge
    k4_minus = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert are_isomorphic(x_graph(4), k4_minus)
    assert x_graph(5).degree_sequence() == (4, 4, 2, 2, 2)
    with pytest.raises(ValueError):
        x_graph(1)


def test_x_graph_degree_structure():
    for n in range(4, 13):
        degs = x_graph(n).degrees()
        assert sorted(degs, reverse=True)[:2] == [n - 1, n - 1]
        assert degs.count(2) == n - 2


def test_l_graph_shapes():
    assert l_graph(5).degree_sequence() == (4, 3, 3, 2, 2)
    assert is_two_tree(l_graph(6))
    assert not are_isomorphic(l_graph(6), x_graph(6))
    for n in range(5, 13):
        assert l_graph(n).degree_sequence() == tuple(
            sorted([n - 1, n - 2, 3] + [2] * (n - 3), reverse=True)
        )
    with pytest.raises(ValueError):
        l_graph(4)


def test_linear_two_tree():
    assert are_isomorphic(linear_two_tree(4), x_graph(4))
    assert are_isomorphic(linear_two_tree(5), l_graph(5))
    assert canonical_key(linear_two_tree(5)) == canonical_key(l_graph(5))
    assert sombor_index(linear_two_tree(6)).exact == RadicalSum({1: 20, 2: 4, 5: 4, 13: 2})
    for n in range(5, 12):
        degs = sorted(linear_two_tree(n).degrees())
        assert degs == sorted([2, 2, 3, 3] + [4] * (n - 4))
    with pytest.raises(ValueError):
        linear_two_tree(2)


def test_recipe_base_cases():
    assert from_recipe(TwoTreeRecipe(())) == complete(2)
    assert from_recipe(TwoTreeRecipe((0,))) == complete(3)


def test_recipe_always_base_edge_builds_book():
    for n in range(3, 12):
        assert from_recipe(TwoTreeRecipe((0,) * (n - 2))) == x_graph(n)


def test_recipe_validation():
    with pytest.raises(ValueError):
        TwoTreeRecipe((1,))  # step 1 has only edge 0 available
    with pytest.raises(ValueError):
        TwoTreeRecipe((0, 3))  # step 2 sees edges 0..2
    r = TwoTreeRecipe((0, 2, 4))
    assert r.order == 5
    assert str(r) == "0,2,4"
    assert TwoTreeRecipe.parse("0,2,4") == r
    assert TwoTreeRecipe.parse("") == TwoTreeRecipe(())
    with pytest.raises(CapacityError):
        TwoTreeRecipe((0,) * (MAX_ORDER - 1))  # order 65


def test_attach_requires_an_edge():
    g = x_graph(4)
    with pytest.raises(ValueError):
        attach(g, 2, 3)  # the one non-edge
    child = attach(g, 0, 1)
    assert child.order == 5 and is_two_tree(child)


def test_random_recipes_always_yield_two_trees():
    rng = random.Random(12345)
    for _ in range(500):
        g = from_recipe(random_recipe(rng.randrange(2, 21), rng))
        assert is_two_tree(g)


def test_random_recipe_refuses_an_order_past_capacity_before_drawing():
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(CapacityError):
        random_recipe(MAX_ORDER + 1, rng)
    assert rng.getstate() == state
    assert random_recipe(MAX_ORDER, rng).order == MAX_ORDER


def test_named_families_are_two_trees():
    for n in range(4, 21):
        assert is_two_tree(x_graph(n))
        assert is_two_tree(linear_two_tree(n))
        if n >= 5:
            assert is_two_tree(l_graph(n))
        family = (x_graph(n), l_graph(max(n, 5)), linear_two_tree(n), complete(n),
                  complete_bipartite(2, n - 2))
        for g in family:
            assert degree_histogram(g) == tuple(sorted(Counter(g.degrees()).items()))


def test_from_recipe_equals_the_edge_by_edge_replay():
    rng = random.Random(37)
    for n in range(2, MAX_ORDER + 1):
        recipe = random_recipe(n, rng)
        expected = Graph(n)
        expected.add_edge(0, 1)
        edges = [(0, 1)]
        for t, choice in enumerate(recipe.steps, start=1):
            a, b = edges[choice]
            expected.add_edge(a, t + 1)
            expected.add_edge(b, t + 1)
            edges += (a, t + 1), (b, t + 1)
        assert from_recipe(recipe) == expected
