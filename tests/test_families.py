import random
import re

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
from somborlab.indices import sombor_index
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
    for n in range(2, MAX_ORDER + 1):
        assert from_recipe(TwoTreeRecipe((0,) * (n - 2))) == _x_graph_by_edges(n)


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
    for text in ("0,,1", "0,a", "0,"):
        message = f"recipe '{text}' is not a comma-separated list of integers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TwoTreeRecipe.parse(text)
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
    with pytest.raises(ValueError, match="^a two-tree has order at least 2, got 1$"):
        random_recipe(1, rng)


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


# the edge-by-edge builders the row-writing ones replaced, kept verbatim as references


def _attach_by_edges(g: Graph, u: int, v: int) -> Graph:
    """One growth step: a new vertex adjacent to both endpoints of edge ``uv``."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge; a two-tree step needs one")
    child = Graph(g.order + 1)
    for a, b in g.edges():
        child.add_edge(a, b)
    child.add_edge(u, g.order)
    child.add_edge(v, g.order)
    return child


def _complete_by_edges(n: int) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def _complete_bipartite_by_edges(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"both parts need at least one vertex, got ({a}, {b})")
    g = Graph(a + b)
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    return g


def _x_graph_by_edges(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"x_graph needs order >= 2, got {n}")
    g = Graph(n)
    g.add_edge(0, 1)
    for v in range(2, n):
        g.add_edge(0, v)
        g.add_edge(1, v)
    return g


def _l_graph_by_edges(n: int) -> Graph:
    if n < 5:
        raise ValueError(f"l_graph needs order >= 5, got {n}")
    return _attach_by_edges(_x_graph_by_edges(n - 1), 0, 2)


def _linear_two_tree_by_edges(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"linear_two_tree needs order >= 3, got {n}")
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    for i in range(n - 2):
        g.add_edge(i, i + 2)
    return g


def _outcome(build, *args):
    """The graph ``build(*args)`` returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


_NAMED = (
    (x_graph, _x_graph_by_edges),
    (l_graph, _l_graph_by_edges),
    (linear_two_tree, _linear_two_tree_by_edges),
    (complete, _complete_by_edges),
)


def test_named_builders_equal_their_edge_by_edge_references():
    # every order 1..64, each family's floor included, plus orders 0 and -1
    for build, reference in _NAMED:
        for n in range(-1, MAX_ORDER + 1):
            assert _outcome(build, n) == _outcome(reference, n), (build.__name__, n)


def test_two_tree_families_past_capacity_carry_the_recipe_message():
    for build in (x_graph, l_graph, linear_two_tree):
        # no tuple of 2 ** 70 steps can even be sized: refused before the steps are listed
        for n in (MAX_ORDER + 1, 2 ** 70):
            assert _outcome(build, n) == (CapacityError, f"recipe order must be in 2..64, got {n}")
    for n in (MAX_ORDER + 1, 2 ** 70):
        assert _outcome(complete, n) == _outcome(_complete_by_edges, n)


def test_complete_bipartite_equals_its_edge_by_edge_reference():
    for a in range(-1, 9):
        for b in range(-1, MAX_ORDER + 2 - a):  # a + b = 65 is refused
            assert _outcome(complete_bipartite, a, b) == _outcome(_complete_bipartite_by_edges, a, b)


def test_attach_equals_its_edge_by_edge_reference():
    rng = random.Random(41)
    for n in range(2, MAX_ORDER + 1):  # order 64 grows past capacity
        g = from_recipe(random_recipe(n, rng))
        pairs = [(u, v) for u in range(-1, n + 1) for v in range(-1, n + 1)]  # out of range too
        for u, v in rng.sample(pairs, 12) + g.edges()[:4]:
            assert _outcome(attach, g, u, v) == _outcome(_attach_by_edges, g, u, v), (n, u, v)
    g = x_graph(5)
    attach(g, 0, 2)
    assert g == _x_graph_by_edges(5)  # the parent is left as it was
