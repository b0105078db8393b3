import argparse
import itertools
import random
from collections import Counter

import networkx as nx
import pytest

from somborlab import cli, formulas, graphs
from somborlab.graphs import (
    CapacityError,
    Graph,
    are_isomorphic,
    canonical_form,
    canonical_key,
    canonize_rows,
    is_two_tree,
    _neighbor_lists,
    _stable_partition,
    _twins,
)
from somborlab.enumeration import enumerate_levels
from somborlab.radicals import sqrt_int
from somborlab.families import (
    TwoTreeRecipe, complete, from_recipe, l_graph, linear_two_tree, random_recipe, x_graph,
)
from somborlab.graph6 import from_graph6, to_graph6


# independent constructions used as oracles, never the package constructors
def _x4_by_hand() -> Graph:
    # complete bipartite on parts {0,1} / {2,3}, plus the edge 01
    return Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)])


def _l5_by_hand() -> Graph:
    # order-4 book plus one vertex glued onto a hub-leaf edge
    return Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (0, 4), (2, 4)])


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _is_connected(g: Graph) -> bool:
    seen = 1
    frontier = [0]
    rows = [list(g.neighbors(v)) for v in range(g.order)]
    while frontier:
        v = frontier.pop()
        for u in rows[v]:
            if not seen >> u & 1:
                seen |= 1 << u
                frontier.append(u)
    return seen == (1 << g.order) - 1


def test_new_graph_is_edgeless():
    g = Graph(2)
    assert g.order == 2 and g.edge_count() == 0
    assert (Graph(3) == 3) is False  # not a graph: Python falls back to identity


def test_complete_graph_degrees():
    g = Graph(5)
    for u, v in itertools.combinations(range(5), 2):
        g.add_edge(u, v)
    assert g.degree_sequence() == (4, 4, 4, 4, 4)


def test_capacity_bounds():
    with pytest.raises(CapacityError):
        Graph(65)
    with pytest.raises(CapacityError):
        Graph(0)
    assert Graph(64).order == 64


def test_add_edge_rejects_loops_and_bad_ids():
    g = Graph(3)
    with pytest.raises(ValueError):
        g.add_edge(0, 0)
    with pytest.raises(IndexError):
        g.add_edge(0, 3)
    with pytest.raises(IndexError):
        g.add_edge(-1, 1)


def test_add_edge_idempotent():
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    assert g.edge_count() == 1
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    assert g.degree_sequence() == (2, 2, 2)
    assert repr(g) == "Graph(order=3, edges=[(0, 1), (0, 2), (1, 2)])"


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(5)
    for _ in range(25):
        g = from_recipe(random_recipe(rng.randrange(4, 12), rng))
        assert sum(g.degrees()) == 2 * g.edge_count()


def test_degree_sequences_of_named_graphs():
    assert _x4_by_hand().degree_sequence() == (3, 3, 2, 2)
    assert x_graph(4).degree_sequence() == (3, 3, 2, 2)
    assert _l5_by_hand().degree_sequence() == (4, 3, 3, 2, 2)
    assert l_graph(5).degree_sequence() == (4, 3, 3, 2, 2)


def test_non_edges():
    k4 = Graph.from_edges(4, itertools.combinations(range(4), 2))
    assert k4.non_edges() == []
    x4 = _x4_by_hand()
    assert x4.non_edges() == [(2, 3)]
    assert x4.degree(2) == 2 and x4.degree(3) == 2
    l5 = _l5_by_hand()
    assert len(l5.non_edges()) == 10 - 7 == 3


def test_two_tree_recognition():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert is_two_tree(k3)
    assert not is_two_tree(_cycle(5))  # wrong edge count
    for n in range(4, 11):
        assert is_two_tree(x_graph(n))
    assert is_two_tree(Graph.from_edges(2, [(0, 1)]))
    assert not is_two_tree(Graph(2))
    assert not is_two_tree(Graph(1))


def test_two_tree_rejects_right_edge_count_non_two_trees():
    # K_4 plus a pendant vertex: 7 edges on 5 vertices but no degree-2 vertex
    pendant = Graph.from_edges(5, list(itertools.combinations(range(4), 2)) + [(3, 4)])
    assert pendant.edge_count() == 2 * 5 - 3
    assert not is_two_tree(pendant)
    # C_5 plus chords 02 and 13: the only degree-2 vertex has non-adjacent neighbors
    chorded = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
    assert chorded.edge_count() == 2 * 5 - 3
    assert not is_two_tree(chorded)


def test_two_tree_recipe_graphs_always_recognized():
    rng = random.Random(11)
    for _ in range(100):
        g = from_recipe(random_recipe(rng.randrange(2, 15), rng))
        assert is_two_tree(g)


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(3)
    for g in [x_graph(6), l_graph(6), linear_two_tree(8),
              from_recipe(random_recipe(9, rng)), _cycle(6)]:
        key = canonical_key(g)
        for _ in range(100):
            perm = list(range(g.order))
            rng.shuffle(perm)
            assert canonical_key(g.relabeled(perm)) == key


def test_canonical_key_separates_non_isomorphic():
    assert canonical_key(x_graph(5)) != canonical_key(l_graph(5))
    assert canonical_key(x_graph(6)) != canonical_key(l_graph(6))


def test_k4_has_one_key_over_all_permutations():
    k4 = Graph.from_edges(4, itertools.combinations(range(4), 2))
    keys = {canonical_key(k4.relabeled(list(p))) for p in itertools.permutations(range(4))}
    assert len(keys) == 1


def test_canonical_form_is_isomorphic_and_fixed():
    g = l_graph(7)
    cf = canonical_form(g)
    assert canonical_key(cf) == canonical_key(g)
    assert cf.degree_sequence() == g.degree_sequence()
    assert canonical_form(cf) == cf


def test_canonize_rows_returns_the_key_that_decodes_to_the_canonical_form():
    rng = random.Random(5)
    for _ in range(20):
        g = from_recipe(random_recipe(rng.randrange(3, 30), rng))
        key = canonize_rows(g._rows)
        assert type(key) is bytes
        assert key == canonical_key(g)
        assert from_graph6(key) == canonical_form(g)


def test_canonical_key_matches_networkx_verdicts():
    # same-degree-sequence pairs are the interesting ones
    rng = random.Random(17)
    graphs = [from_recipe(random_recipe(8, rng)) for _ in range(30)]
    for g1, g2 in itertools.combinations(graphs, 2):
        mine = canonical_key(g1) == canonical_key(g2)
        theirs = nx.is_isomorphic(nx.Graph(g1.edges()), nx.Graph(g2.edges()))
        assert mine == theirs


def test_are_isomorphic():
    l5 = l_graph(5)
    mirrored = l5.relabeled([4, 3, 2, 1, 0])
    assert are_isomorphic(l5, mirrored)
    assert not are_isomorphic(x_graph(6), l_graph(6))
    g = linear_two_tree(7)
    assert are_isomorphic(g, g)
    assert not are_isomorphic(Graph(3), Graph(4))


def test_enumerated_two_tree_invariants_hold():
    from somborlab.enumeration import enumerate_levels

    for level in enumerate_levels(8):
        for g in level.graphs:
            n = g.order
            assert g.edge_count() == 2 * n - 3
            assert _is_connected(g)
            if n >= 3:
                assert sum(1 for d in g.degrees() if d == 2) >= 2


def test_twins_are_vertices_with_equal_neighbors_apart_from_each_other():
    k3 = complete(3)._rows
    assert all(_twins(k3, u, v) for u, v in itertools.combinations(range(3), 2))
    for n in range(5, 10):
        x = x_graph(n)._rows
        assert _twins(x, 0, 1)  # the hubs: true twins, adjacent
        assert all(_twins(x, 2, v) for v in range(3, n))  # the leaves: false twins
        assert not _twins(x, 0, 2)
        assert not _twins(linear_two_tree(n)._rows, 0, n - 1)  # the two ends


def test_twin_shortcut_matches_open_or_closed_neighborhoods_on_every_child():
    # the reference: every vertex of a class has one open, or one closed, neighborhood
    def reference(rows, cell):
        f = cell[0]
        return (all(rows[u] == rows[f] for u in cell)
                or all(rows[u] | 1 << u == rows[f] | 1 << f for u in cell))

    seen = set()  # (twin class?, adjacent?) of the classes with two or more vertices
    for level in enumerate_levels(8):
        for g in level.graphs:
            for u, v in g.edges():
                rows = g._rows + [1 << u | 1 << v]
                rows[u] |= 1 << g.order
                rows[v] |= 1 << g.order
                for cell in _stable_partition(_neighbor_lists(rows)):
                    twins = all(_twins(rows, cell[0], w) for w in cell[1:])
                    assert twins == reference(rows, cell), (rows, cell)
                    if len(cell) > 1:
                        seen.add((twins, bool(rows[cell[0]] >> cell[1] & 1)))
    assert {(True, True), (True, False), (False, False)} <= seen


def _is_two_tree_by_rescan(g: Graph) -> bool:
    # the quadratic recognizer the peel replaced, kept verbatim as the reference
    n = g.order
    if n < 2:
        return False
    if g.edge_count() != 2 * n - 3:
        return False
    rows = g._rows
    alive = (1 << n) - 1
    remaining = n
    while remaining > 2:
        for v in range(n):
            if not alive >> v & 1:
                continue
            nb = rows[v] & alive & ~(1 << v)
            if nb.bit_count() != 2:
                continue
            a = (nb & -nb).bit_length() - 1
            b = nb.bit_length() - 1
            if rows[a] >> b & 1:
                alive &= ~(1 << v)
                remaining -= 1
                break
        else:
            return False
    a = (alive & -alive).bit_length() - 1
    b = alive.bit_length() - 1
    return bool(rows[a] >> b & 1)


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return g.relabeled(perm)


def _recognition_cases():
    rng = random.Random(19)
    for level in enumerate_levels(9):
        yield from level.graphs
    for n in range(2, 65):
        yield _shuffled(from_recipe(random_recipe(n, rng)), rng)
    for n in range(2, 41):
        m = 2 * n - 3
        pairs = list(itertools.combinations(range(n), 2))
        yield Graph.from_edges(n, rng.sample(pairs, m))
        # every edge inside a random subset: the other vertices are isolated
        for size in range(3, n):
            inner = list(itertools.combinations(rng.sample(range(n), size), 2))
            if len(inner) >= m:
                yield Graph.from_edges(n, rng.sample(inner, m))
                break
        # no edge between two random halves: disconnected
        half = set(rng.sample(range(n), n // 2))
        apart = [(u, v) for u, v in pairs if (u in half) == (v in half)]
        if len(apart) >= m:
            yield Graph.from_edges(n, rng.sample(apart, m))
        # each new vertex joined to two earlier ones, adjacent or not: 2n - 3
        # edges and a full peel of degree-2 vertices, but not always of ears
        if n >= 3:
            edges = [(0, 1)] + [(u, w) for w in range(2, n) for u in rng.sample(range(w), 2)]
            yield _shuffled(Graph.from_edges(n, edges), rng)
    # near misses: a two-tree with one edge moved to a non-edge
    for n in range(4, 41):
        g = from_recipe(random_recipe(n, rng))
        edges = g.edges()
        edges.remove(rng.choice(edges))
        edges.append(rng.choice(g.non_edges()))
        yield _shuffled(Graph.from_edges(n, edges), rng)


def test_peel_agrees_with_the_quadratic_rescan():
    verdicts = Counter()
    for g in _recognition_cases():
        expected = _is_two_tree_by_rescan(g)
        assert is_two_tree(g) == expected, g
        verdicts[expected] += 1
    assert verdicts[True] > 250 and verdicts[False] > 150


def test_relabeled_equals_the_edge_by_edge_image():
    rng = random.Random(29)
    for n in range(1, 65):
        g = from_recipe(random_recipe(n, rng)) if n > 1 else Graph(1)
        perm = list(range(n))
        rng.shuffle(perm)
        expected = Graph(n)
        for u, v in g.edges():
            expected.add_edge(perm[u], perm[v])
        assert g.relabeled(perm) == expected
    with pytest.raises(ValueError, match="permutation"):
        x_graph(4).relabeled([0, 1, 2, 2])
    with pytest.raises(ValueError, match="permutation"):
        x_graph(4).relabeled([0, 1, 2])


def test_the_graph_capacity_has_one_owner(monkeypatch):
    # lowering graphs.MAX_ORDER moves every order check in the package with it
    order_21 = to_graph6(x_graph(21))  # encoded before the capacity is lowered
    rng = random.Random(5)
    monkeypatch.setattr(graphs, "MAX_ORDER", 20)
    state = rng.getstate()
    for build, arg, what in (
        (Graph, 21, "order must be in 1..20"),
        (TwoTreeRecipe, (0,) * 19, "recipe order must be in 2..20"),
        (x_graph, 21, "recipe order must be in 2..20"),
        (l_graph, 21, "recipe order must be in 2..20"),
        (linear_two_tree, 21, "recipe order must be in 2..20"),
        (lambda n: random_recipe(n, rng), 21, "recipe order must be in 2..20"),
        (complete, 21, "order must be in 1..20"),
        (formulas.so_x_closed, 21, "so_x_closed order must be in 2..20"),
        (from_graph6, order_21, "graph6 order must be in 1..20"),
    ):
        with pytest.raises(CapacityError, match=f"^{what}, got 21$"):
            build(arg)
    assert rng.getstate() == state  # no step was drawn
    with pytest.raises(argparse.ArgumentTypeError, match="^orders must be in 0..20, got 21$"):
        cli._parse_orders("21")
    # order 20 still builds
    assert Graph(20).order == 20
    assert x_graph(20) == from_graph6(to_graph6(x_graph(20)))
    assert l_graph(20).order == linear_two_tree(20).order == complete(20).order == 20
    assert random_recipe(20, rng).order == 20
    assert formulas.so_x_closed(20) == 19 * sqrt_int(2) + 36 * sqrt_int(365)
    assert cli._parse_orders("0..20") == tuple(range(21))
