import multiprocessing
from math import comb, factorial

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from somborlab import enumeration
from somborlab.enumeration import (
    EnumLevel,
    count_two_trees,
    enumerate_levels,
    enumerate_two_trees,
    oracle_filter_count,
)
from somborlab.families import l_graph, x_graph
from somborlab.graph6 import from_graph6, to_graph6
from somborlab.graphs import (
    CapacityError, Graph, canonical_key, canonize_rows, graph_of_key, is_two_tree,
)


def test_level_counts_smallest_orders():
    assert count_two_trees(2) == 1
    assert count_two_trees(3) == 1
    assert count_two_trees(4) == 1
    assert count_two_trees(5) == 2


def test_order_5_level_is_exactly_the_two_named_graphs():
    level = enumerate_two_trees(5)
    assert set(level.keys) == {canonical_key(x_graph(5)), canonical_key(l_graph(5))}


def test_counts_agree_with_filter_oracle():
    for n in range(2, 7):
        assert count_two_trees(n) == oracle_filter_count(n)


def _grow_every_child(graphs) -> dict:
    """Reference step: canonize every child of every parent, dedup by key."""
    grown = {}
    for g in graphs:
        n = g.order
        for u, v in g.edges():
            child = Graph.from_edges(n + 1, g.edges() + [(u, n), (v, n)])
            grown[canonical_key(child)] = child
    return grown


def test_levels_agree_with_unfiltered_enumerator():
    levels = enumerate_levels(9)
    reference = next(levels).graphs
    for level in levels:
        grown = _grow_every_child(reference)
        assert list(level.keys) == sorted(grown)
        reference = grown.values()


def test_most_children_are_dropped_before_canonizing(monkeypatch):
    parents = enumerate_two_trees(9)
    children = parents.count * (2 * 9 - 3)  # one child per parent edge
    assert children == 2040
    calls = 0
    canonize = enumeration.canonize_rows

    def counting(rows, nbrs):
        nonlocal calls
        calls += 1
        return canonize(rows, nbrs)

    monkeypatch.setattr(enumeration, "canonize_rows", counting)
    level = enumeration._next_level(parents, map(enumeration._expand_rows, parents.keys))
    assert 2 * calls < children
    assert list(level.keys) == sorted(_grow_every_child(parents.graphs))


def _expand_rows_reference(parent):
    """The expansion as it stood before children were built from the parent:
    each child built in full, and every ear of it ranked again."""
    parent_rows = graph_of_key(parent)._rows
    n = len(parent_rows)
    ears = [x for x in range(n) if parent_rows[x].bit_count() == 2]
    out = []
    for u in range(n):
        row = parent_rows[u] >> (u + 1)
        v = u + 1
        while row:
            if row & 1:
                child = list(parent_rows) + [(1 << u) | (1 << v)]
                child[u] |= 1 << n
                child[v] |= 1 << n
                top = enumeration._ear_rank(child, n)
                # u and v now have degree 3; the parent's other ears keep degree 2
                if all(enumeration._ear_rank(child, x) <= top
                       for x in ears if x != u and x != v):
                    out.append(canonize_rows(child))
            row >>= 1
            v += 1
    return out


def test_parent_built_children_pass_the_same_filter(monkeypatch):
    for level in enumerate_levels(10):
        for parent in level.keys:
            assert enumeration._expand_rows(parent) == _expand_rows_reference(parent), parent
    calls = 0
    canonize = enumeration.canonize_rows

    def counting(rows, nbrs):
        nonlocal calls
        calls += 1
        return canonize(rows, nbrs)

    monkeypatch.setattr(enumeration, "canonize_rows", counting)
    assert enumerate_two_trees(11).count == 2171
    assert calls == 3542


def _automorphism_count(g: Graph) -> int:
    h = nx.Graph(g.edges())
    return sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


def test_labeled_count_certificate():
    # sum of n!/|Aut(G)| over a level counts labeled two-trees, which number
    # C(n, 2) * (2n - 3)^(n - 4): the level is complete and free of repeats
    totals = {}
    for level in enumerate_levels(9):
        n = level.order
        if n >= 4:
            totals[n] = sum(factorial(n) // _automorphism_count(g) for g in level.graphs)
            assert totals[n] == comb(n, 2) * (2 * n - 3) ** (n - 4)
    assert list(totals.values()) == [6, 70, 1215, 27951, 799708, 27337500]


def test_named_families_present_in_levels():
    for level in enumerate_levels(8):
        n = level.order
        if n >= 4:
            assert canonical_key(x_graph(n)) in level.keys
        if n >= 5:
            assert canonical_key(l_graph(n)) in level.keys


def test_levels_are_sorted_unique_canonical():
    for level in enumerate_levels(10):
        assert list(level.keys) == sorted(set(level.keys))
        for g, key in zip(level.graphs, level.keys):
            assert is_two_tree(g)
            assert canonical_key(g) == key
            assert to_graph6(g) == key.decode()
            assert g == from_graph6(key)  # the unchecked key decoder agrees with the checked one


def test_a_level_stores_only_its_keys():
    assert list(EnumLevel._fields) == ["order", "keys"]
    level = enumerate_two_trees(6)
    assert level.count == len(level.keys) == 5
    with pytest.raises(AttributeError):
        level.graphs = ()


def test_expansion_maps_a_parent_key_to_child_keys():
    parent = enumerate_two_trees(6).keys[-1]
    assert type(parent) is bytes
    children = enumeration._expand_rows(parent)
    assert type(children) is list and children
    assert all(type(key) is bytes for key in children)
    assert set(children) <= set(enumerate_two_trees(7).keys)


def test_order_12_level_digest_at_two_workers():
    level = enumerate_two_trees(12, workers=2)
    assert level.count == 9368
    assert level.checksum() == "ac428daffe7b0c48e23f6cf81fcfa297d331cf2b2c5cad563673e2a00666b001"


@pytest.mark.slow
def test_order_13_level_digest():
    level = enumerate_two_trees(13, cap=13, workers=2)
    assert level.count == 41534
    assert level.checksum() == "6f44ec5b4276d225f4ce6161bb9532b07f26ab5a3a7525999b43e1b009d45491"


@pytest.mark.slow
def test_order_14_level_digest():
    level = enumerate_two_trees(14, cap=14, workers=2)
    assert level.count == 188942
    assert level.checksum() == "9c565a98910c876c0976396092a5816d0961176509d6f7f2b8a1d6bfeb7f7add"


def test_determinism_across_runs_and_workers():
    first = enumerate_two_trees(7)
    second = enumerate_two_trees(7)
    assert first.keys == second.keys
    assert first.checksum() == second.checksum()
    parallel = enumerate_two_trees(7, workers=2)
    assert parallel.keys == first.keys


def _count_pools(monkeypatch) -> list:
    started = []

    class CountingPool(enumeration.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)  # a pool runs on any host
    return started


def test_one_pool_per_run_and_none_with_one_worker(monkeypatch):
    started = _count_pools(monkeypatch)
    enumerate_two_trees(9, workers=2)
    assert started == [2]
    started.clear()
    enumerate_two_trees(9, workers=1)
    assert started == []


def test_pool_never_exceeds_the_cpu_count(monkeypatch):
    requested = []

    class Refused(Exception):
        pass

    class RecordingPool:
        def __init__(self, max_workers=None):
            requested.append(max_workers)
            raise Refused  # before any process is started

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    with pytest.raises(Refused):
        list(enumerate_levels(3, workers=10**6))
    assert requested == [3]


def _record_pool(monkeypatch) -> list:
    events = []

    class RecordingPool:
        """Runs each map in process, recording the order of the level it builds."""

        def __init__(self, max_workers=None):
            events.append("pool")

        def map(self, fn, parents, chunksize=1):
            parents = list(parents)
            events.append(("submit", parents[0][0] - 63 + 1))  # graph6 byte 0 is order + 63
            return [fn(parent) for parent in parents]

        def shutdown(self, wait=True, cancel_futures=False):
            events.append("shutdown")

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)  # a pool runs on any host
    return events


def test_levels_are_built_when_asked_for(monkeypatch):
    events = _record_pool(monkeypatch)
    keys = []
    for level in enumerate_levels(7, workers=2):
        events.append(("yield", level.order))
        keys.append(level.keys)
    # level n goes to the pool only after level n - 1 has been yielded
    assert events == ["pool", *[event for n in range(3, 8)
                                for event in (("yield", n - 1), ("submit", n))],
                      ("yield", 7), "shutdown"]
    assert keys == [level.keys for level in enumerate_levels(7)]


def test_a_closed_pooled_run_submitted_only_the_levels_it_yielded(monkeypatch):
    events = _record_pool(monkeypatch)
    levels = enumerate_levels(9, workers=2)
    for level in levels:
        events.append(("yield", level.order))
        if level.order == 4:
            break
    levels.close()
    # levels 2..4 taken: the expansions of levels 3 and 4, and nothing past them
    kinds = [event[0] for event in events if isinstance(event, tuple)]
    assert kinds.count("submit") == kinds.count("yield") - 1
    assert events[-2:] == [("yield", 4), "shutdown"]


def test_abandoned_pooled_run_leaves_no_workers():
    levels = enumerate_levels(9, workers=2)
    for level in levels:
        if level.order == 7:
            break
    levels.close()
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_in_process_at_any_worker_count(monkeypatch):
    events = _record_pool(monkeypatch)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 1)
    keys = [level.keys for level in enumerate_levels(7, workers=4)]
    assert events == []  # no pool is built, so no process is forked
    assert keys == [level.keys for level in enumerate_levels(7)]


def test_capacity_errors():
    with pytest.raises(CapacityError, match=r"^order must be in 2..12 \(configured cap\), got 13$"):
        enumerate_two_trees(13)
    with pytest.raises(CapacityError, match=r"^order must be in 2..64, got 1$"):
        enumerate_two_trees(1)  # the floor is the graph's, not the cap's
    with pytest.raises(CapacityError, match=r"^order must be in 2..64, got 65$"):
        next(enumerate_levels(65, cap=100))  # refused before order 2 is yielded
    with pytest.raises(CapacityError):
        oracle_filter_count(8)
    # the cap is a knob
    assert enumerate_two_trees(6, cap=6).count == 5


def test_growth_rate_sanity():
    counts = [level.count for level in enumerate_levels(9)]
    assert counts == sorted(counts)
    assert counts[-1] > 3 * counts[-2]  # levels grow roughly 4x per order
