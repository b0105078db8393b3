import multiprocessing

import pytest

from somborlab import enumeration
from somborlab.enumeration import (
    count_two_trees,
    enumerate_levels,
    enumerate_two_trees,
    oracle_filter_count,
)
from somborlab.families import l_graph, x_graph
from somborlab.graphs import CapacityError, canonical_key, is_two_tree


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


def test_named_families_present_in_levels():
    for level in enumerate_levels(8):
        n = level.order
        if n >= 4:
            assert canonical_key(x_graph(n)) in level.keys
        if n >= 5:
            assert canonical_key(l_graph(n)) in level.keys


def test_levels_are_sorted_unique_canonical():
    for level in enumerate_levels(8):
        assert list(level.keys) == sorted(set(level.keys))
        for g, key in zip(level.graphs, level.keys):
            assert is_two_tree(g)
            assert canonical_key(g) == key


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
    return started


def test_one_pool_per_run_and_none_with_one_worker(monkeypatch):
    started = _count_pools(monkeypatch)
    enumerate_two_trees(9, workers=2)
    assert started == [2]
    started.clear()
    enumerate_two_trees(9, workers=1)
    assert started == []


def test_abandoned_pooled_run_leaves_no_workers():
    levels = enumerate_levels(9, workers=2)
    for level in levels:
        if level.order == 7:
            break
    levels.close()
    assert multiprocessing.active_children() == []


def test_capacity_errors():
    with pytest.raises(CapacityError):
        enumerate_two_trees(13)
    with pytest.raises(CapacityError):
        enumerate_two_trees(1)
    with pytest.raises(CapacityError):
        oracle_filter_count(8)
    # the cap is a knob
    assert enumerate_two_trees(6, cap=6).count == 5


def test_growth_rate_sanity():
    counts = [level.count for level in enumerate_levels(9)]
    assert counts == sorted(counts)
    assert counts[-1] > 3 * counts[-2]  # levels grow roughly 4x per order
