"""The canonical labeling kernel against a frozen reference copy.

The reference below is an earlier kernel, from before the twin-class
shortcut and position masks: a refinement round that ranks ``(color, sorted
neighbor colors)`` over all vertices at once until nothing changes, and a
search that rebuilds every candidate's column bit by bit.  Keys must never
change, so the kernel has to return the same classes in the same order (the
colors, not only the partition) and the same columns on every input here.
"""

import random

import pytest

from somborlab import enumeration
from somborlab.families import from_recipe, random_recipe
from somborlab.graphs import (
    Graph, _bits, _canonical_columns, _neighbor_lists, _stable_partition,
)


# -- reference kernel, kept verbatim --------------------------------------


def _color_ranks(values: list) -> list[int]:
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _stable_colors_reference(rows: list[int], n: int) -> list[int]:
    nbrs = [list(_bits(rows[v])) for v in range(n)]
    colors = _color_ranks([len(nb) for nb in nbrs])
    while True:
        color_of = colors.__getitem__
        sigs = [(c, tuple(sorted(map(color_of, nb)))) for c, nb in zip(colors, nbrs)]
        new = _color_ranks(sigs)
        if new == colors:
            return colors
        colors = new


def _canonical_columns_reference(rows: list[int], n: int) -> list[int]:
    colors = _stable_colors_reference(rows, n)
    ncells = max(colors) + 1
    cells = [[v for v in range(n) if colors[v] == c] for c in range(ncells)]
    cell_at: list[int] = []
    for ci, cell in enumerate(cells):
        cell_at.extend([ci] * len(cell))

    best: list[int] | None = None
    version = 0
    placed: list[int] = []
    cols: list[int] = []
    used = 0

    def dfs(tight: bool) -> None:
        nonlocal best, version, used
        k = len(placed)
        if k == n:
            if best is None or cols < best:
                best = cols.copy()
                version += 1
            return
        scored = []
        for v in cells[cell_at[k]]:
            if used >> v & 1:
                continue
            rv = rows[v]
            col = 0
            for p in placed:
                col = col << 1 | (rv >> p & 1)
            scored.append((col, v))
        mincol = min(c for c, _ in scored)
        if tight and best is not None:
            if mincol > best[k]:
                return
            subtight = mincol == best[k]
        else:
            subtight = False
        # collapse twins: candidates identically wired to everything else
        reps: list[int] = []
        for c, v in scored:
            if c != mincol:
                continue
            for u in reps:
                if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
                    break
            else:
                reps.append(v)
        myversion = version
        for v in reps:
            placed.append(v)
            used |= 1 << v
            cols.append(mincol)
            # a best found under an earlier sibling passed through this very
            # column, so later siblings compare tight against it
            dfs(subtight or version != myversion)
            placed.pop()
            used &= ~(1 << v)
            cols.pop()

    dfs(False)
    assert best is not None
    return best


# -- inputs ---------------------------------------------------------------


def _rows(n: int, edges) -> list[int]:
    return Graph.from_edges(n, edges)._rows


def _complement(rows: list[int]) -> list[int]:
    full = (1 << len(rows)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(rows)]


def _colors_of(cells: list[list[int]]) -> list[int]:
    colors = [0] * sum(map(len, cells))
    for c, cell in enumerate(cells):
        for v in cell:
            colors[v] = c
    return colors


def _assert_kernel_matches(rows: list[int]) -> None:
    n = len(rows)
    nbrs = _neighbor_lists(rows)
    assert _colors_of(_stable_partition(nbrs)) == _stable_colors_reference(rows, n), rows
    assert _canonical_columns(rows, nbrs) == _canonical_columns_reference(rows, n), rows


def test_kernel_matches_reference_on_every_enumerated_child(monkeypatch):
    children = []
    canonize = enumeration.canonize_rows

    def record(rows, nbrs):
        # the parent-built neighbor lists are the ones the kernel would build
        assert nbrs == _neighbor_lists(rows), rows
        children.append(list(rows))
        return canonize(rows, nbrs)

    monkeypatch.setattr(enumeration, "canonize_rows", record)
    for _ in enumeration.enumerate_levels(10):
        pass
    assert {len(rows) for rows in children} == set(range(3, 11))
    for rows in children:
        _assert_kernel_matches(rows)


def test_kernel_matches_reference_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(2100):
        n = rng.randint(1, 14)
        p = rng.random()  # the whole density range, from empty to complete
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        _assert_kernel_matches(_rows(n, edges))


def test_partition_matches_reference_on_large_random_graphs():
    # the partition only, since the search can blow up on large symmetric
    # graphs; sparse and dense graphs need several rounds, so a refinement
    # that stops early or orders subclasses differently fails here
    rng = random.Random(1564)
    for n in range(15, 65):
        for p in (0.05, 0.15, 0.5, 0.85, 0.95):
            for _ in range(3):
                rows = _rows(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < p])
                colors = _colors_of(_stable_partition(_neighbor_lists(rows)))
                assert colors == _stable_colors_reference(rows, n), rows


def _symmetric_graphs() -> dict[str, list[int]]:
    graphs = {f"C{n}": _rows(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 21)}
    for a in range(1, 6):
        for b in range(a, 6):
            graphs[f"K{a},{b}"] = _rows(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    graphs["Petersen"] = _rows(10, outer + inner + [(i, i + 5) for i in range(5)])
    graphs["Q4"] = _rows(16, [(u, u | 1 << b) for u in range(16) for b in range(4)
                             if not u >> b & 1])
    graphs["3K3"] = _rows(9, [(3 * t + i, 3 * t + j) for t in range(3) for i in range(3)
                              for j in range(i + 1, 3)])
    return graphs


# The search does not refine after placing a vertex, so on a long cycle it
# walks a tree that grows about threefold per vertex (C16 takes seconds, C20
# minutes, in either kernel); those cycles are checked through their
# complements only.
_SLOW_CYCLES = {f"C{n}" for n in range(15, 21)}


@pytest.mark.parametrize("name", sorted(_symmetric_graphs()))
def test_kernel_matches_reference_on_symmetric_graphs_and_complements(name):
    rows = _symmetric_graphs()[name]
    if name not in _SLOW_CYCLES:
        _assert_kernel_matches(rows)
    _assert_kernel_matches(_complement(rows))


def test_kernel_matches_reference_on_relabeled_large_two_trees():
    rng = random.Random(64)
    for n in range(13, 65):
        g = from_recipe(random_recipe(n, rng))
        perm = list(range(n))
        rng.shuffle(perm)
        _assert_kernel_matches(g._rows)
        _assert_kernel_matches(g.relabeled(perm)._rows)
