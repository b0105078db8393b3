"""Exhaustive enumeration of non-isomorphic two-trees, order by order.

Levels are built breadth-first: every representative of order ``n - 1`` is
grown through each of its edges, giving a child whose new vertex ``w`` has
degree 2.  Before any canonical search, each child is ranked by a cheap
isomorphism invariant of its degree-2 vertices, the *ear rank* (the two
neighbours' degrees, larger first, then their common-neighbour count).  A
child is canonized by one :func:`~somborlab.graphs.canonize_rows` call only
when no degree-2 vertex outranks ``w``; otherwise it is dropped, and the
duplicates that remain are discarded by canonical key.  A level stores only
its sorted keys, the graph6 encodings of the canonical forms: workers decode
parents from keys and return keys, and two runs give byte-identical levels.

No isomorphism class is lost.  In a two-tree of order at least 3 every
degree-2 vertex is removable: its neighbours are adjacent and deleting it
leaves a two-tree.  Take a top-ranked degree-2 vertex ``v`` of a two-tree
``C``.  Then ``C - v`` is isomorphic to some representative ``P`` of the
previous level, and the child of ``P`` grown on the image of ``v``'s
neighbour edge is isomorphic to ``C``, with ``v`` mapped to its new vertex.
The rank is invariant, so that new vertex ranks top too and the child is
kept.  This is the invariant-only first stage of McKay's canonical
construction path (McKay, *Isomorph-free exhaustive generation*, 1998).

The filter ranks each child's degree-2 vertices on the child itself, whose
rows and neighbour lists are the parent's with the new vertex added.

Expansion, filter included, is a pure function of the parent, so one code
path serves any worker count: parents are mapped in-process when one worker
or one CPU is all there is, or through a single process pool that lives for
the whole run otherwise, and the deterministic sort-unique merge keeps the
output independent of the worker count.  Whatever the worker count, level
``n + 1`` is expanded only when the caller asks for it after taking level
``n``, and it is merged before it is yielded: no work is in flight while a
level is with the caller, so a caller that stops or fails early has nothing
to cancel.

A second, slower route (filter all labeled graphs with the right edge count)
cross-validates the counts at small orders.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from typing import NamedTuple

from .graphs import (
    CanonicalKey, CapacityError, Graph, _check_order, _graph6_rows, _neighbor_lists, canonical_key,
    canonize_rows, graph_of_key, is_two_tree,
)

DEFAULT_CAP = 12
ORACLE_CAP = 7


class EnumLevel(NamedTuple):
    """All two-trees of one order, as their canonical keys in sorted order."""

    order: int
    keys: tuple[CanonicalKey, ...]

    @property
    def graphs(self) -> tuple[Graph, ...]:
        """The canonical forms, decoded from the keys on every access."""
        return tuple(map(graph_of_key, self.keys))

    @property
    def count(self) -> int:
        return len(self.keys)

    def checksum(self) -> str:
        import hashlib  # here, not at the top: it maps OpenSSL, and only enumerate takes a checksum
        return hashlib.sha256(b"\n".join(self.keys)).hexdigest()


def _ear_rank(rows: list[int], x: int) -> tuple[int, int, int]:
    """Isomorphism-invariant rank of the degree-2 vertex ``x``.

    The degrees of its two neighbours, larger first, then the number of
    common neighbours they share.
    """
    nb = rows[x]
    a = (nb & -nb).bit_length() - 1
    b = nb.bit_length() - 1
    da = rows[a].bit_count()
    db = rows[b].bit_count()
    if da < db:
        da, db = db, da
    return da, db, (rows[a] & rows[b]).bit_count()


def _expand_rows(parent: CanonicalKey) -> list[CanonicalKey]:
    """Canonical keys of the parent's children whose new vertex has the top ear rank.

    The child grown on the edge ``uv`` is the parent's rows with the new
    vertex ``n`` joined to ``u`` and ``v``.  Its degree-2 vertices are ``n``
    and the parent's, less ``u`` and ``v``; each is ranked on the child, and
    the child is kept only when none outranks ``n``.  Duplicates among the
    kept are left to the caller's merge.  A kept child goes to the canonizer
    with its neighbour lists, copied from the parent's.
    """
    rows = _graph6_rows(parent)
    n = len(rows)
    nbrs = _neighbor_lists(rows)
    ears = [x for x in range(n) if len(nbrs[x]) == 2]
    new = 1 << n
    out = []
    for u in range(n):
        for v in nbrs[u]:
            if v < u:
                continue
            child = rows.copy()
            child[u] |= new
            child[v] |= new
            child.append(1 << u | 1 << v)
            top = _ear_rank(child, n)
            for x in ears:
                if x != u and x != v and _ear_rank(child, x) > top:
                    break
            else:
                child_nbrs = nbrs.copy()
                child_nbrs[u] = nbrs[u] + [n]
                child_nbrs[v] = nbrs[v] + [n]
                child_nbrs.append([u, v])
                out.append(canonize_rows(child, child_nbrs))
    return out


def _next_level(level: EnumLevel, children) -> EnumLevel:
    """The level after ``level``, merged from ``children``, the parents' expansions."""
    keys = sorted({key for batch in children for key in batch})
    return EnumLevel(level.order + 1, tuple(keys))


def _base_level() -> EnumLevel:
    return EnumLevel(2, (canonical_key(Graph._from_rows([0b10, 0b01])),))


def enumerate_levels(max_order: int, cap: int = DEFAULT_CAP, workers: int = 1):
    """Yield :class:`EnumLevel` for orders 2..max_order."""
    _check_order(max_order, 2, "order")
    if max_order > cap:
        raise CapacityError(f"order must be in 2..{cap} (configured cap), got {max_order}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    level = _base_level()
    # a pool forks all its processes at the first submit: never more than the
    # host has CPUs, and none when only one would run
    processes = min(workers, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=processes) if processes > 1 else None
    try:
        yield level
        while level.order < max_order:
            if pool is None:
                children = map(_expand_rows, level.keys)
            else:
                chunk = max(1, level.count // (processes * 4))
                children = pool.map(_expand_rows, level.keys, chunksize=chunk)
            level = _next_level(level, children)
            yield level
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def enumerate_two_trees(n: int, cap: int = DEFAULT_CAP, workers: int = 1) -> EnumLevel:
    """All pairwise non-isomorphic two-trees of order ``n``."""
    level = None
    for level in enumerate_levels(n, cap=cap, workers=workers):
        pass
    assert level is not None and level.order == n
    return level


def count_two_trees(n: int, cap: int = DEFAULT_CAP, workers: int = 1) -> int:
    return enumerate_two_trees(n, cap=cap, workers=workers).count


def oracle_filter_count(n: int) -> int:
    """Independent count: filter every labeled graph with ``2n - 3`` edges.

    Deliberately shares no code path with the level-by-level builder beyond
    recognition and canonization; feasible only up to order 7.
    """
    if not 2 <= n <= ORACLE_CAP:
        raise CapacityError(f"filter oracle handles orders 2..{ORACLE_CAP}, got {n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = 2 * n - 3
    min_degree = 2 if n >= 3 else 1
    keys: set[CanonicalKey] = set()
    for combo in combinations(pairs, m):
        rows = [0] * n
        for u, v in combo:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if any(row.bit_count() < min_degree for row in rows):
            continue
        g = Graph._from_rows(rows)
        if is_two_tree(g):
            keys.add(canonical_key(g))
    return len(keys)
