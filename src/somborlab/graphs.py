"""Bitset-backed simple graphs, two-tree recognition and canonical labeling.

A graph stores one neighbor bitmask per vertex, which keeps degree, common
neighbor and adjacency queries down to integer bit operations at the orders
this package targets (capacity 64, enumeration typically runs at order 12 or
below).  Graphs and canonical keys are plain values: once built they are
treated as immutable and may be shared freely across worker processes.

The canonical key of a graph is the graph6 encoding of a canonically
relabeled copy, so equal keys mean isomorphic graphs and every key is itself
a valid, printable graph6 string.  Decoding a key (:func:`graph_of_key`)
gives the canonical form, so a key alone stands for its graph and nothing
else needs to be stored.  The codec (:func:`_graph6_pack`,
:func:`_graph6_rows`) holds the upper triangle as one integer and leaves the
6-bit groups to :mod:`binascii`: graph6 and base64 both write one character
per sextet, so base64 text with its alphabet translated onto ``?``..``~`` is
the graph6 body.
"""

from __future__ import annotations

import binascii
from typing import Iterable, Iterator

MAX_ORDER = 64

CanonicalKey = bytes


class CapacityError(ValueError):
    """Order outside the supported range or past a configured enumeration cap."""


def _check_order(n: int, low: int = 1, what: str = "order") -> None:
    """Refuse ``n`` outside ``low..MAX_ORDER``, the one check of the graph capacity."""
    if not low <= n <= MAX_ORDER:
        raise CapacityError(f"{what} must be in {low}..{MAX_ORDER}, got {n}")


class Graph:
    """Simple undirected graph on a fixed vertex set ``0..order-1``.

    Mutation (``add_edge``) is meant for construction only; enumeration and
    search treat instances as frozen values.
    """

    __slots__ = ("order", "_rows")

    def __init__(self, order: int):
        _check_order(order)
        self.order = order
        self._rows = [0] * order

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(order)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def _from_rows(cls, rows: list[int]) -> "Graph":
        g = cls(len(rows))
        g._rows = rows
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.order:
            raise IndexError(f"vertex {v} out of range for order {self.order}")

    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``uv``; repeated insertion is a no-op."""
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        self._check_vertex(u)
        self._check_vertex(v)
        self._rows[u] |= 1 << v
        self._rows[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._rows[v].bit_count()

    def degrees(self) -> list[int]:
        """Degree of every vertex, indexed by vertex id."""
        return [row.bit_count() for row in self._rows]

    def degree_sequence(self) -> tuple[int, ...]:
        """Degree multiset, sorted descending (:func:`_degree_sequence`)."""
        return _degree_sequence(self._rows)

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_vertex(v)
        return _bits(self._rows[v])

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as pairs ``(u, v)`` with ``u < v``, lexicographic."""
        return [(u, v) for u, row in enumerate(self._rows)
                for v in _bits(row >> (u + 1) << (u + 1))]

    def non_edges(self) -> list[tuple[int, int]]:
        """All non-adjacent pairs ``(u, v)`` with ``u < v``, lexicographic."""
        out = []
        for u in range(self.order):
            for v in range(u + 1, self.order):
                if not self._rows[u] >> v & 1:
                    out.append((u, v))
        return out

    def relabeled(self, perm: list[int]) -> "Graph":
        """Image under the vertex relabeling ``v -> perm[v]``."""
        if sorted(perm) != list(range(self.order)):
            raise ValueError("perm must be a permutation of the vertex ids")
        bit = [1 << p for p in perm]
        rows = [0] * self.order
        for u, row in enumerate(self._rows):
            image = 0
            while row:
                low = row & -row
                image |= bit[low.bit_length() - 1]
                row ^= low
            rows[perm[u]] = image
        return Graph._from_rows(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and self._rows == other._rows

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edges()!r})"


def _degree_sequence(rows: list[int]) -> tuple[int, ...]:
    """The degrees of adjacency ``rows``, sorted descending: the package's one
    degree format, read from rows without building a :class:`Graph`."""
    return tuple(sorted(map(int.bit_count, rows), reverse=True))


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def is_two_tree(g: Graph) -> bool:
    """Recognize two-trees by peeling ears.

    True when the graph has ``2n - 3`` edges and can be reduced to a single
    edge by repeatedly deleting a vertex of degree 2 whose two neighbors are
    adjacent (an ear).  A stack holds the candidates: every vertex of degree
    2 at the start, and every vertex whose degree falls to 2 as its
    neighbors are deleted, so each vertex is pushed at most once and the
    peel takes linear work.  The deletion order cannot change the verdict: a
    peel that ends at an edge reverses into a construction of the graph, and
    in a two-tree every vertex of degree 2 is an ear and deleting it leaves
    a two-tree, so no order gets stuck.
    """
    n = g.order
    if n < 2:
        return False
    if g.edge_count() != 2 * n - 3:
        return False
    rows = g._rows
    degree = [row.bit_count() for row in rows]
    stack = [v for v in range(n) if degree[v] == 2]
    alive = (1 << n) - 1
    remaining = n
    while remaining > 2 and stack:
        v = stack.pop()
        if degree[v] != 2:  # it lost a neighbor since it was pushed
            continue
        nb = rows[v] & alive
        a = (nb & -nb).bit_length() - 1
        b = nb.bit_length() - 1
        if not rows[a] >> b & 1:
            continue  # its neighbors stay apart, so it never becomes an ear
        alive ^= 1 << v
        remaining -= 1
        for u in (a, b):
            degree[u] -= 1
            if degree[u] == 2:
                stack.append(u)
    if remaining > 2:
        return False
    a = (alive & -alive).bit_length() - 1
    b = alive.bit_length() - 1
    return bool(rows[a] >> b & 1)


# -- canonical labeling ----------------------------------------------------
#
# Vertices are first partitioned by an iterated, order-invariant refinement:
# degree first, then each round splits every class by the sorted tuple of
# its vertices' neighbor classes, and the subclasses take the old class's
# slot in the class order, ordered by tuple.  Isomorphic graphs therefore
# get corresponding ordered partitions.  Each round labels every vertex by
# the index of its class and re-signs every class of two or more vertices;
# the vertices of one class share a degree, so their tuples have one length.
# Refinement stops when a round splits nothing (a discrete partition
# included) and returns the classes in order, each in ascending vertex order.
#
# The key is then the lexicographically smallest packed upper-triangle
# bitstring over all vertex orderings that list the classes in order.  Two
# vertices are twins when they have the same neighbors apart from each other
# (:func:`_twins`); swapping twins is an automorphism.  When every class is a
# set of mutual twins (each class a single vertex, in particular), any two
# such orderings differ by an automorphism, so they all give one string: the
# search below would collapse every class to one candidate and visit one
# leaf, and the columns are read off the classes in turn.  Otherwise the
# search walks positions left to right.  Each vertex keeps a position mask,
# with bit ``n - 1 - i`` set when it is adjacent to the vertex placed at
# position ``i``: a candidate's column at position ``k`` is its mask shifted
# down by ``n - k``, and placing a vertex updates only its neighbors' masks.
# At each position only candidates achieving the minimal next column can
# lead to the minimum, and twins among them are collapsed to one.  Pruning
# compares against the best string found so far: on entry to position ``k``
# the columns so far never exceed ``best[:k]`` (the parent checked them, and
# a new best can only come from the parent's own subtree, which extends
# them), so the columns with the next one appended exceed ``best`` exactly
# when they equal its prefix and the next column is larger, and that subtree
# is dropped.  A leaf that equals ``best`` ties it; one below it improves it.


def _neighbor_lists(rows: list[int]) -> list[list[int]]:
    nbrs = []
    for row in rows:
        nb = []
        while row:
            low = row & -row
            nb.append(low.bit_length() - 1)
            row ^= low
        nbrs.append(nb)
    return nbrs


def _stable_partition(nbrs: list[list[int]]) -> list[list[int]]:
    by_degree: dict[int, list[int]] = {}
    for v, nb in enumerate(nbrs):
        by_degree.setdefault(len(nb), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    label = [0] * len(nbrs)  # the index of each vertex's class
    label_of = label.__getitem__
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                label[v] = i
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            signed = sorted([(tuple(sorted(map(label_of, nbrs[v]))), v) for v in cell])
            sig0 = signed[0][0]
            part = []
            for sig, v in signed:
                if sig != sig0:
                    refined.append(part)
                    part = []
                    sig0 = sig
                part.append(v)
            refined.append(part)
        if len(refined) == len(cells):
            return cells
        cells = refined


def _twins(rows: list[int], u: int, v: int) -> bool:
    """Whether ``u`` and ``v`` have the same neighbors apart from each other."""
    return rows[u] & ~(1 << v) == rows[v] & ~(1 << u)


def _ordered_columns(nbrs: list[list[int]], order) -> list[int]:
    """graph6 columns of the graph listed in ``order``: column ``k`` has bit
    ``k - 1 - i`` set when the vertices at positions ``i < k`` and ``k`` are
    adjacent."""
    n = len(nbrs)
    top = n - 1
    at = [0] * n
    for k, v in enumerate(order):
        at[v] = k
    columns = []
    for k, v in enumerate(order):
        mask = 0
        for u in nbrs[v]:
            mask |= 1 << top - at[u]
        columns.append(mask >> n - k)
    return columns


def _canonical_columns(rows: list[int], nbrs: list[list[int]]) -> list[int]:
    cells = _stable_partition(nbrs)
    if all(_twins(rows, cell[0], v) for cell in cells for v in cell[1:]):
        # twin collapse leaves one ordering: the cells in turn
        return _ordered_columns(nbrs, [v for cell in cells for v in cell])
    n = len(rows)
    cell_at = [cell for cell in cells for _ in cell]  # the class of each position

    best: list[int] | None = None
    cols: list[int] = []  # never above best[:k] on entry to dfs(k)
    pos = [0] * n  # bit n - 1 - i set: adjacent to the vertex at position i
    used = 0

    def dfs(k: int) -> None:
        nonlocal best, used
        if k == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        shift = n - k
        cands = [v for v in cell_at[k] if not used >> v & 1]
        if len(cands) == 1:  # forced: no minimum or twins to look for
            reps = cands
            mincol = pos[cands[0]] >> shift
        else:
            scored = [(pos[v] >> shift, v) for v in cands]
            mincol = min(scored)[0]
        cols.append(mincol)
        # the cheap test first: cols > best needs the prefix equal to best's
        if best is not None and mincol > best[k] and cols > best:
            cols.pop()
            return
        if len(cands) > 1:
            reps = []
            for c, v in scored:
                if c == mincol and not any(_twins(rows, u, v) for u in reps):
                    reps.append(v)
        bit = 1 << n - 1 - k
        for v in reps:
            used |= 1 << v
            for u in nbrs[v]:
                pos[u] |= bit
            dfs(k + 1)
            for u in nbrs[v]:
                pos[u] ^= bit
            used ^= 1 << v
        cols.pop()

    dfs(0)
    assert best is not None
    return best


# graph6 writes sextet ``x`` as the byte ``x + 63``; base64 writes it as
# ``_BASE64[x]``, so binascii converts the packed bits to sextets and back in C.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)


def _graph6_order_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])


def _graph6_pack(order: int, columns: list[int]) -> bytes:
    acc = 0
    for k in range(1, order):
        acc = acc << k | columns[k]
    nbits = order * (order - 1) // 2
    groups = (nbits + 5) // 6
    nbytes = (groups + 3) // 4 * 3  # whole base64 quanta: no '=' padding
    acc <<= 8 * nbytes - nbits
    sextets = binascii.b2a_base64(acc.to_bytes(nbytes, "big"), newline=False)
    return _graph6_order_bytes(order) + sextets[:groups].translate(_FROM_BASE64)


def _graph6_order(data: bytes) -> tuple[int, int]:
    """Order and order-field length of graph6 bytes; inverts :func:`_graph6_order_bytes`."""
    if data[0] == 126:  # '~' marker: 18-bit order
        return (data[1] - 63) << 12 | (data[2] - 63) << 6 | data[3] - 63, 4
    return data[0] - 63, 1


def _graph6_rows(data: bytes) -> list[int]:
    """Rows of a well-formed graph6 string (either order field); inverts :func:`_graph6_pack`."""
    n, start = _graph6_order(data)
    body = data[start:].translate(_TO_BASE64)
    raw = binascii.a2b_base64(body + b"A" * (-len(body) % 4))  # 'A' is sextet 0
    acc = int.from_bytes(raw, "big") >> 8 * len(raw) - n * (n - 1) // 2
    rows = [0] * n
    for k in range(n - 1, 0, -1):  # the last column holds the lowest bits
        col = acc & ((1 << k) - 1)
        acc >>= k
        while col:  # bit p - 1 of column k is the pair (k - p, k)
            p = col.bit_length()
            col ^= 1 << (p - 1)
            rows[k - p] |= 1 << k
            rows[k] |= 1 << (k - p)
    return rows


def graph_of_key(data: bytes) -> Graph:
    """The graph of a canonical key or other well-formed graph6 bytes, unchecked."""
    return Graph._from_rows(_graph6_rows(data))


def canonize_rows(rows: list[int], nbrs: list[list[int]] | None = None) -> CanonicalKey:
    """Canonical key of adjacency rows: the graph6 encoding of the canonical relabeling.

    ``nbrs``, when given, are the rows' neighbor lists, as
    :func:`_neighbor_lists` builds them; the kernel only reads them, and
    they are built here when none are given.
    """
    if nbrs is None:
        nbrs = _neighbor_lists(rows)
    return _graph6_pack(len(rows), _canonical_columns(rows, nbrs))


def canonical_key(g: Graph) -> CanonicalKey:
    """Relabeling-invariant identifier: equal keys iff isomorphic graphs."""
    return canonize_rows(g._rows)


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of ``g``, decoded from its key."""
    return graph_of_key(canonical_key(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.order != h.order or g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_key(g) == canonical_key(h)
