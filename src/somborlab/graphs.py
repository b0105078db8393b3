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
else needs to be stored.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_ORDER = 64

CanonicalKey = bytes


class CapacityError(ValueError):
    """Order outside the supported range or past a configured enumeration cap."""


class Graph:
    """Simple undirected graph on a fixed vertex set ``0..order-1``.

    Mutation (``add_edge``) is meant for construction only; enumeration and
    search treat instances as frozen values.
    """

    __slots__ = ("order", "_rows")

    def __init__(self, order: int):
        if not 1 <= order <= MAX_ORDER:
            raise CapacityError(f"order must be in 1..{MAX_ORDER}, got {order}")
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
        """Degree multiset, sorted descending."""
        return tuple(sorted(self.degrees(), reverse=True))

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_vertex(v)
        return _bits(self._rows[v])

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as pairs ``(u, v)`` with ``u < v``, lexicographic."""
        out = []
        for u in range(self.order):
            row = self._rows[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

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
        g = Graph(self.order)
        for u, v in self.edges():
            g.add_edge(perm[u], perm[v])
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and self._rows == other._rows

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edges()!r})"


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def is_two_tree(g: Graph) -> bool:
    """Recognize two-trees by reverse construction.

    True when the graph can be reduced to a single edge by repeatedly
    deleting a degree-2 vertex whose two neighbors are adjacent.  The
    lowest-indexed eligible vertex is deleted at each step; for genuine
    two-trees every degree-2 vertex is eligible and any deletion order
    succeeds, so the tie-break cannot change the verdict.
    """
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


# -- canonical labeling ----------------------------------------------------
#
# Vertices are first colored by an iterated, order-invariant refinement
# (degree, then multisets of neighbor colors, with fresh colors assigned by
# sorting signatures so isomorphic graphs color correspondingly).  The key is
# then the lexicographically smallest packed upper-triangle bitstring over
# all vertex orderings that list color classes in ascending color order.
# The search walks positions left to right; at each position only candidates
# achieving the minimal next column can lead to the minimum, interchangeable
# twins are collapsed, and whole subtrees are pruned against the best string
# found so far.


def _color_ranks(values: list) -> list[int]:
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _stable_colors(rows: list[int], n: int) -> list[int]:
    nbrs = [list(_bits(rows[v])) for v in range(n)]
    colors = _color_ranks([len(nb) for nb in nbrs])
    while True:
        color_of = colors.__getitem__
        sigs = [(c, tuple(sorted(map(color_of, nb)))) for c, nb in zip(colors, nbrs)]
        new = _color_ranks(sigs)
        if new == colors:
            return colors
        colors = new


def _canonical_columns(rows: list[int], n: int) -> list[int]:
    colors = _stable_colors(rows, n)
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


def _graph6_order_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])


def _graph6_pack(order: int, columns: list[int]) -> bytes:
    acc = 0
    nbits = 0
    for k in range(1, order):
        acc = acc << k | columns[k]
        nbits += k
    pad = -nbits % 6
    acc <<= pad
    nbits += pad
    body = bytearray()
    for shift in range(nbits - 6, -6, -6):
        body.append((acc >> shift & 63) + 63)
    return _graph6_order_bytes(order) + bytes(body)


def _graph6_order(data: bytes) -> tuple[int, int]:
    """Order and order-field length of graph6 bytes; inverts :func:`_graph6_order_bytes`."""
    if data[0] == 126:  # '~' marker: 18-bit order
        return (data[1] - 63) << 12 | (data[2] - 63) << 6 | data[3] - 63, 4
    return data[0] - 63, 1


def _graph6_rows(data: bytes) -> list[int]:
    """Rows of a well-formed graph6 string (either order field); inverts :func:`_graph6_pack`."""
    n, start = _graph6_order(data)
    body = data[start:]
    acc = 0
    for group in body:
        acc = acc << 6 | group - 63
    acc >>= 6 * len(body) - n * (n - 1) // 2
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


def _columns_of(rows: list[int], n: int) -> list[int]:
    cols = [0] * n
    for k in range(1, n):
        col = 0
        for i in range(k):
            col = col << 1 | (rows[i] >> k & 1)
        cols[k] = col
    return cols


def canonize_rows(rows: list[int]) -> CanonicalKey:
    """Canonical key of adjacency rows: the graph6 encoding of the canonical relabeling."""
    return _graph6_pack(len(rows), _canonical_columns(rows, len(rows)))


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
