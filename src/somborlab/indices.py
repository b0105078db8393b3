"""Exact Sombor index, Sombor coindex, and the all-pairs total.

The index sums ``sqrt(d(u)^2 + d(v)^2)`` over edges; the coindex sums the
same weight over non-adjacent pairs, with degrees always taken in the
original graph (the coindex of a two-tree is not an index of its
complement).  Edges and non-edges partition the vertex pairs, so the
coindex is the all-pairs total minus the index; the total needs only the
degree histogram, so it is computed once per histogram, and no pair walk
happens anywhere.  All sums are exact :class:`~somborlab.radicals.RadicalSum`
values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph
from .radicals import RadicalSum, sqrt_int


@dataclass(frozen=True)
class IndexValue:
    """An exact index value with its double-precision shadow."""

    exact: RadicalSum

    @property
    def approx(self) -> float:
        return float(self.exact)

    def __str__(self) -> str:
        return f"{self.exact} ≈ {self.approx:.10g}"


def edge_weight(du: int, dv: int) -> RadicalSum:
    """Normalized ``sqrt(du^2 + dv^2)`` for a pair of positive degrees."""
    if du < 1 or dv < 1:
        raise ValueError(f"degrees must be positive, got ({du}, {dv})")
    return _weight(du, dv) if du <= dv else _weight(dv, du)


@lru_cache(maxsize=None)
def _weight(a: int, b: int) -> RadicalSum:
    return sqrt_int(a * a + b * b)


def _weighted_total(pairs: dict[tuple[int, int], int]) -> RadicalSum:
    # pairs are keyed (da, db) with da <= db; two isolated vertices (db == 0) weigh 0
    terms: dict[int, int] = {}
    for (da, db), count in pairs.items():
        if count and db:  # a degree held by one vertex pairs with itself 0 times
            for s, c in _weight(da, db)._terms.items():
                terms[s] = terms.get(s, 0) + count * c
    return RadicalSum._unchecked(terms)


def sombor_index(g: Graph) -> IndexValue:
    return IndexValue(_index_total(g, g.degrees()))


def _index_total(g: Graph, degrees: list[int]) -> RadicalSum:
    """The index of ``g``, whose degrees by vertex id are ``degrees``."""
    pairs = Counter()
    for u, v in g.edges():
        a, b = degrees[u], degrees[v]
        pairs[(a, b) if a <= b else (b, a)] += 1
    return _weighted_total(pairs)


def sombor_coindex(g: Graph) -> IndexValue:
    return IndexValue(total_pair_sum(g).exact - sombor_index(g).exact)


def total_pair_sum(g: Graph) -> IndexValue:
    """Weight summed over all vertex pairs; equals index + coindex exactly."""
    return IndexValue(histogram_total(degree_histogram(g)))


Histogram = tuple[tuple[int, int], ...]


def degree_histogram(g: Graph) -> Histogram:
    """The ``(degree, count)`` pairs of ``g``, by ascending degree."""
    return _histogram(g.degrees())


def _histogram(degrees: list[int]) -> Histogram:
    return tuple([(d, degrees.count(d)) for d in sorted(set(degrees))])


@lru_cache(maxsize=None)
def histogram_total(hist: Histogram) -> RadicalSum:
    """Weight summed over all vertex pairs of any graph with degree histogram ``hist``."""
    pairs = {}
    for i, (a, ha) in enumerate(hist):
        pairs[(a, a)] = ha * (ha - 1) // 2
        for b, hb in hist[i + 1:]:
            pairs[(a, b)] = ha * hb
    return _weighted_total(pairs)
