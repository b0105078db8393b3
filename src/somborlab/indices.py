"""Exact Sombor index, Sombor coindex, and the all-pairs total.

The index sums ``sqrt(d(u)^2 + d(v)^2)`` over edges; the coindex sums the
same weight over non-adjacent pairs, with degrees always taken in the
original graph (the coindex of a two-tree is not an index of its
complement).  Each sum depends only on how many pairs have each pair of
degrees, so one evaluator computes them all: a weighted count of degree
pairs ``(a, b)`` with ``a <= b``, where ``(0, 0)`` weighs 0 and ``(0, d)``
weighs ``d``; each weight is one term ``m*sqrt(s)`` with ``s`` squarefree,
so a count of pairs scales ``m``, and a pair counted zero times drops out of
the sum.  The index counts the pairs of the edges (:func:`_signature`);
the all-pairs total counts the pairs of every vertex pair, which the degree
sequence gives, so it is computed once per sequence; and since edges and
non-edges partition the vertex pairs, the coindex is the total minus the
index.  No pair walk happens anywhere.  Signatures share their pair
tuples, one per distinct degree pair, so a ranked level holds no per-edge
tuple.  All sums are exact :class:`~somborlab.radicals.RadicalSum` values.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph
from .radicals import RadicalSum, _squarefree_split, sqrt_int


class IndexValue(NamedTuple):
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
    return sqrt_int(du * du + dv * dv)


@lru_cache(maxsize=None)
def _root(a: int, b: int) -> tuple[int, int]:
    # the weight sqrt(a^2 + b^2) of a degree pair as (m, s): m * sqrt(s), s squarefree
    return _squarefree_split(a * a + b * b)


def _weighted_total(pairs: dict[tuple[int, int], int]) -> RadicalSum:
    """Each degree pair's weight (see :func:`_signature`) times its count,
    summed.  A weight is the one term ``m*sqrt(s)`` of :func:`_root`, so a
    pair adds ``count*m`` to radicand ``s``, and a zero count (a degree held
    by one vertex pairs with itself 0 times) adds a zero term, which the
    normal form drops.  Degree 0 is an isolated vertex: ``(0, 0)`` (two of
    them) weighs 0 and is skipped, and ``(0, d)`` (one beside a vertex of
    degree ``d``) weighs ``d``."""
    terms: dict[int, int] = {}
    for (a, b), count in pairs.items():
        if b:
            m, s = _root(a, b)
            terms[s] = terms.get(s, 0) + count * m
    return RadicalSum._unchecked(terms)


def sombor_index(g: Graph) -> IndexValue:
    return IndexValue(_weighted_total(Counter(_signature(g._rows))))


# every degree pair met so far, mapped to itself: one entry per distinct pair
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


def _signature(rows: list[int]) -> tuple[tuple[int, int], ...]:
    """The sorted degree pairs of the edges of adjacency ``rows``, each pair
    ``(a, b)`` with ``a <= b``.  Each pair is the one tuple :data:`_PAIRS`
    holds for it, so all signatures share one tuple per distinct pair rather
    than holding one per edge."""
    degrees = [row.bit_count() for row in rows]
    pairs = []
    for u, row in enumerate(rows):
        du = degrees[u]
        row >>= u + 1  # the neighbors above u, shifted down by u + 1
        while row:
            low = row & -row
            dv = degrees[low.bit_length() + u]
            pair = (du, dv) if du <= dv else (dv, du)
            # interned as made, so a repeated pair's new tuple is freed at once
            pairs.append(_PAIRS.setdefault(pair, pair))
            row ^= low
    pairs.sort()
    return tuple(pairs)


def _signature_values(signature: tuple[tuple[int, int], ...]) -> tuple[RadicalSum, RadicalSum]:
    """The exact index and coindex shared by every graph without isolated
    vertices whose edge degree pairs are ``signature`` (see :func:`_signature`).

    A vertex of degree ``d`` ends ``d`` edges, so the pairs' degree ends
    also give the degree sequence, and with it the all-pairs total.
    """
    pairs = Counter(signature)
    ends: dict[int, int] = {}
    for (a, b), count in pairs.items():
        ends[a] = ends.get(a, 0) + count
        ends[b] = ends.get(b, 0) + count
    so = _weighted_total(pairs)
    degrees = tuple(d for d in sorted(ends, reverse=True) for _ in range(ends[d] // d))
    return so, histogram_total(degrees) - so


def sombor_coindex(g: Graph) -> IndexValue:
    return IndexValue(total_pair_sum(g).exact - sombor_index(g).exact)


def total_pair_sum(g: Graph) -> IndexValue:
    """Weight summed over all vertex pairs; equals index + coindex exactly."""
    return IndexValue(histogram_total(g.degree_sequence()))


@lru_cache(maxsize=None)
def histogram_total(degrees: tuple[int, ...]) -> RadicalSum:
    """Weight summed over all vertex pairs of any graph with degree sequence
    ``degrees`` (descending, as :func:`~somborlab.graphs._degree_sequence`
    gives it), from the count of each degree, once per sequence."""
    hist = sorted(Counter(degrees).items())
    pairs = {}
    for i, (a, ha) in enumerate(hist):
        pairs[a, a] = ha * (ha - 1) // 2
        for b, hb in hist[i + 1:]:
            pairs[a, b] = ha * hb
    return _weighted_total(pairs)
