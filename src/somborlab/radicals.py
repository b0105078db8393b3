"""Exact arithmetic for integer combinations of square roots.

Every value handled here has the form ``sum_s c_s * sqrt(s)`` where each
radicand ``s`` is a squarefree positive integer and each coefficient ``c_s``
is a nonzero integer of either sign; radicand 1 carries the plain integer
part.  Square roots of distinct squarefree integers are linearly independent
over the rationals, so the terms with zero coefficients dropped, kept as
one flat tuple ``(s1, c1, s2, c2, ...)`` with the radicands ascending, are a
unique normal form: two sums are equal as real numbers exactly when their
tuples coincide, so equality and hashing read the tuple itself and nothing
is cached beside it.  :func:`_flat` alone makes that tuple, from any map of
squarefree radicands to integers, so no arithmetic has to keep a cancelled
or scaled-away term out of its result.  Strict order has one rule, in
:func:`sort_values`: at each precision a value gets one fixed-point integer
key (:func:`_key`) and with it one certified interval around the scaled
value; values whose intervals are apart are in order, and only values
whose intervals overlap are keyed again at doubled precision.
:meth:`RadicalSum.compare` is a sort of two values.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable

_START_BITS = 64
_MAX_BITS = 1024


def _squarefree_split(k: int) -> tuple[int, int]:
    """Return ``(m, s)`` with ``k == m*m*s`` and ``s`` squarefree."""
    m, s, d = 1, k, 2
    while d * d <= s:
        dd = d * d
        while s % dd == 0:
            s //= dd
            m *= d
        d += 1
    return m, s


def _flat(terms: dict[int, int]) -> tuple[int, ...]:
    # the normal form of a term map: zero coefficients dropped, radicands ascending
    return tuple(chain.from_iterable(sorted([item for item in terms.items() if item[1]])))


class RadicalSum:
    """Immutable sum of integer multiples of square roots, in normal form.

    The normal form is one flat tuple ``(s1, c1, s2, c2, ...)`` with the
    radicands ascending and no zero coefficient, made by :func:`_flat` alone
    on every construction.  Equality and hashing read it directly, so no
    hash is cached.  Supports ``+`` and ``-`` with another
    :class:`RadicalSum` (or an int), negation, ``*`` by an int, exact rich
    comparisons, ``float()`` and a stable text rendering with radicands
    ascending.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        terms = terms or {}
        for s, c in terms.items():
            if type(s) is not int or type(c) is not int:  # a bool is refused too
                raise TypeError(
                    f"radicand and coefficient must be ints, got term {s!r}: {c!r}"
                )
            if s < 1:
                raise ValueError(f"radicand must be positive, got {s}")
            if c and _squarefree_split(s)[0] != 1:  # a zero term drops out unchecked
                raise ValueError(f"radicand {s} is not squarefree")
        self._terms = _flat(terms)

    @classmethod
    def _unchecked(cls, terms: dict[int, int]) -> "RadicalSum":
        # internal fast path: squarefree radicands, any coefficients, any order
        obj = object.__new__(cls)
        obj._terms = _flat(terms)
        return obj

    @classmethod
    def zero(cls) -> "RadicalSum":
        return cls._unchecked({})

    @classmethod
    def integer(cls, c: int) -> "RadicalSum":
        return cls._unchecked({1: c})

    @property
    def terms(self) -> dict[int, int]:
        """Term map radicand -> coefficient (a copy; radicands squarefree and
        ascending)."""
        it = iter(self._terms)
        return dict(zip(it, it))

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ------------------------------------------------------

    def _merge(self, other: "RadicalSum | int", sign: int) -> "RadicalSum":
        # self + sign * other, in one pass over other's terms
        if isinstance(other, int):
            other = RadicalSum.integer(other)
        if not isinstance(other, RadicalSum):
            return NotImplemented
        merged = self.terms
        it = iter(other._terms)
        for s, c in zip(it, it):
            merged[s] = merged.get(s, 0) + sign * c
        return RadicalSum._unchecked(merged)

    def __add__(self, other: "RadicalSum | int") -> "RadicalSum":
        return self._merge(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "RadicalSum | int") -> "RadicalSum":
        return self._merge(other, -1)

    def __neg__(self) -> "RadicalSum":
        return self * -1

    def __mul__(self, m: int) -> "RadicalSum":
        if not isinstance(m, int):
            return NotImplemented
        it = iter(self._terms)
        return RadicalSum._unchecked({s: c * m for s, c in zip(it, it)})

    __rmul__ = __mul__

    # -- comparisons -----------------------------------------------------

    def compare(self, other: "RadicalSum") -> int:
        """Exact three-way comparison: -1, 0 or 1, the sign of ``self - other``.

        Equality falls out of the unique normal form.  Two distinct values
        are ordered as a sort of two (:func:`sort_values`), so a single
        comparison and a sort rest on one rule and give up in one place.
        """
        if not isinstance(other, RadicalSum):
            raise TypeError(f"cannot compare RadicalSum with {type(other).__name__}")
        if self._terms == other._terms:
            return 0
        return -1 if sort_values((self, other))[0] is self else 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ((1, other) if other else ())
        if not isinstance(other, RadicalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        t = self._terms
        if not t or len(t) == 2 and t[0] == 1:  # equal to an int (see __eq__), so hashed like it
            return hash(t[1] if t else 0)
        return hash(t)

    def __lt__(self, other: "RadicalSum") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "RadicalSum") -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: "RadicalSum") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "RadicalSum") -> bool:
        return self.compare(other) >= 0

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        # summed left to right in ascending radicand order, so the bytes do
        # not depend on the Python version (from 3.12 on, sum() of floats is
        # compensated); error is bounded by (number of terms) * 1 ulp of the
        # partial sums
        total = 0.0
        it = iter(self._terms)
        for s, c in zip(it, it):
            total += c * math.sqrt(s)
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        it = iter(self._terms)
        for s, c in zip(it, it):
            m = abs(c)
            term = str(m) if s == 1 else f"sqrt({s})" if m == 1 else f"{m}*sqrt({s})"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        # "+ 10 + 3*sqrt(2)" -> "10 + 3*sqrt(2)"; "- 10 + ..." -> "-10 + ..."
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"RadicalSum({self.terms!r})"


def sort_values(values: Iterable[RadicalSum], reverse: bool = False) -> list[RadicalSum]:
    """Pairwise distinct values in exact ascending (or, with ``reverse``,
    descending) order.

    At ``bits`` of precision a value keys as ``est = sum c * isqrt(s * 4**bits)``
    (:func:`_key`), which lies within ``M = sum |c|`` of ``value * 2**bits``:
    each value has its own interval ``[est - M, est + M]``.  Taken by the low
    ends, the intervals split into groups at every value whose interval
    starts above all the intervals before it, so the groups are ordered
    relative to each other.  A group of two or more values is keyed again at
    doubled precision; past ``_MAX_BITS`` the values are taken to be
    inseparable and :class:`ArithmeticError` is raised, the only place that
    gives up on exact order.
    """
    done: list[RadicalSum] = []
    _place(list(values), _START_BITS, reverse, done)
    return done


# bits -> radicand -> isqrt(s << 2*bits); one entry per radicand and precision
# met, shared by every key since the roots depend on nothing else
_ROOTS: dict[int, dict[int, int]] = {}


def _key(value: RadicalSum, bits: int) -> int:
    """Fixed-point key ``sum c * isqrt(s << 2*bits)``, within ``sum |c|`` of
    ``value * 2**bits``."""
    roots = _ROOTS.setdefault(bits, {})
    est = 0
    it = iter(value._terms)  # zip(it, it) walks the (s, c) pairs without slicing
    for s, c in zip(it, it):
        root = roots.get(s)
        if root is None:
            root = roots[s] = math.isqrt(s << 2 * bits)
        est += c * root
    return est


def _place(run: list[RadicalSum], bits: int, reverse: bool, done: list[RadicalSum]) -> None:
    # append ``run`` to ``done`` in order, certified at ``bits`` or more.  Each
    # value (negated when ``reverse``) scaled by 2**bits lies in
    # [low, low + 2*M]; walked by ascending ``low``, a value whose ``low`` is
    # above every interval before it (``top``) is above all of their values
    if len(run) < 2:
        done.extend(run)
        return
    if bits > _MAX_BITS:
        raise ArithmeticError(
            f"interval refinement failed to separate distinct values ({run[0]!r} vs {run[1]!r})"
        )
    sign = -1 if reverse else 1
    errors = [sum(map(abs, v._terms[1::2])) for v in run]
    lows = [sign * _key(v, bits) - error for v, error in zip(run, errors)]
    group, top = [], -math.inf
    for i in sorted(range(len(run)), key=lows.__getitem__):
        if lows[i] > top:
            _place(group, 2 * bits, reverse, done)
            group = []
        group.append(run[i])
        top = max(top, lows[i] + 2 * errors[i])
    _place(group, 2 * bits, reverse, done)


def sqrt_int(k: int) -> RadicalSum:
    """Exact square root of a positive integer, as ``m*sqrt(s)`` with ``s`` squarefree."""
    if k < 1:
        raise ValueError(f"sqrt_int requires a positive integer, got {k}")
    m, s = _squarefree_split(k)
    return RadicalSum._unchecked({s: m})
