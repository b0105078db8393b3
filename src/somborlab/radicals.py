"""Exact arithmetic for integer combinations of square roots.

Every value handled here has the form ``sum_s c_s * sqrt(s)`` where each
radicand ``s`` is a squarefree positive integer and each coefficient ``c_s``
is a nonzero integer of either sign; radicand 1 carries the plain integer
part.  Square roots of distinct squarefree integers are linearly independent
over the rationals, so the term map (with zero coefficients dropped) is a
unique normal form: two sums are equal as real numbers exactly when their
term maps coincide.  Strict order rests on one fixed-point integer key per
value and precision (:func:`_key`), within a certified error bound of the
scaled value.  :func:`sort_values` orders any number of distinct values
without pairwise comparisons: keys far enough apart order their values, and
only runs of keys too close to separate are keyed again at doubled
precision.  :meth:`RadicalSum.compare` takes the sign of the difference of
two keys once it exceeds their joint error bound, doubling the precision
until it does.
"""

from __future__ import annotations

import math
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


class RadicalSum:
    """Immutable sum of integer multiples of square roots, in normal form.

    Supports ``+`` and ``-`` with another :class:`RadicalSum` (or an int),
    negation, ``*`` by an int, exact rich comparisons, ``float()`` and a
    stable text rendering with radicands ascending.
    """

    __slots__ = ("_terms", "_hash")  # _hash is None until first hashed

    def __init__(self, terms: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for s, c in terms.items():
                if s < 1:
                    raise ValueError(f"radicand must be positive, got {s}")
                if c == 0:
                    continue
                if _squarefree_split(s)[0] != 1:
                    raise ValueError(f"radicand {s} is not squarefree")
                clean[s] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _unchecked(cls, terms: dict[int, int]) -> "RadicalSum":
        # internal fast path: terms already in normal form
        obj = object.__new__(cls)
        obj._terms = terms
        obj._hash = None
        return obj

    @classmethod
    def zero(cls) -> "RadicalSum":
        return cls._unchecked({})

    @classmethod
    def integer(cls, c: int) -> "RadicalSum":
        return cls._unchecked({1: c} if c else {})

    @property
    def terms(self) -> dict[int, int]:
        """Term map radicand -> coefficient (a copy; radicands squarefree)."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "RadicalSum | int") -> "RadicalSum":
        if isinstance(other, int):
            other = RadicalSum.integer(other)
        if not isinstance(other, RadicalSum):
            return NotImplemented
        merged = dict(self._terms)
        for s, c in other._terms.items():
            c += merged.get(s, 0)
            if c:
                merged[s] = c
            else:
                del merged[s]  # a cancelled term leaves the normal form
        return RadicalSum._unchecked(merged)

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum._unchecked({s: -c for s, c in self._terms.items()})

    def __sub__(self, other: "RadicalSum | int") -> "RadicalSum":
        return self + -other

    def __mul__(self, m: int) -> "RadicalSum":
        if not isinstance(m, int):
            return NotImplemented
        if m == 0:
            return RadicalSum.zero()
        return RadicalSum._unchecked({s: c * m for s, c in self._terms.items()})

    __rmul__ = __mul__

    # -- comparisons -----------------------------------------------------

    def compare(self, other: "RadicalSum") -> int:
        """Exact three-way comparison: -1, 0 or 1, the sign of ``self - other``.

        Equality falls out of the unique normal form.  For two distinct
        values the difference of their fixed-point keys (:func:`_key`) lies
        within ``E``, the sum of ``|c|`` over both term maps, of
        ``(self - other) * 2**bits``, so once it exceeds ``E`` it has the
        sign of ``self - other``.  Until then ``bits`` doubles; past
        ``_MAX_BITS`` :class:`ArithmeticError` is raised.
        """
        if not isinstance(other, RadicalSum):
            raise TypeError(f"cannot compare RadicalSum with {type(other).__name__}")
        if self._terms == other._terms:
            return 0
        error = sum(map(abs, self._terms.values())) + sum(map(abs, other._terms.values()))
        bits = _START_BITS
        while bits <= _MAX_BITS:
            est = _key(self, bits) - _key(other, bits)
            if abs(est) > error:
                return 1 if est > 0 else -1
            bits *= 2
        raise ArithmeticError(
            f"interval refinement failed to separate distinct values ({self!r} vs {other!r})"
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({1: other} if other else {})
        if not isinstance(other, RadicalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:  # computed on first use, then kept
            # a sum equal to an int must hash like it (see __eq__)
            if self._terms.keys() <= {1}:
                self._hash = hash(self._terms.get(1, 0))
            else:
                self._hash = hash(frozenset(self._terms.items()))
        return self._hash

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
        for s, c in sorted(self._terms.items()):
            total += c * math.sqrt(s)
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for s, c in sorted(self._terms.items()):
            m = abs(c)
            term = str(m) if s == 1 else f"sqrt({s})" if m == 1 else f"{m}*sqrt({s})"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        # "+ 10 + 3*sqrt(2)" -> "10 + 3*sqrt(2)"; "- 10 + ..." -> "-10 + ..."
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"RadicalSum({self._terms!r})"


def sort_values(values: Iterable[RadicalSum], reverse: bool = False) -> list[RadicalSum]:
    """Pairwise distinct values in exact ascending (or, with ``reverse``,
    descending) order.

    At ``bits`` of precision a value keys as ``est = sum c * isqrt(s * 4**bits)``
    (:func:`_key`), which lies within ``M = sum |c|`` of ``value * 2**bits``.
    With one ``M`` for the whole run (the largest), keys more than ``2*M``
    apart order their values, so the key-sorted run splits at every such gap
    into runs that are ordered relative to each other.  A run of two or more
    values is keyed again at doubled precision; past ``_MAX_BITS`` the values
    are taken to be inseparable and :class:`ArithmeticError` is raised.
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
    for s, c in value._terms.items():
        root = roots.get(s)
        if root is None:
            root = roots[s] = math.isqrt(s << 2 * bits)
        est += c * root
    return est


def _place(run: list[RadicalSum], bits: int, reverse: bool, done: list[RadicalSum]) -> None:
    # append ``run`` to ``done`` in order, certified at ``bits`` or more
    if len(run) < 2:
        done.extend(run)
        return
    if bits > _MAX_BITS:
        raise ArithmeticError(
            f"interval refinement failed to separate distinct values ({run[0]!r} vs {run[1]!r})"
        )
    keys = [_key(v, bits) for v in run]
    gap = 2 * max(sum(map(abs, v._terms.values())) for v in run)
    order = sorted(range(len(run)), key=keys.__getitem__, reverse=reverse)
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or abs(keys[order[i]] - keys[order[i - 1]]) > gap:
            _place([run[j] for j in order[start:i]], 2 * bits, reverse, done)
            start = i


def sqrt_int(k: int) -> RadicalSum:
    """Exact square root of a positive integer, as ``m*sqrt(s)`` with ``s`` squarefree."""
    if k < 1:
        raise ValueError(f"sqrt_int requires a positive integer, got {k}")
    m, s = _squarefree_split(k)
    return RadicalSum._unchecked({s: m})
