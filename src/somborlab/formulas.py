"""Closed forms for the extremal families, scalar inequality oracles, and
the conjectured bounds for the still-open extremes.

Closed forms are expanded per order into exact radical sums (radicands
normalized squarefree) so they can be compared term-by-term against values
computed straight from the graphs.  The conjectured bounds come both as the
floats that reports display and as exact sums that decide the verdicts.  The scalar inequality helpers are plain
floating-point functions: they express analytic facts about square-root
differences, not graph quantities, so double precision with a 1e-12
equality tolerance is adequate and every sweep margin is orders of
magnitude above it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .graphs import _check_order
from .radicals import RadicalSum, sqrt_int

EQUALITY_TOL = 1e-12

_SQRT2 = math.sqrt(2)
_SQRT5 = math.sqrt(5)
_SQRT13 = math.sqrt(13)


# -- closed forms ------------------------------------------------------------


def so_x_closed(n: int) -> RadicalSum:
    """Sombor index of the book two-tree: ``sqrt(2)(n-1) + 2(n-2)sqrt((n-1)^2+4)``."""
    _check_order(n, 2, "so_x_closed order")
    return (n - 1) * sqrt_int(2) + 2 * (n - 2) * sqrt_int((n - 1) ** 2 + 4)


def so_bar_x_closed(n: int) -> RadicalSum:
    """Sombor coindex of the book two-tree: ``sqrt(2)(n-2)(n-3)``."""
    _check_order(n, 2, "so_bar_x_closed order")
    return (n - 2) * (n - 3) * sqrt_int(2) if n >= 3 else RadicalSum.zero()


def so_l_closed(n: int) -> RadicalSum:
    """Sombor index of the second-extremal family (order 5 and up)."""
    _check_order(n, 5, "so_l_closed order")
    return (
        (n - 4) * sqrt_int((n - 2) ** 2 + 4)
        + (n - 3) * sqrt_int((n - 1) ** 2 + 4)
        + sqrt_int((n - 1) ** 2 + (n - 2) ** 2)
        + sqrt_int(13)
        + sqrt_int((n - 1) ** 2 + 9)
        + sqrt_int((n - 2) ** 2 + 9)
    )


def so_bar_l_closed(n: int) -> RadicalSum:
    """Sombor coindex of the second-extremal family (order 5 and up)."""
    _check_order(n, 5, "so_bar_l_closed order")
    return (
        (n - 3) * (n - 4) * sqrt_int(2)
        + sqrt_int((n - 2) ** 2 + 4)
        + (n - 4) * sqrt_int(13)
    )


# -- scalar inequality oracles ------------------------------------------------


def diag_weight_drop(x: float, y: float) -> float:
    """``sqrt(x^2+y^2) - sqrt((x-1)^2+(y-1)^2)`` for ``x, y >= 2``.

    Bounded above by ``sqrt(2)``, with equality exactly on the diagonal
    ``x == y`` (triangle inequality against the segment from the origin to
    ``(1, 1)``).
    """
    if x < 2 or y < 2:
        raise ValueError(f"diag_weight_drop needs x, y >= 2, got ({x}, {y})")
    return math.hypot(x, y) - math.hypot(x - 1, y - 1)


def shifted_sqrt_gap(x: float, y: float) -> float:
    """``sqrt(x^2+y) - sqrt((x-1)^2+y)``: increasing in x, decreasing in y."""
    if x < 2 or y < 1:
        raise ValueError(f"shifted_sqrt_gap needs x >= 2 and y >= 1, got ({x}, {y})")
    return math.sqrt(x * x + y) - math.sqrt((x - 1) * (x - 1) + y)


def shifted_sqrt_gap_diff(x: float, y: float) -> float:
    """Second difference of the shifted gap: positive and decreasing in x."""
    if x < 3:
        raise ValueError(f"shifted_sqrt_gap_diff needs x >= 3, got {x}")
    return shifted_sqrt_gap(x, y) - shifted_sqrt_gap(x - 1, y)


def coindex_step_gain(x: float, y: float) -> float:
    """``sqrt(y^2+x^2) - sqrt((y-1)^2+x^2) + sqrt(4+x^2)``: increasing in x."""
    if x <= 0 or y < 3:
        raise ValueError(f"coindex_step_gain needs x > 0 and y >= 3, got ({x}, {y})")
    return math.hypot(y, x) - math.hypot(y - 1, x) + math.hypot(2, x)


def double_gap_anchor() -> float:
    """``2*shifted_sqrt_gap(5,4) + shifted_sqrt_gap_diff(5,4)``, about 1.8725."""
    return 2 * shifted_sqrt_gap(5, 4) + shifted_sqrt_gap_diff(5, 4)


# -- sweeps -------------------------------------------------------------------


class SweepViolation(NamedTuple):
    sweep: str
    check: str
    x: float
    y: float
    lhs: float
    rhs: float


def _sweep_diag(xs: Sequence[float], ys: Sequence[float], report) -> None:
    root2 = _SQRT2
    for x in xs:
        for y in ys:
            d = diag_weight_drop(x, y)
            if x == y:
                report("diagonal-equality", abs(d - root2) <= EQUALITY_TOL, x, y, d, root2)
            else:
                report("strict-upper-bound", d < root2 - EQUALITY_TOL, x, y, d, root2)


def _sweep_gap(xs: Sequence[float], ys: Sequence[float], report) -> None:
    for y in ys:
        for x, x2 in zip(xs, xs[1:]):
            a, b = shifted_sqrt_gap(x, y), shifted_sqrt_gap(x2, y)
            report("increasing-in-x", b > a + EQUALITY_TOL, x, y, a, b)
        diffs = [(x, shifted_sqrt_gap_diff(x, y)) for x in xs if x >= 3]
        for x, d in diffs:
            report("second-diff-positive", d > EQUALITY_TOL, x, y, d, 0.0)
        for (x, d), (x2, d2) in zip(diffs, diffs[1:]):
            report("second-diff-decreasing", d2 <= d + EQUALITY_TOL, x, y, d, d2)
    for x in xs:
        for y, y2 in zip(ys, ys[1:]):
            a, b = shifted_sqrt_gap(x, y), shifted_sqrt_gap(x, y2)
            report("decreasing-in-y", b < a - EQUALITY_TOL, x, y, a, b)


def _sweep_coindex(xs: Sequence[float], ys: Sequence[float], report) -> None:
    for y in ys:
        for x, x2 in zip(xs, xs[1:]):
            a, b = coindex_step_gain(x, y), coindex_step_gain(x2, y)
            report("increasing-in-x", b > a + EQUALITY_TOL, x, y, a, b)


SWEEP_LIMIT = 200

# sweep id -> (checker, first x, first y); every grid ends at a shared limit
_SWEEPS = {
    "diag-drop-bound": (_sweep_diag, 2, 2),
    "gap-monotone": (_sweep_gap, 2, 1),
    "coindex-gain-monotone": (_sweep_coindex, 1, 3),
}
SWEEP_IDS = tuple(_SWEEPS)
_MIN_LIMIT = max(max(x_lo, y_lo) for _, x_lo, y_lo in _SWEEPS.values())
# the float checks flag no point up to here; past it rounding noise flags points
# where a lemma holds (gap-monotone's first at x = 2060), until verdicts are exact
_MAX_LIMIT = 1000


def sweep_grid(sweep_id: str, limit: int = SWEEP_LIMIT) -> tuple[range, range]:
    """The x and y grids of one sweep, from its first point up to ``limit`` (3..1000)."""
    if sweep_id not in _SWEEPS:
        raise ValueError(f"unknown sweep {sweep_id!r}; known: {SWEEP_IDS}")
    if not _MIN_LIMIT <= limit <= _MAX_LIMIT:
        raise ValueError(f"sweep limit must be in {_MIN_LIMIT}..{_MAX_LIMIT}, got {limit}")
    _, x_lo, y_lo = _SWEEPS[sweep_id]
    return range(x_lo, limit + 1), range(y_lo, limit + 1)


def lemma_sweep(
    sweep_id: str,
    limit: int = SWEEP_LIMIT,
    invert: bool = False,
) -> list[SweepViolation]:
    """Grid-check one family of inequality claims on :func:`sweep_grid` at
    ``limit``; returns the violations.

    ``invert=True`` negates every check and serves as the harness self-test:
    a sound sweep must then flag every check it performs.
    """
    xs, ys = sweep_grid(sweep_id, limit)

    violations: list[SweepViolation] = []

    def report(check: str, ok: bool, x: float, y: float, lhs: float, rhs: float) -> None:
        if ok == invert:
            name = f"inverted-{check}" if invert else check
            violations.append(SweepViolation(sweep_id, name, x, y, lhs, rhs))

    _SWEEPS[sweep_id][0](xs, ys, report)
    return violations


# -- conjectured bounds --------------------------------------------------------


READINGS = ("corrected", "literal")  # of the conjectured coindex bound


def _check_bound(n: int, name: str, reading: str = READINGS[0]) -> None:
    """The one check of a conjectured bound's order and reading."""
    if n < 5:
        raise ValueError(f"{name} is reported for orders >= 5, got {n}")
    if reading not in READINGS:
        raise ValueError(f"reading must be {' or '.join(map(repr, READINGS))}, got {reading!r}")


def conjectured_min_so(n: int) -> float:
    """Conjectured lower bound on the Sombor index over two-trees of order n.

    ``6*sqrt(2)*n + 2*sqrt(13) + 4*sqrt(5) + 20 - 33*sqrt(2)``; stated
    without a validity range, and the per-order evidence reports expose
    where it conflicts with the exhaustive minimum (it does at order 5).
    """
    _check_bound(n, "conjectured_min_so")
    return 6 * _SQRT2 * n + 2 * _SQRT13 + 4 * _SQRT5 + 20 - 33 * _SQRT2


def conjectured_max_coindex(n: int, reading: str = "corrected") -> float:
    """Conjectured upper bound on the Sombor coindex over two-trees of order n.

    The printed linear coefficient ``(10 - 26*sqrt(2)n + 4*sqrt(5))`` would
    make the whole expression cubic in n, contradicting the quadratic
    leading term, so the default reading drops the stray ``n``:
    ``(10 - 26*sqrt(2) + 4*sqrt(5)) * n``.  The literal reading stays
    available for comparison; reports carry both and assert neither.
    """
    _check_bound(n, "conjectured_max_coindex", reading)
    if reading == "literal":
        linear = 10 - 26 * _SQRT2 * n + 4 * _SQRT5
    else:
        linear = 10 - 26 * _SQRT2 + 4 * _SQRT5
    return 2 * _SQRT2 * n * n + linear * n + (89 * _SQRT2 + 2 * _SQRT13 - 20 * _SQRT5 - 60)


def conjectured_min_so_exact(n: int) -> RadicalSum:
    """:func:`conjectured_min_so` as an exact sum: ``20 + (6n-33)sqrt(2) + 4sqrt(5) + 2sqrt(13)``."""
    _check_bound(n, "conjectured_min_so")
    return RadicalSum({1: 20, 2: 6 * n - 33, 5: 4, 13: 2})


def conjectured_max_coindex_exact(n: int, reading: str = "corrected") -> RadicalSum:
    """:func:`conjectured_max_coindex` as an exact sum.

    Both readings are ``(10n-60) + a*sqrt(2) + (4n-20)sqrt(5) + 2sqrt(13)``,
    with ``a = 2n^2 - 26n + 89`` when corrected and ``a = 89 - 24n^2`` when
    literal.
    """
    _check_bound(n, "conjectured_max_coindex", reading)
    root2 = 89 - 24 * n * n if reading == "literal" else 2 * n * n - 26 * n + 89
    return RadicalSum({1: 10 * n - 60, 2: root2, 5: 4 * n - 20, 13: 2})
