"""Exact ranking of enumerated two-trees and verification of the four
extremal claims, plus evidence reports for the still-open extremes.

All rankings are exact: distinct two-trees can collide in double precision,
so tie sets are decided symbolically, and graph6 text and floats are
rendered only by the writers, for human consumption.  One pass over a
level's keys decodes each graph once, to its signature: the sorted degree
pairs of its edges, which fix both values.  Each signature is evaluated
once, by the one exact evaluator of :mod:`~somborlab.indices`, which takes
the coindex as the all-pairs total minus the index, and the keys are
grouped by exact value in both directions.  A ranked level is its
tie sets in rank order, each one exact value kept once with the keys that
attain it; no per-graph record is built.  Only the distinct values are
ordered, by :func:`~somborlab.radicals.sort_values`'s certified fixed-point
keys rather than pairwise exact comparisons.  The evidence reports need only the
minimum index and the maximum coindex, so they rank nothing: the first
Zagreb bound ``SO >= M1/sqrt(2)``, which depends only on the degree
sequence, rules out all but a handful of graphs per order before any is
evaluated, and one best-first search over the sequences finds both,
evaluating only the graphs it reaches.
A report holds the two extremes as witnesses and checks them against the
index bound and each reading of the coindex bound; each check keeps a float
gap for display beside its verdict, the sign of the exact gap.  A failed
claim produces a structured diagnostic and a nonzero exit through the CLI,
never a crash, and a run always completes every requested order first.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from . import formulas
from .enumeration import DEFAULT_CAP, EnumLevel, enumerate_levels, enumerate_two_trees
from .families import l_graph, linear_two_tree, x_graph
from .graphs import CanonicalKey, CapacityError, _degree_sequence, _graph6_rows, canonical_key
from .indices import _signature, _signature_values, histogram_total
from .radicals import RadicalSum, sort_values, sqrt_int

KINDS = ("so", "so-bar")
DIRECTIONS = ("max", "min")


class ClaimCheck(NamedTuple):
    claim: str
    order: int
    expected_family: str
    expected_value: RadicalSum
    observed_graph6: str
    observed_value: RadicalSum
    passed: bool
    note: str = ""


class ExtremalReport:
    """One ranked level: its tie sets in rank order, each an exact value with
    the keys attaining it, and the claims checked against them.

    Mutable: :func:`attach_claims` appends to ``claim_checks``, a fresh list
    for each report built without one.
    """

    __slots__ = ("order", "kind", "direction", "groups", "claim_checks")

    def __init__(self, order: int, kind: str, direction: str,
                 groups: list[tuple[RadicalSum, list[CanonicalKey]]],
                 claim_checks: list[ClaimCheck] | None = None):
        self.order = order
        self.kind = kind
        self.direction = direction
        self.groups = groups
        self.claim_checks = [] if claim_checks is None else claim_checks

    def __eq__(self, other: object) -> bool:
        if type(other) is not ExtremalReport:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"ExtremalReport({fields})"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claim_checks)


Groups = dict[RadicalSum, list[CanonicalKey]]


def _value_groups(level: EnumLevel) -> tuple[Groups, Groups]:
    """Keys grouped by exact index and by exact coindex, groups unordered.

    Each key is decoded once, to the sorted degree pairs of its edges, which
    fix both values: the index sums a weight per pair, and the coindex is
    the all-pairs total of the degree sequence the pairs give, minus the
    index.  The keys are grouped by those signatures, and each signature is
    evaluated once.  The normal form of a value is unique, so gathering the
    signatures of one value makes each group one exact tie set.  Level keys
    are sorted, so sorting a group lists its keys in level order.
    """
    by_signature: dict[tuple[tuple[int, int], ...], list[CanonicalKey]] = {}
    for key in level.keys:
        by_signature.setdefault(_signature(_graph6_rows(key)), []).append(key)
    so_groups: Groups = {}
    co_groups: Groups = {}
    for signature, keys in by_signature.items():
        so, co = _signature_values(signature)
        so_groups.setdefault(so, []).extend(keys)
        co_groups.setdefault(co, []).extend(keys)
    for groups in (so_groups, co_groups):
        for keys in groups.values():
            keys.sort()  # linear unless signatures were merged
    return so_groups, co_groups


def _report(n: int, kind: str, direction: str, by_value: Groups) -> ExtremalReport:
    groups = [(v, by_value[v]) for v in sort_values(by_value, reverse=direction == "max")]
    return ExtremalReport(n, kind, direction, groups)


Extreme = tuple[RadicalSum, CanonicalKey]
Degrees = tuple[int, ...]  # a degree sequence, descending


def _extremes(level: EnumLevel) -> tuple[Extreme, Extreme]:
    """Exact minimum index and maximum coindex of a level, each with its
    smallest key, evaluating only the graphs a degree bound cannot rule out.

    Since ``sqrt(a^2 + b^2) >= (a + b)/sqrt(2)`` and the edges' degree sums
    add up to the first Zagreb index ``M1 = sum d(v)^2``, every graph has
    ``SO >= M1/sqrt(2)`` and ``coSO = T - SO <= T - M1/sqrt(2)``, where ``T``
    is the all-pairs total.  Both bounds depend only on the degree
    sequence, so each key is decoded once, to its rows, and bucketed by the
    sequence :func:`~somborlab.graphs._degree_sequence` reads from them, with
    no :class:`~somborlab.graphs.Graph` built.  Both extremes are found by
    one search (:func:`_best_first`): the minimum index as the largest
    ``-SO``, under the doubled bound ``-sqrt(2)*M1``, and the maximum
    coindex under ``2T - sqrt(2)*M1``.
    The bounds are doubled to keep their coefficients integral, and every
    bound and stop test is an exact comparison.  A visited key is decoded
    again to its degree-pair signature, which is evaluated for its index and
    coindex together, as in :func:`_value_groups`.
    """
    buckets: dict[Degrees, list[CanonicalKey]] = {}
    for key in level.keys:
        buckets.setdefault(_degree_sequence(_graph6_rows(key)), []).append(key)
    root2 = sqrt_int(2)
    # sqrt(2)*M1 per degree sequence
    zagreb = {degrees: root2 * sum(d * d for d in degrees) for degrees in buckets}

    def evaluate(key: CanonicalKey) -> tuple[RadicalSum, RadicalSum]:
        return _signature_values(_signature(_graph6_rows(key)))

    neg_so, min_key = _best_first(buckets, lambda degrees: -zagreb[degrees],
                                  lambda k: -evaluate(k)[0])
    max_co = _best_first(buckets, lambda degrees: 2 * histogram_total(degrees) - zagreb[degrees],
                         lambda k: evaluate(k)[1])
    return (-neg_so, min_key), max_co


def _best_first(
    buckets: dict[Degrees, list[CanonicalKey]],
    bound: Callable[[Degrees], RadicalSum],
    value: Callable[[CanonicalKey], RadicalSum],
) -> Extreme:
    """Largest ``value(key)`` over the buckets, with its smallest key,
    where ``bound(degrees)`` is at least twice every value in bucket ``degrees``.

    Buckets are visited by descending bound and evaluated whole, and the
    visit stops at the first bound strictly below twice the best value
    found: no graph left can reach that value, so not even a tie with a
    smaller key is lost.
    """
    by_bound: dict[RadicalSum, list[Degrees]] = {}
    for degrees in buckets:
        by_bound.setdefault(bound(degrees), []).append(degrees)
    best = best_key = None
    for limit in sort_values(by_bound, reverse=True):
        if best is not None and limit < 2 * best:
            break
        for degrees in by_bound[limit]:
            for key in buckets[degrees]:  # keys ascend only within a bucket: a tie keeps the smaller
                v = value(key)
                if best is None or v > best or (v == best and key < best_key):
                    best, best_key = v, key
    return best, best_key


def rank_by(
    n: int,
    kind: str,
    direction: str,
    level: EnumLevel | None = None,
) -> ExtremalReport:
    """Complete exact ranking of all two-trees of order ``n``."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if level is None:
        level = enumerate_two_trees(n)
    elif level.order != n:
        raise ValueError(f"level has order {level.order}, cannot rank it as order {n}")
    return _report(n, kind, direction, _value_groups(level)[KINDS.index(kind)])


def _claim(report: ExtremalReport, claim: str, position: int, expected_family: str,
           expected_key: CanonicalKey, expected_value: RadicalSum) -> ClaimCheck:
    """Check that tie set ``position`` is exactly one expected graph with the
    expected exact value."""
    n = report.order
    if position >= len(report.groups):
        return ClaimCheck(claim, n, expected_family, expected_value, "", RadicalSum.zero(),
                          False, f"ranking has only {len(report.groups)} tie sets")
    value, keys = report.groups[position]
    witness = keys[0].decode("ascii")
    problems = []
    if len(keys) != 1:
        problems.append(f"tie set of size {len(keys)}: {[key.decode('ascii') for key in keys]}")
    if keys[0] != expected_key:
        problems.append(f"witness is {witness}, expected {expected_key.decode('ascii')}")
    if value != expected_value:
        problems.append(f"value {value} != closed form {expected_value}")
    return ClaimCheck(
        claim, n, expected_family, expected_value,
        witness, value, not problems, "; ".join(problems),
    )


def attach_claims(
    so_report: ExtremalReport,
    coindex_report: ExtremalReport,
    expected_first: tuple[str, CanonicalKey] | None = None,
    expected_second: tuple[str, CanonicalKey] | None = None,
) -> None:
    """Attach the four extremal claim checks for one order.

    ``expected_first``/``expected_second`` override the (family, key)
    witnesses, which lets tests run the negative control with the two
    families deliberately swapped.
    """
    n = so_report.order
    first = expected_first or ("X", canonical_key(x_graph(n)))
    # (report, claim, tie-set position, (family, key), closed form)
    rows = [
        (so_report, "so-max", 0, first, formulas.so_x_closed),
        (coindex_report, "coindex-min", 0, first, formulas.so_bar_x_closed),
    ]
    if n >= 5:
        second = expected_second or ("L", canonical_key(l_graph(n)))
        rows += [
            (so_report, "so-second-max", 1, second, formulas.so_l_closed),
            (coindex_report, "coindex-second-min", 1, second, formulas.so_bar_l_closed),
        ]
    for report, claim, position, (family, key), closed in rows:
        report.claim_checks.append(_claim(report, claim, position, family, key, closed(n)))


def _levels(orders: Iterable[int], low: int, cap: int, workers: int) -> Iterator[EnumLevel]:
    """The enumerated levels of the requested orders, ascending, each once.

    An order below ``low`` is refused before anything is enumerated, an empty
    list enumerates nothing, and the enumerator refuses an order past ``cap``.
    """
    wanted = set(orders)
    if not wanted:
        return
    if min(wanted) < low:
        raise CapacityError(f"orders start at {low}, got {min(wanted)}")
    for level in enumerate_levels(max(wanted), cap=cap, workers=workers):
        if level.order in wanted:
            yield level


def verify_theorems(
    orders: Iterable[int],
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> list[ExtremalReport]:
    """Exhaustively check, per order: the unique index maximizer and coindex
    minimizer are the book two-tree at its closed-form value, and (order >= 5)
    the unique runners-up are the second-extremal family."""
    reports: list[ExtremalReport] = []
    for level in _levels(orders, 2, cap, workers):
        so_groups, co_groups = _value_groups(level)
        so_report = _report(level.order, "so", "max", so_groups)
        co_report = _report(level.order, "so-bar", "min", co_groups)
        attach_claims(so_report, co_report)
        reports.extend((so_report, co_report))
    return reports


class Witness(NamedTuple):
    """One observed extreme: its exact value, the smallest key attaining
    it, that graph's degree sequence and whether it is the linear two-tree."""

    value: RadicalSum
    key: CanonicalKey
    degrees: tuple[int, ...]
    is_linear: bool


class BoundCheck(NamedTuple):
    """An observed extreme against one conjectured bound.

    ``gap`` is ``observed - conjectured`` in floats, for display; ``holds``
    is the exact verdict.
    """

    conjectured: float
    gap: float
    holds: bool


class ConjectureReport(NamedTuple):
    """Observed extremes vs the conjectured bounds at one order.

    The conjectured index lower bound holds when the exact gap is >= 0, the
    conjectured coindex upper bound holds when it is <= 0 (the corrected
    coindex gap is exactly 0 from order 6 on); each :class:`BoundCheck`
    keeps its float gap next to the exact verdict.  Nothing here asserts
    the bounds; orders where they conflict with the exhaustive extremes are
    simply flagged.
    """

    order: int
    min_so: Witness
    max_coindex: Witness
    so_bound: BoundCheck
    coindex_bounds: tuple[BoundCheck, ...]  # one per formulas.READINGS, in order

    @property
    def parity_label(self) -> int:
        """1 when the order is even, 2 when odd."""
        return 1 if self.order % 2 == 0 else 2

    @property
    def same_witness(self) -> bool:
        return self.min_so.key == self.max_coindex.key


def conjecture_report(
    orders: Iterable[int],
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> list[ConjectureReport]:
    """Exhaustive minimum index / maximum coindex evidence per order.

    Each order is enumerated in full, but only the graphs whose degree
    sequence can still reach an extreme are evaluated (see
    :func:`_extremes`); the witnesses are the smallest keys attaining the
    exact extremes, the same as in a full ranking.
    """
    def check(observed: RadicalSum, conjectured: float, holds: bool) -> BoundCheck:
        return BoundCheck(conjectured, float(observed) - conjectured, holds)

    out: list[ConjectureReport] = []
    for level in _levels(orders, 5, cap, workers):
        n = level.order
        linear_key = canonical_key(linear_two_tree(n))

        def witness(value: RadicalSum, key: CanonicalKey) -> Witness:
            return Witness(value, key, _degree_sequence(_graph6_rows(key)), key == linear_key)

        (min_so, min_so_key), (max_co, max_co_key) = _extremes(level)
        out.append(ConjectureReport(
            n,
            witness(min_so, min_so_key),
            witness(max_co, max_co_key),
            check(min_so, formulas.conjectured_min_so(n),
                  min_so >= formulas.conjectured_min_so_exact(n)),
            tuple(check(max_co, formulas.conjectured_max_coindex(n, reading),
                        max_co <= formulas.conjectured_max_coindex_exact(n, reading))
                  for reading in formulas.READINGS),
        ))
    return out
