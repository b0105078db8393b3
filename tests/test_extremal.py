import inspect
import tracemalloc

import pytest

from somborlab import extremal, formulas, indices, radicals
from somborlab.enumeration import EnumLevel, _expand_rows, enumerate_levels, enumerate_two_trees
from somborlab.extremal import (
    ConjectureReport,
    ExtremalReport,
    attach_claims,
    conjecture_report,
    rank_by,
    verify_theorems,
)
from somborlab.families import l_graph, linear_two_tree, x_graph
from somborlab.graph6 import from_graph6
from somborlab.graphs import CapacityError, _degree_sequence, _graph6_rows, canonical_key
from somborlab.radicals import RadicalSum, sqrt_int


def test_rank_order_5_index_max():
    report = rank_by(5, "so", "max")
    assert [key for _, keys in report.groups for key in keys] == [
        canonical_key(x_graph(5)),
        canonical_key(l_graph(5)),
    ]
    assert report.groups[0][0] == 4 * sqrt_int(2) + 12 * sqrt_int(5)
    assert report.groups[1][0] == RadicalSum({1: 10, 2: 3, 5: 4, 13: 2})


def test_rank_order_5_coindex_min():
    report = rank_by(5, "so-bar", "min")
    assert report.groups[0][1] == [canonical_key(x_graph(5))]
    assert report.groups[0][0] == 6 * sqrt_int(2)
    assert report.groups[1][1] == [canonical_key(l_graph(5))]
    assert report.groups[1][0] == 2 * sqrt_int(2) + 2 * sqrt_int(13)


def test_rank_order_5_index_min_is_the_second_family():
    report = rank_by(5, "so", "min")
    assert report.groups[0][1][0] == canonical_key(l_graph(5))
    assert float(report.groups[0][0]) == pytest.approx(30.39801515, abs=1e-7)


def test_rank_rejects_unknown_kind_or_direction():
    with pytest.raises(ValueError):
        rank_by(5, "zagreb", "max")
    with pytest.raises(ValueError):
        rank_by(5, "so", "sideways")


def test_rank_rejects_a_level_of_another_order():
    level = enumerate_two_trees(7)
    with pytest.raises(ValueError, match="order 7"):
        rank_by(5, "so", "max", level=level)
    assert rank_by(7, "so", "max", level=level).order == 7


def test_verify_theorems_passes_small_range():
    reports = verify_theorems(range(5, 8))
    assert len(reports) == 6  # one index and one coindex report per order
    for report in reports:
        assert report.passed, [c.note for c in report.claim_checks if not c.passed]
    claims = [c.claim for r in reports for c in r.claim_checks]
    assert claims.count("so-max") == 3
    assert claims.count("so-second-max") == 3
    assert claims.count("coindex-min") == 3
    assert claims.count("coindex-second-min") == 3


def test_verify_theorems_order_4_runs_first_claims_only():
    reports = verify_theorems([4])
    claims = [c.claim for r in reports for c in r.claim_checks]
    assert claims == ["so-max", "coindex-min"]
    assert all(c.passed for r in reports for c in r.claim_checks)


def test_extremal_values_equal_closed_forms_exactly():
    for report in verify_theorems(range(5, 9)):
        for check in report.claim_checks:
            assert check.observed_value == check.expected_value


def test_uniqueness_top_tie_sets_singletons():
    for n in range(5, 9):
        so = rank_by(n, "so", "max")
        co = rank_by(n, "so-bar", "min")
        assert len(so.groups[0][1]) == 1
        assert len(so.groups[1][1]) == 1
        assert len(co.groups[0][1]) == 1
        assert len(co.groups[1][1]) == 1
        # the index maximizer and the coindex minimizer coincide
        assert so.groups[0][1] == co.groups[0][1]


def test_second_extremal_gaps_positive():
    for n in range(5, 13):
        assert formulas.so_x_closed(n) > formulas.so_l_closed(n)
        assert formulas.so_bar_l_closed(n) > formulas.so_bar_x_closed(n)


def test_swapped_expectations_fail_with_named_mismatch():
    level = enumerate_two_trees(6)
    so_report = rank_by(6, "so", "max", level=level)
    co_report = rank_by(6, "so-bar", "min", level=level)
    attach_claims(
        so_report,
        co_report,
        expected_first=("L", canonical_key(l_graph(6))),
        expected_second=("X", canonical_key(x_graph(6))),
    )
    assert not so_report.passed and not co_report.passed
    for report in (so_report, co_report):
        for check in report.claim_checks:
            assert not check.passed
            assert "witness is" in check.note or "value" in check.note


def test_claim_against_a_ranking_too_short_fails_with_a_note():
    level = enumerate_two_trees(5)
    so_report = rank_by(5, "so", "max", level=level)
    co_report = rank_by(5, "so-bar", "min", level=level)
    so_report.groups = so_report.groups[:1]
    attach_claims(so_report, co_report)
    first, second = so_report.claim_checks
    assert first.passed
    assert second.claim == "so-second-max" and not second.passed
    assert second.note == "ranking has only 1 tie sets"
    assert second.observed_graph6 == "" and second.observed_value == RadicalSum.zero()
    assert co_report.passed


def test_claim_fails_when_its_tie_set_is_not_unique():
    level = enumerate_two_trees(6)
    so_report = rank_by(6, "so", "max", level=level)
    co_report = rank_by(6, "so-bar", "min", level=level)
    (value, top), (_, runner_up), *rest = so_report.groups
    so_report.groups = [(value, sorted(top + runner_up)), *rest]
    attach_claims(so_report, co_report)
    check = so_report.claim_checks[0]
    assert check.claim == "so-max" and not check.passed
    assert check.note.startswith("tie set of size 2")
    assert co_report.passed


def test_rank_layer_keeps_values_and_keys_only():
    assert not hasattr(extremal, "RankedEntry")
    fields = ["order", "kind", "direction", "groups", "claim_checks"]
    assert list(ExtremalReport.__slots__) == fields
    assert list(inspect.signature(ExtremalReport).parameters) == fields
    level = enumerate_two_trees(9)
    for kind in extremal.KINDS:
        for direction in extremal.DIRECTIONS:
            report = rank_by(9, kind, direction, level=level)
            for value, keys in report.groups:
                assert type(value) is RadicalSum
                assert type(keys) is list and keys == sorted(keys)
                assert all(type(key) is bytes for key in keys)
            # every level key lands in exactly one tie set
            assert sorted(key for _, keys in report.groups for key in keys) == list(level.keys)
    (report,) = conjecture_report([9])

    def leaves(name, value):  # into the witnesses, the bound checks and every tuple
        if hasattr(type(value), "_fields"):
            for field in value._fields:
                yield from leaves(f"{name}.{field}", getattr(value, field))
        elif type(value) is tuple:
            for i, item in enumerate(value):
                yield from leaves(f"{name}[{i}]", item)
        else:
            yield name, value

    names = []
    for field in ConjectureReport._fields:
        for name, value in leaves(field, getattr(report, field)):
            assert isinstance(value, (int, float, RadicalSum, bytes)), name
            names.append(name)
    witness = [".value", ".key", *(f".degrees[{i}]" for i in range(9)), ".is_linear"]
    check = [".conjectured", ".gap", ".holds"]
    assert names == ["order", *("min_so" + leaf for leaf in witness),
                     *("max_coindex" + leaf for leaf in witness), *("so_bound" + leaf for leaf in check),
                     *(f"coindex_bounds[{i}]" + leaf for i in range(2) for leaf in check)]
    assert type(report.min_so.value) is RadicalSum and report.min_so.key in level.keys
    assert type(report.max_coindex.value) is RadicalSum and report.max_coindex.key in level.keys


def test_conjecture_report_flags_order_5():
    (report,) = conjecture_report([5])
    assert report.min_so.key == canonical_key(l_graph(5))
    assert float(report.min_so.value) == pytest.approx(30.398, abs=1e-3)
    assert report.so_bound.conjectured == pytest.approx(31.913, abs=1e-3)
    assert report.so_bound.gap < 0
    assert not report.so_bound.holds
    assert report.min_so.is_linear  # order 5: the linear two-tree is that graph
    assert report.parity_label == 2


def test_conjecture_report_order_6_exhaustive():
    (report,) = conjecture_report([6])
    # exhaustive minimum over all 5 order-6 two-trees is the linear one
    linear_value = float(
        RadicalSum({1: 20, 2: 4, 5: 4, 13: 2})
    )
    assert float(report.min_so.value) == pytest.approx(linear_value, abs=1e-9)
    assert report.min_so.is_linear
    assert report.so_bound.conjectured == pytest.approx(40.398015148, abs=1e-6)
    assert report.so_bound.holds
    assert report.parity_label == 1
    assert report.same_witness


def test_conjecture_extremes_against_exact_bounds():
    # exact differences that the float gaps cannot show: from order 6 on the
    # maximum coindex attains the corrected bound with equality, and the
    # minimum index sits exactly (2n - 11)*sqrt(2) above its conjectured bound;
    # order 5 breaks both
    for report in conjecture_report(range(5, 10)):
        n = report.order
        corrected = RadicalSum({1: 10 * n - 60, 2: 2 * n * n - 26 * n + 89,
                                5: 4 * n - 20, 13: 2})
        conjectured_so = RadicalSum({1: 20, 2: 6 * n - 33, 5: 4, 13: 2})
        assert float(corrected) == pytest.approx(report.coindex_bounds[0].conjectured, abs=1e-9)
        assert float(conjectured_so) == pytest.approx(report.so_bound.conjectured, abs=1e-9)
        excess = report.max_coindex.value - corrected
        assert excess == (RadicalSum({1: 10, 2: -7}) if n == 5 else 0)  # 10 - 7*sqrt(2)
        so_gap = RadicalSum({1: -10, 2: 6}) if n == 5 else (2 * n - 11) * sqrt_int(2)
        assert report.min_so.value - conjectured_so == so_gap


def test_conjecture_report_rejects_small_orders():
    with pytest.raises(ValueError):
        conjecture_report([4])


def test_no_orders_give_no_reports_and_enumerate_nothing(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("enumerated with no order asked for")

    monkeypatch.setattr(extremal, "enumerate_levels", refused)
    assert verify_theorems([]) == []
    assert conjecture_report([]) == []


def test_both_drivers_refuse_a_low_order_before_enumerating(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("enumerated before the orders were checked")

    monkeypatch.setattr(extremal, "enumerate_levels", refused)
    with pytest.raises(CapacityError, match="^orders start at 2, got 1$"):
        verify_theorems([1, 5])
    with pytest.raises(CapacityError, match="^orders start at 5, got 4$"):
        conjecture_report([4, 6])


def test_rank_by_with_forced_rekeying_matches_default(monkeypatch):
    level = enumerate_two_trees(9)
    expected = {(kind, d): rank_by(9, kind, d, level=level) for kind in ("so", "so-bar")
                for d in ("max", "min")}
    # two bits of precision cannot separate index values, so every run is keyed again
    monkeypatch.setattr(radicals, "_START_BITS", 2)
    for (kind, direction), report in expected.items():
        coarse = rank_by(9, kind, direction, level=level)
        assert coarse.groups == report.groups
        values = [value for value, keys in report.groups for _ in keys]
        assert values == sorted(values, reverse=direction == "max")


def _degree_pair_signatures(level: EnumLevel) -> set:
    signatures = set()
    for g in level.graphs:
        degrees = g.degrees()
        signatures.add(tuple(sorted(tuple(sorted((degrees[u], degrees[v])))
                                    for u, v in g.edges())))
    return signatures


def test_one_index_evaluation_per_graph(monkeypatch):
    levels = {n: enumerate_two_trees(n) for n in range(5, 10)}
    counts = {n: level.count for n, level in levels.items()}
    decoded = []
    evaluations = []
    real_decode = extremal._graph6_rows
    real_values = extremal._signature_values

    def counted_decode(key):
        decoded.append(key)
        return real_decode(key)

    def counted_values(signature):
        evaluations.append(signature)
        return real_values(signature)

    monkeypatch.setattr(extremal, "_graph6_rows", counted_decode)
    monkeypatch.setattr(extremal, "_signature_values", counted_values)
    verify_theorems([5, 7, 9])
    # each graph is decoded once, and each distinct degree-pair signature
    # evaluated once, which at order 9 is fewer evaluations than graphs
    assert sorted(decoded) == sorted(levels[5].keys + levels[7].keys + levels[9].keys)
    signatures = {n: _degree_pair_signatures(levels[n]) for n in (5, 7, 9)}
    assert len(evaluations) == len(set(evaluations)) == sum(map(len, signatures.values()))
    assert sum(len(s) == 2 * 9 - 3 for s in evaluations) == len(signatures[9]) < counts[9]
    decoded.clear()
    evaluations.clear()
    # conjecture evaluates only what its bound cannot rule out, once per
    # visited key: 3, 2 and 4 keys at orders 6, 8 and 9
    conjecture_report([6, 8, 9])
    assert len(evaluations) == 9 < counts[6] + counts[8] + counts[9]
    # and reads every degree from rows: each key is decoded once for its
    # bucket, each visited key once more, and each order's two witnesses
    assert len(decoded) == counts[6] + counts[8] + counts[9] + 9 + 2 * 3
    assert set(decoded) == set(levels[6].keys + levels[8].keys + levels[9].keys)
    assert not hasattr(extremal, "graph_of_key")


def test_bound_verdicts_are_exact_at_equality(monkeypatch):
    # the corrected coindex bound is attained exactly from order 6, so its
    # float gap is rounding noise around 0 while the verdict must hold
    for report in conjecture_report(range(6, 10)):
        assert report.max_coindex.value == formulas.conjectured_max_coindex_exact(report.order)
        assert report.coindex_bounds[0].holds
        assert report.so_bound.holds and not report.coindex_bounds[1].holds
    # the minimum index is exactly (2n - 11)*sqrt(2) above the bound: raised by
    # that much the bound holds with equality, raised by sqrt(2) more it fails
    real = formulas.conjectured_min_so_exact
    for shift, holds in ((11, True), (10, False)):
        monkeypatch.setattr(formulas, "conjectured_min_so_exact",
                            lambda n: real(n) + (2 * n - shift) * sqrt_int(2))
        assert all(r.so_bound.holds == holds for r in conjecture_report(range(6, 10)))


def test_zagreb_bounds_hold_exactly_with_equality_only_on_equal_degree_edges():
    # SO >= M1/sqrt(2) and coSO <= T - M1/sqrt(2), doubled to stay integral;
    # order 3 (the triangle) is the one two-tree that attains them
    root2 = sqrt_int(2)
    for level in enumerate_levels(10):
        if level.order < 3:
            continue
        for g in level.graphs:
            degrees = g.degrees()
            zagreb = root2 * sum(d * d for d in degrees)
            so = indices.sombor_index(g).exact
            co = indices.sombor_coindex(g).exact
            total = indices.total_pair_sum(g).exact
            assert 2 * so >= zagreb and 2 * co <= 2 * total - zagreb
            equal_degrees = all(degrees[u] == degrees[v] for u, v in g.edges())
            assert (2 * so == zagreb) == equal_degrees == (level.order == 3)
            assert (2 * co == 2 * total - zagreb) == equal_degrees


def _phi(a: int, b: int) -> RadicalSum:
    # the most that growing an ear on an edge with end degrees a, b adds to SO
    return a + b - 2 + sqrt_int(2) + sqrt_int((a + 1) ** 2 + 4) + sqrt_int((b + 1) ** 2 + 4)


def test_descendant_bounds_hold_on_every_chain_of_kept_children():
    # for each two-tree G of order K and each descendant H of order N along a
    # chain of kept children, with d1 >= d2 the two largest degrees of G:
    #   SO(H) <= SO(G) + sum_{s<N-K} phi(d1 + s, d2 + s)
    #   2*coSO(H) >= ((N-1)(4N-6) - M1(G) - sum_{s<N-K} (2(d1 + d2 + 2s) + 6))*sqrt(2)
    root2 = sqrt_int(2)
    values = {}

    def evaluate(key):
        if key not in values:
            values[key] = indices._signature_values(indices._signature(_graph6_rows(key)))
        return values[key]

    pairs = 0
    for level in enumerate_levels(8):
        if level.order < 3:
            continue
        for key in level.keys:
            degrees = _degree_sequence(_graph6_rows(key))
            d1, d2 = degrees[:2]
            so_bound = evaluate(key)[0]
            m1 = sum(d * d for d in degrees)
            descendants = {key}
            for s, n in enumerate(range(level.order + 1, 10)):
                so_bound += _phi(d1 + s, d2 + s)
                m1 += 2 * (d1 + d2 + 2 * s) + 6
                descendants = {child for parent in descendants for child in _expand_rows(parent)}
                for child in descendants:
                    so, co = evaluate(child)
                    assert so <= so_bound
                    assert 2 * co >= ((n - 1) * (4 * n - 6) - m1) * root2
                    pairs += 1
    assert pairs == 1100


def test_extremes_equal_the_ends_of_the_full_ranking():
    for level in enumerate_levels(11):
        if level.order < 5:
            continue
        so_groups, co_groups = extremal._value_groups(level)
        min_so = radicals.sort_values(so_groups)[0]
        max_co = radicals.sort_values(co_groups)[-1]
        assert extremal._extremes(level) == (
            (min_so, so_groups[min_so][0]), (max_co, co_groups[max_co][0]))


def test_sorting_the_distinct_values_of_orders_5_to_11_keys_each_value_once(monkeypatch):
    # a rule that grouped values too coarsely would key some of them again at
    # doubled precision, which would otherwise show only as time
    bits = []
    key = radicals._key
    def counted(value, b):
        bits.append(b)
        return key(value, b)
    monkeypatch.setattr(radicals, "_key", counted)
    for level in enumerate_levels(11):
        if level.order < 5:
            continue
        for groups in extremal._value_groups(level):
            assert len(groups) >= 2
            for reverse in (False, True):
                bits.clear()
                radicals.sort_values(groups, reverse=reverse)
                assert bits == [radicals._START_BITS] * len(groups)


def test_value_groups_of_order_11_trace_under_2_mb():
    level = enumerate_two_trees(11)
    tracemalloc.start()
    try:
        so_groups, co_groups = extremal._value_groups(level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for groups in (so_groups, co_groups):
        assert sum(map(len, groups.values())) == level.count == 2171
    assert peak < 2_000_000, peak


def test_extremes_break_a_tie_by_the_smaller_key():
    # two order-7 two-trees with one degree sequence and one index value, so
    # they tie at both extremes of a level made of just them
    keys = (b"FCX\\w", b"FCYZw")
    level = EnumLevel(7, keys)
    so_groups, co_groups = extremal._value_groups(level)
    assert list(so_groups.values()) == [list(keys)] and list(co_groups.values()) == [list(keys)]
    (min_so, min_key), (max_co, max_key) = extremal._extremes(level)
    assert min_key == max_key == keys[0] == min(keys)
    assert min_so == indices.sombor_index(from_graph6(keys[1])).exact
    assert max_co == indices.sombor_coindex(from_graph6(keys[1])).exact


def test_a_group_merged_from_several_signatures_lists_its_keys_in_level_order():
    # the two 2-regular graphs of order 6 (2C3, C6) and the two 3-regular ones
    # (K3,3, the prism): nine non-edges of weight 2*sqrt(2), or six of weight
    # 3*sqrt(2), so all four share the coindex 18*sqrt(2) from two signatures
    level = EnumLevel(6, (b"EBj?", b"EFz_", b"EJaG", b"ELv_"))
    signatures = {indices._signature(from_graph6(key)._rows) for key in level.keys}
    assert len(signatures) == 2
    so_groups, co_groups = extremal._value_groups(level)
    assert co_groups == {18 * sqrt_int(2): list(level.keys)}
    assert so_groups == {
        12 * sqrt_int(2): [b"EBj?", b"EJaG"], 27 * sqrt_int(2): [b"EFz_", b"ELv_"]}


def test_best_first_visits_a_bucket_whose_bound_equals_twice_the_best():
    # the first bucket visited sets the best value; the next bound is exactly
    # twice it, and that bucket attains its bound with a smaller key, so a
    # search that stopped at a bound equal to twice the best would lose the tie
    root2 = sqrt_int(2)
    loose, attained = ((3, 4),), ((2, 5),)
    buckets = {attained: [b"A"], loose: [b"B"]}
    bounds = {loose: 3 * root2, attained: 2 * root2}
    best = extremal._best_first(buckets, bounds.__getitem__, lambda key: root2)
    assert best == (root2, b"A")


def test_extremes_evaluate_under_one_percent_of_order_11(monkeypatch):
    level = enumerate_two_trees(11)
    calls = []
    real = extremal._signature_values

    def counted(signature):
        calls.append(signature)
        return real(signature)

    monkeypatch.setattr(extremal, "_signature_values", counted)
    extremal._extremes(level)
    assert level.count == 2171
    assert 0 < len(calls) < 0.01 * level.count
