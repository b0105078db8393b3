import decimal
import functools
import math
import random
import re

import pytest

from somborlab import radicals
from somborlab.radicals import RadicalSum, sort_values, sqrt_int


def _is_squarefree(k: int) -> bool:
    d = 2
    while d * d <= k:
        if k % (d * d) == 0:
            return False
        d += 1
    return True


def _decimal(value: RadicalSum) -> decimal.Decimal:
    # the value to 80 significant digits, by decimal arithmetic alone
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        return sum((c * decimal.Decimal(s).sqrt() for s, c in value.terms.items()), decimal.Decimal(0))


def _by_decimal(values: list[RadicalSum], reverse: bool = False) -> list[RadicalSum]:
    # the values in the order of their decimal expansions, which are checked
    # to sit far enough apart for 80 digits to order them
    refs = sorted((_decimal(v), i) for i, v in enumerate(values))
    assert all(b - a > decimal.Decimal("1e-70") for (a, _), (b, _) in zip(refs, refs[1:]))
    ordered = [values[i] for _, i in refs]
    return ordered[::-1] if reverse else ordered


def test_sqrt_int_factors_out_largest_square():
    assert sqrt_int(8).terms == {2: 2}
    assert sqrt_int(13).terms == {13: 1}
    assert sqrt_int(18).terms == {2: 3}
    assert sqrt_int(1).terms == {1: 1}
    assert sqrt_int(4).terms == {1: 2}
    assert sqrt_int(25).terms == {1: 5}


def test_sqrt_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        sqrt_int(0)
    with pytest.raises(ValueError):
        sqrt_int(-3)


def test_normalization_idempotent_over_square_multiples():
    squarefree = [s for s in range(1, 51) if _is_squarefree(s)]
    for s in squarefree:
        for m in range(1, 21):
            assert sqrt_int(m * m * s) == m * sqrt_int(s)


def test_addition_merges_terms():
    assert (2 * sqrt_int(2) + 3 * sqrt_int(2)).terms == {2: 5}
    assert (sqrt_int(13) + 2 * sqrt_int(5)).terms == {13: 1, 5: 2}
    a = 3 * sqrt_int(7) + RadicalSum.integer(4)
    assert a + RadicalSum.zero() == a
    assert a + 0 == a
    with pytest.raises(TypeError):
        RadicalSum.integer(1) + 1.5  # exact sums add only ints and sums


def test_scaling():
    assert (4 * sqrt_int(13)).terms == {13: 4}
    assert (0 * (2 * sqrt_int(2) + sqrt_int(5))).is_zero()
    assert (3 * (2 * sqrt_int(2) + sqrt_int(5))).terms == {2: 6, 5: 3}
    assert ((-1) * sqrt_int(2)).terms == {2: -1}
    assert (-2) * sqrt_int(2) == -(2 * sqrt_int(2))
    with pytest.raises(TypeError):
        RadicalSum.integer(1) * 1.5  # only integer multiples stay exact


def test_subtraction_cancels_to_normal_form():
    a = 3 * sqrt_int(7) + RadicalSum.integer(4)
    assert (a - a).is_zero()
    assert a - a == RadicalSum.zero() == 0
    one = (sqrt_int(2) + 1) - sqrt_int(2)
    assert one.terms == {1: 1}
    assert one == 1 and hash(one) == hash(1)
    assert (sqrt_int(2) - 3).terms == {1: -3, 2: 1}
    assert -(sqrt_int(2) - 3) == RadicalSum({1: 3, 2: -1})


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        RadicalSum({8: 1})  # not squarefree
    with pytest.raises(ValueError):
        RadicalSum({0: 1})
    assert RadicalSum({2: 0}).is_zero()
    assert RadicalSum({2: -1}).terms == {2: -1}


@pytest.mark.parametrize("terms", [{2: 0.5}, {2.0: 1}, {"2": 1}, {2: True}])
def test_constructor_rejects_terms_that_are_not_ints(terms):
    ((s, c),) = terms.items()
    with pytest.raises(TypeError, match=re.escape(f"got term {s!r}: {c!r}")):
        RadicalSum(terms)


def test_compare_equal_and_strict():
    a = 3 * sqrt_int(2) + 4 * sqrt_int(13)
    b = 3 * sqrt_int(2) + 4 * sqrt_int(13)
    assert a.compare(b) == 0
    # exact values of the two order-5 extremal graphs
    so_l5 = RadicalSum({1: 10, 2: 3, 5: 4, 13: 2})
    so_x5 = RadicalSum({2: 4, 5: 12})
    assert so_l5 < so_x5
    assert so_x5 > so_l5
    # sqrt(2) vs sqrt(29) - sqrt(17): the latter is smaller
    assert sqrt_int(2) > sqrt_int(29) - sqrt_int(17)
    assert sqrt_int(2) + sqrt_int(17) > sqrt_int(29)


def test_compare_separates_close_values():
    # sqrt(50) + sqrt(8) = 5sqrt(2) + 2sqrt(2) = 7sqrt(2) exactly
    assert sqrt_int(50) + sqrt_int(8) == 7 * sqrt_int(2)
    # 99sqrt(2) vs 70sqrt(5)/... pick near-equal pair: 99^2*2=19602 vs 140^2=19600
    a = 99 * sqrt_int(2)
    b = RadicalSum.integer(140)
    assert a > b
    assert b < a
    # Pell pairs: (1 + sqrt(2))^k = p + q*sqrt(2) with p^2 - 2q^2 = (-1)^k, so
    # q*sqrt(2) - p = -(-1)^k / (p + q*sqrt(2)) is far below 2**-64 for large k
    p, q = 1, 1
    for k in range(1, 120):
        assert (q * sqrt_int(2)).compare(RadicalSum.integer(p)) == (1 if k % 2 else -1)
        p, q = p + 2 * q, p + q


def test_float_evaluation():
    assert float(6 * sqrt_int(2)) == pytest.approx(8.485281374238571, abs=1e-12)
    so_l5 = 2 * sqrt_int(13) + 4 * sqrt_int(5) + RadicalSum.integer(10) + 3 * sqrt_int(2)
    assert float(so_l5) == pytest.approx(30.398015148, abs=1e-8)
    assert float(RadicalSum.zero()) == 0.0


def test_float_sums_left_to_right_in_radicand_order():
    # a compensated sum (math.fsum, or sum() of floats from Python 3.12 on)
    # rounds some of these differently, which would change report bytes
    rng = random.Random(312)
    pool = [k for k in range(1, 200) if _is_squarefree(k)]
    compensated_differs = 0
    for _ in range(500):
        terms = {s: rng.randrange(-40, 41) or 1 for s in rng.sample(pool, rng.randrange(1, 12))}
        products = [c * math.sqrt(s) for s, c in sorted(terms.items())]
        reference = 0.0
        for x in products:
            reference += x
        assert float(RadicalSum(terms)) == reference, terms
        compensated_differs += math.fsum(products) != reference
    assert compensated_differs > 0


def test_rendering_radicands_ascending():
    v = 2 * sqrt_int(13) + 4 * sqrt_int(5) + RadicalSum.integer(10) + 3 * sqrt_int(2)
    assert str(v) == "10 + 3*sqrt(2) + 4*sqrt(5) + 2*sqrt(13)"
    assert str(RadicalSum.zero()) == "0"
    assert str(sqrt_int(13)) == "sqrt(13)"
    assert str(RadicalSum.integer(7)) == "7"
    assert str(RadicalSum({1: -10, 2: 1, 5: -4})) == "-10 + sqrt(2) - 4*sqrt(5)"
    assert str(-sqrt_int(13)) == "-sqrt(13)"


def test_addition_commutative_associative_random():
    rng = random.Random(20240817)
    pool = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 29, 34, 41]
    def rand_sum():
        return RadicalSum({s: rng.randrange(0, 50) for s in rng.sample(pool, rng.randrange(1, 5))})
    for _ in range(300):
        a, b, c = rand_sum(), rand_sum(), rand_sum()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_compare_agrees_with_float_on_random_pairs():
    rng = random.Random(99)
    pool = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 29, 34, 41, 58]
    def rand_sum():
        return RadicalSum({s: rng.randrange(0, 40) for s in rng.sample(pool, rng.randrange(1, 5))})
    pairs = [(rand_sum(), rand_sum()) for _ in range(9_000)]
    # make sure the equal path is exercised too
    pairs += [(v, RadicalSum(v.terms)) for v, _ in pairs[:1_000]]
    for a, b in pairs:
        c = a.compare(b)
        fa, fb = float(a), float(b)
        if c == 0:
            assert a.terms == b.terms
            assert abs(fa - fb) <= 1e-12 * max(1.0, abs(fa))
        elif abs(fa - fb) > 1e-12 * max(1.0, abs(fa), abs(fb)):
            assert c == (-1 if fa < fb else 1)


def test_signed_compare_agrees_with_float_and_is_antisymmetric():
    rng = random.Random(7)
    pool = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 29, 34, 41, 58]
    def rand_sum():
        return RadicalSum({s: rng.randrange(-40, 41) for s in rng.sample(pool, rng.randrange(1, 5))})
    for _ in range(5_000):
        a, b = rand_sum(), rand_sum()
        c = a.compare(b)
        assert b.compare(a) == -c
        assert (a - b).compare(RadicalSum.zero()) == c
        fa, fb = float(a), float(b)
        if c == 0:
            assert a.terms == b.terms
        elif abs(fa - fb) > 1e-12 * max(1.0, abs(fa), abs(fb)):
            assert c == (-1 if fa < fb else 1)


def test_comparison_operators_consistent():
    a = sqrt_int(2)
    b = sqrt_int(3)
    assert a < b and a <= b and b > a and b >= a and a != b
    assert a <= RadicalSum({2: 1}) and a >= RadicalSum({2: 1})


def test_hashable_by_value():
    assert hash(sqrt_int(8)) == hash(2 * sqrt_int(2))
    seen = {sqrt_int(18), 3 * sqrt_int(2)}
    assert len(seen) == 1
    # sums with only an integer part equal that int, so they hash like it
    for c in (0, 3):
        value = RadicalSum.integer(c)
        assert value == c and hash(value) == hash(c)
    assert len({RadicalSum.zero(), 0, RadicalSum.integer(3), 3}) == 2
    assert (RadicalSum.integer(1) == 1.5) is False  # a float is never equal to an exact sum


def test_hash_agrees_across_constructions():
    built = [
        RadicalSum({5: -1, 2: 3, 1: 4}),  # checked constructor, radicands descending
        sqrt_int(18) + 4 - sqrt_int(5),  # arithmetic on _unchecked objects
        -(-(RadicalSum.integer(4) + 3 * sqrt_int(2)) + sqrt_int(5)),
        (RadicalSum({2: 6, 5: -2, 7: 0}) + 8) * 1 - (RadicalSum({2: 3, 5: -1}) + 4),
    ]
    for value in built:
        # one normal form: radicands ascending, no zero coefficient
        assert value._terms == built[0]._terms == (1, 4, 2, 3, 5, -1)
        assert hash(value) == hash(built[0])
    assert len(set(built)) == 1
    # integer-valued sums hash like their ints, also when a radical cancelled out
    for c in (-1, 0, 7, 2**70):
        for value in (RadicalSum.integer(c), RadicalSum({1: c}),
                      sqrt_int(2) * 3 + c - RadicalSum({2: 3})):
            assert value == c and hash(value) == hash(c)


def test_the_normal_form_drops_zero_terms_on_every_construction():
    # _unchecked takes any map of squarefree radicands to ints; the zero goes
    value = RadicalSum._unchecked({2: 0, 3: 1})
    assert value == sqrt_int(3) and hash(value) == hash(sqrt_int(3))
    assert value._terms == (3, 1)
    nothing = RadicalSum._unchecked({5: 0})
    assert nothing == RadicalSum.zero() and nothing == 0
    assert nothing._terms == ()
    x = 3 * sqrt_int(2) - sqrt_int(5) + 7
    for zero in (sqrt_int(2) * 0, 0 * x, RadicalSum.integer(0), x - x, x + -x):
        assert zero._terms == ()
    # the checked constructor skips the squarefree check of a zero term only
    assert RadicalSum({4: 0})._terms == ()
    with pytest.raises(ValueError, match="radicand 4 is not squarefree"):
        RadicalSum({4: 1})


def test_sort_values_escalates_on_pell_pairs(monkeypatch):
    # q*sqrt(2) and p from (1 + sqrt(2))^k = p + q*sqrt(2) differ by less than 1/p
    values, p, q = [], 1, 1
    for _ in range(119):
        values += [q * sqrt_int(2), RadicalSum.integer(p)]
        p, q = p + 2 * q, p + q
    closest = values[-2:]
    random.Random(3).shuffle(values)
    ordered = sort_values(values)
    assert ordered == sorted(values)
    assert sort_values(values, reverse=True) == sorted(values, reverse=True)
    # every value is x + y*sqrt(2), which the squaring oracle orders exactly
    def xy(v):
        return v.terms.get(1, 0), v.terms.get(2, 0)
    oracle = functools.cmp_to_key(
        lambda a, b: _sign_of(xy(a)[0] - xy(b)[0], xy(a)[1] - xy(b)[1]))
    assert ordered == sorted(values, key=oracle)
    assert sort_values(values, reverse=True) == sorted(values, key=oracle, reverse=True)
    # a single comparison is a sort of two values, so it agrees with the sort
    for a, b in zip(ordered, ordered[1:]):
        assert a.compare(b) == -1 and b.compare(a) == 1
    # the starting precision alone cannot separate the close pairs
    monkeypatch.setattr(radicals, "_MAX_BITS", radicals._START_BITS)
    with pytest.raises(ArithmeticError):
        sort_values(values)
    with pytest.raises(ArithmeticError):
        closest[0].compare(closest[1])


def test_sort_values_agrees_with_sorted_on_random_sums():
    rng = random.Random(11)
    pool = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 29, 34, 41, 58]
    for signed in (False, True):
        low = -40 if signed else 0
        values = {
            RadicalSum({s: rng.randrange(low, 41) for s in rng.sample(pool, rng.randrange(1, 5))})
            for _ in range(3_000)
        }
        values = list(values)  # duplicate-free
        assert any(float(v) < 0 for v in values) == signed
        assert sort_values(values) == sorted(values)
        assert sort_values(values, reverse=True) == sorted(values, reverse=True)
        # sorted() compares through sort_values too, so check against decimals
        assert sort_values(values) == _by_decimal(values)
        assert sort_values(values, reverse=True) == _by_decimal(values, reverse=True)


def test_sort_values_small_inputs_and_unseparated_values(monkeypatch):
    assert sort_values([]) == []
    assert sort_values(iter([sqrt_int(2)])) == [sqrt_int(2)]
    assert sort_values([sqrt_int(3), sqrt_int(2)]) == [sqrt_int(2), sqrt_int(3)]
    monkeypatch.setattr(radicals, "_MAX_BITS", 0)
    assert sort_values([sqrt_int(3)]) == [sqrt_int(3)]
    with pytest.raises(ArithmeticError, match="interval refinement failed"):
        sort_values([sqrt_int(3), sqrt_int(2)])


def _sign_of(x: int, y: int) -> int:
    # exact sign of x + y*sqrt(2), by squaring
    if x >= 0 and y >= 0:
        return int(x > 0 or y > 0)
    if x <= 0 and y <= 0:
        return -1
    return (1 if x * x > 2 * y * y else -1) * (1 if x > 0 else -1)


def test_compare_agrees_with_sort_values_on_random_pairs():
    rng = random.Random(5)
    pool = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 29, 34, 41, 58]
    def rand_sum():
        return RadicalSum({s: rng.randrange(-40, 41) for s in rng.sample(pool, rng.randrange(1, 5))})
    for _ in range(3_000):
        a, b = rand_sum(), rand_sum()
        if a == b:
            continue
        assert a.compare(b) == (-1 if sort_values([a, b])[0] is a else 1)
        assert [a, b] == _by_decimal([a, b], reverse=a.compare(b) > 0)


def test_compare_doubles_precision_on_consecutive_convergents(monkeypatch):
    # p/q runs through the convergents of sqrt(2), so p - q*sqrt(2) shrinks
    # like 1/q: pairs of them differ by far less than the 64-bit key error
    values, p, q = [], 1, 1
    for _ in range(120):
        values.append((p, q))
        p, q = p + 2 * q, p + q
    for step in (1, 2):  # neighbours alternate in sign, the next but one do not
        for (p, q), (p2, q2) in zip(values, values[step:]):
            a = RadicalSum({1: p, 2: -q})
            b = RadicalSum({1: p2, 2: -q2})
            expected = _sign_of(p - p2, q2 - q)
            assert a.compare(b) == expected and b.compare(a) == -expected
            assert a.compare(b) == (-1 if sort_values([a, b])[0] is a else 1)
    # the starting precision alone cannot separate the last pair
    monkeypatch.setattr(radicals, "_MAX_BITS", radicals._START_BITS)
    with pytest.raises(ArithmeticError, match="interval refinement failed"):
        a.compare(b)


def _pell(step: int) -> tuple[int, int]:
    # p, q after ``step`` steps of p, q <- p + 2q, p + q from 1, 1
    p, q = 1, 1
    for _ in range(step):
        p, q = p + 2 * q, p + q
    return p, q


def _sort_sign(a: RadicalSum, b: RadicalSum) -> int | None:
    # the order of a, b by a sort of the pair, or None where it gives up
    try:
        return -1 if sort_values([a, b])[0] is a else 1
    except ArithmeticError:
        return None


def test_compare_and_the_sort_of_a_pair_separate_at_the_same_precision(monkeypatch):
    # keys of q*sqrt(2) and p + shift, times a multiplier, differ by more than
    # the sum of the two error bounds but less than twice the larger one, so
    # only a rule taking each value's own bound separates them at 64 bits
    monkeypatch.setattr(radicals, "_MAX_BITS", radicals._START_BITS)
    assert _pell(50) == (16616132878186749607, 11749380235262596085)
    cases = {47: (7, -1, 1), 48: (5, 1, -1), 49: (2, 1, -1), 50: (1, -2, 1), 51: (1, 3, -1)}
    for step, (multiplier, shift, expected) in cases.items():
        p, q = _pell(step)
        a = multiplier * q * sqrt_int(2)
        b = RadicalSum.integer(multiplier * p + shift)
        assert expected == _sign_of(-multiplier * p - shift, multiplier * q)
        assert a.compare(b) == _sort_sign(a, b) == expected
        assert b.compare(a) == _sort_sign(b, a) == -expected
    # the comparison gives up exactly where the sort of the pair does: at 64
    # bits these pairs separate up to step 23 and none does from step 25 on
    seen = set()
    for step in range(15, 35):
        p, q = _pell(step)
        for a, b in ((q * sqrt_int(2), RadicalSum.integer(p)),
                     (RadicalSum({1: p, 2: -q}), RadicalSum({1: p + 2 * q, 2: -p - q}))):
            expected = _sort_sign(a, b)
            seen.add(expected)
            if expected is None:
                with pytest.raises(ArithmeticError, match="interval refinement failed"):
                    a.compare(b)
            else:
                assert a.compare(b) == expected
    assert seen == {-1, 1, None}


def test_sort_values_keeps_a_wide_interval_with_every_interval_it_reaches():
    # at 64 bits v*2**64 lies within M = sum |c| of v's key; q*sqrt(2) - p
    # nearly cancels, so M spans units, while the integers 1 and 2 key exactly
    bits = radicals._START_BITS
    def interval(v):
        key, error = radicals._key(v, bits), sum(map(abs, v.terms.values()))
        return key - error, key + error
    one, two = RadicalSum.integer(1), RadicalSum.integer(2)
    # wide = 3 + (q*sqrt(2) - p) is above 2, yet its interval starts below the
    # one of 1 and reaches into the one of 2: checked only against its
    # neighbour, the interval of 2 would split off from those of wide and 1
    p, q = _pell(51)
    wide = RadicalSum({1: 3 - p, 2: q})
    assert _sign_of(1 - p, q) == 1
    assert interval(wide)[0] < interval(one)[0] and interval(one)[1] < interval(two)[0] <= interval(wide)[1]
    # tiny = p - q*sqrt(2) is below 1, yet it keys above 2: walked by key
    # rather than by the low end of each interval, 1 would split off first
    p, q = _pell(52)
    tiny = RadicalSum({1: p, 2: -q})
    assert _sign_of(p - 1, -q) == -1
    assert radicals._key(tiny, bits) > radicals._key(two, bits)
    for chain, expected in (([wide, two, one], [one, two, wide]),
                            ([two, one, tiny], [tiny, one, two])):
        for values in (chain, chain[::-1]):
            assert sort_values(values) == expected
            assert sort_values(values, reverse=True) == expected[::-1]


def test_compare_gives_zero_only_on_equal_values_and_needs_a_radical_sum():
    a = RadicalSum({1: 3, 2: -5, 13: 2})
    assert a.compare(sqrt_int(52) + 3 - sqrt_int(50)) == 0
    assert a.compare(a) == 0 and RadicalSum.zero().compare(RadicalSum.integer(0)) == 0
    for other in (0, 1.5, "1"):
        with pytest.raises(TypeError, match="cannot compare RadicalSum"):
            a.compare(other)
