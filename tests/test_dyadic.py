import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import ep_seqs, small_ints
from morseadic import (
    ALT_01,
    ALT_10,
    MINUS_ONE,
    ZERO,
    AlternatingPoint,
    DyadicRational,
    EpSeq,
    add_integer,
    add_one,
    differentiate,
    double,
    first_pair_index,
    integrate,
    shift_drop,
    subtract_one,
)


class TestCanonicalForm:
    def test_period_made_primitive(self):
        assert EpSeq((), (1, 0, 1, 0)) == EpSeq((), (1, 0))

    def test_preperiod_absorbed_into_period(self):
        # trailing preperiod bits that continue the cycle get folded in
        assert EpSeq((0, 1), (0, 1)) == EpSeq((), (0, 1))
        assert EpSeq((1,), (1,)) == EpSeq((), (1,))

    def test_structural_equality_is_sequence_equality(self):
        a = EpSeq((0, 1, 1), (0, 1))
        b = EpSeq((0, 1, 1, 0, 1), (0, 1))
        c = EpSeq((0, 1, 1), (0, 1, 0, 1))
        assert all(a.digit(i) == b.digit(i) for i in range(40))
        assert a == b and a == c

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            EpSeq((2,), (0,))
        with pytest.raises(ValueError):
            EpSeq((), ())

    @given(st.lists(st.integers(0, 1), max_size=8),
           st.lists(st.integers(0, 1), min_size=1, max_size=8))
    def test_raw_digits_build_the_canonical_point(self, pre, per):
        # raw digits, so periods may repeat and preperiods may fold
        m, k = len(pre), len(per)
        head = sum(b << i for i, b in enumerate(pre))
        tail = sum(b << i for i, b in enumerate(per))
        value = head + Fraction(tail << m, 1 - (1 << k))
        x = EpSeq(tuple(pre), tuple(per))
        assert x == EpSeq.from_rational(value.numerator, value.denominator)
        assert EpSeq.parse(str(x)) == x
        assert x == EpSeq(pre, per)  # lists are accepted as digit sequences

    @pytest.mark.parametrize("pre,per,canon", [
        ((), (0,), ((), (0,))),
        ((1, 0, 1), (0,), ((1, 0, 1), (0,))),
        ((0, 1, 0, 1), (0, 1, 0, 1), ((), (0, 1))),
        ((1, 1), (0, 1, 1, 0, 1, 1), ((), (1, 1, 0))),
        ((0, 1), (1,), ((0,), (1,))),
    ])
    def test_repr_eq_hash(self, pre, per, canon):
        x = EpSeq(pre, per)
        assert repr(x) == f"EpSeq(preperiod={canon[0]!r}, period={canon[1]!r})"
        assert (x.preperiod, x.period) == canon
        assert x == EpSeq(*canon) and not x != EpSeq(*canon)
        assert hash(x) == hash(EpSeq(*canon)) == hash(canon)

    def test_defaults_are_zero(self):
        assert EpSeq() == EpSeq(()) == ZERO

    @pytest.mark.parametrize("pre,per", [
        ((True,), (0,)), ((), (False,)), (("1",), (0,)), ((), ("0",)), ((1.0,), (0,)),
    ])
    def test_rejects_digits_that_are_not_ints(self, pre, per):
        # True == 1, but a bool digit would print as "True"
        with pytest.raises(ValueError, match="digits must be the ints 0 or 1"):
            EpSeq(pre, per)


class TestLiterals:
    @pytest.mark.parametrize("text", ["(0)", "(1)", "01(10)", "111(0)", "(10)"])
    def test_round_trip(self, text):
        assert str(EpSeq.parse(text)) == text

    def test_parse_canonicalizes(self):
        assert str(EpSeq.parse("01(0101)")) == "(01)"

    @pytest.mark.parametrize("bad", ["", "01", "(", "01()", "2(0)", "(01)1"])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError):
            EpSeq.parse(bad)

    @given(ep_seqs())
    def test_str_parse_identity(self, x):
        assert EpSeq.parse(str(x)) == x


class TestIntegers:
    @pytest.mark.parametrize("n,text", [
        (0, "(0)"), (-1, "(1)"), (5, "101(0)"), (-6, "010(1)"), (2, "01(0)"),
    ])
    def test_known_digit_strings(self, n, text):
        assert str(EpSeq.from_integer(n)) == text

    @given(st.integers(-(2**40), 2**40))
    def test_value_round_trip(self, n):
        assert EpSeq.from_integer(n).to_rational() == n


class TestRationals:
    @pytest.mark.parametrize("p,q,text", [
        (-1, 3, "(10)"), (-2, 3, "(01)"), (2, 3, "01(10)"), (0, 1, "(0)"),
    ])
    def test_known_values(self, p, q, text):
        assert str(EpSeq.from_rational(p, q)) == text

    def test_even_denominator_rejected(self):
        with pytest.raises(ValueError):
            EpSeq.from_rational(1, 2)

    @pytest.mark.parametrize("p", range(-64, 65))
    @pytest.mark.parametrize("q", [1, 3, 5, 7, 9, 11, 13, 15])
    def test_round_trip_grid(self, p, q):
        x = EpSeq.from_rational(p, q)
        assert x.to_rational() == Fraction(p, q)

    @given(st.integers(-(2**16), 2**16), st.integers(0, 499))
    def test_round_trip_sampled(self, p, half_q):
        q = 2 * half_q + 1
        assert EpSeq.from_rational(p, q).to_rational() == Fraction(p, q)

    @given(ep_seqs())
    def test_from_to_inverse_on_sequences(self, x):
        r = x.to_rational()
        assert EpSeq.from_rational(r.numerator, r.denominator) == x


class TestDigitsAndPredicates:
    def test_digit_examples(self):
        x = EpSeq.parse("01(10)")
        assert [x.digit(i) for i in (0, 2, 5)] == [0, 1, 0]

    def test_distinguished_points(self):
        assert ZERO.is_min() and MINUS_ONE.is_min()
        assert ALT_01.is_max() and ALT_10.is_max()
        assert not EpSeq.from_integer(7).is_max()
        assert not EpSeq.from_integer(7).is_min()

    def test_eventually_constant_and_alternating(self):
        assert EpSeq.from_integer(9).is_eventually_constant()
        assert EpSeq.parse("110(01)").is_eventually_alternating()
        assert not EpSeq.parse("(001)").is_eventually_constant()
        assert not EpSeq.parse("(001)").is_eventually_alternating()

    def test_cofinality(self):
        assert EpSeq.from_integer(5).is_cofinal(EpSeq.from_integer(13))
        assert not ZERO.is_cofinal(MINUS_ONE)

    @given(ep_seqs())
    def test_never_cofinal_with_flip(self, x):
        assert not x.is_cofinal(x.flip())


class TestFlip:
    def test_integer_flip(self):
        assert EpSeq.from_integer(5).flip() == EpSeq.from_integer(-6)

    @given(ep_seqs())
    def test_value_law(self, x):
        assert x.flip().to_rational() == -x.to_rational() - 1

    @given(ep_seqs())
    def test_involution(self, x):
        assert x.flip().flip() == x


class TestOdometer:
    def test_wraparound(self):
        assert add_one(MINUS_ONE) == ZERO
        assert subtract_one(ZERO) == MINUS_ONE

    @given(ep_seqs())
    def test_value_and_inverse(self, x):
        y = add_one(x)
        assert y.to_rational() == x.to_rational() + 1
        assert subtract_one(y) == x

    @given(ep_seqs(), st.integers(-40, 40))
    def test_add_integer_matches_repeated_steps(self, x, t):
        y = x
        step = add_one if t >= 0 else subtract_one
        for _ in range(abs(t)):
            y = step(y)
        assert add_integer(x, t) == y

    @given(ep_seqs(), st.integers(-(2**40), 2**40))
    def test_add_integer_value(self, x, t):
        assert add_integer(x, t).to_rational() == x.to_rational() + t

    @given(small_ints, st.integers(-(2**20), 2**20))
    def test_add_integer_on_integers(self, n, t):
        assert add_integer(EpSeq.from_integer(n), t) == EpSeq.from_integer(n + t)


class TestDifferentiation:
    @given(ep_seqs())
    def test_digitwise_xor(self, y):
        d = differentiate(y)
        assert all(d.digit(i) == (y.digit(i) ^ y.digit(i + 1)) for i in range(40))

    @given(ep_seqs())
    def test_flip_invariance(self, y):
        assert differentiate(y.flip()) == differentiate(y)

    def test_constant_points_differentiate_to_zero(self):
        assert differentiate(ZERO) == ZERO
        assert differentiate(MINUS_ONE) == ZERO
        assert differentiate(ALT_01) == MINUS_ONE

    @given(ep_seqs(), st.integers(0, 1))
    def test_integrate_is_right_inverse(self, y, b):
        x = integrate(y, b)
        assert differentiate(x) == y
        assert x.digit(0) == b

    @given(ep_seqs())
    def test_two_preimages_are_flips(self, y):
        assert integrate(y, 1) == integrate(y, 0).flip()


class TestShifts:
    def test_drop_examples(self):
        assert str(shift_drop(EpSeq.parse("01(10)"))) == "1(10)"
        assert shift_drop(EpSeq.from_integer(5)) == EpSeq.from_integer(2)
        assert shift_drop(ZERO) == ZERO

    def test_double_examples(self):
        assert double(EpSeq.from_integer(3)) == EpSeq.from_integer(6)
        assert double(MINUS_ONE) == EpSeq.from_integer(-2)

    @given(ep_seqs())
    def test_drop_after_double(self, x):
        assert shift_drop(double(x)) == x

    @given(ep_seqs())
    def test_double_after_drop_fixes_even_points(self, x):
        fixed = double(shift_drop(x)) == x
        assert fixed == (x.digit(0) == 0)

    @given(ep_seqs())
    def test_values(self, x):
        assert double(x).to_rational() == 2 * x.to_rational()
        assert shift_drop(x).to_rational() == (x.to_rational() - x.digit(0)) / 2

    @given(ep_seqs())
    def test_odometer_intertwining(self, x):
        assert add_one(shift_drop(x)) == shift_drop(add_one(add_one(x)))


class TestFirstPair:
    @pytest.mark.parametrize("n,k", [(0, 1), (2, 3), (1, 2), (7, 1), (5, 4)])
    def test_integer_scan(self, n, k):
        assert first_pair_index(EpSeq.from_integer(n)) == k

    def test_alternating_points_have_no_pair(self):
        with pytest.raises(AlternatingPoint):
            first_pair_index(ALT_01)
        with pytest.raises(AlternatingPoint):
            first_pair_index(ALT_10)

    @given(ep_seqs())
    def test_minimality(self, x):
        if x.is_max():
            return
        k = first_pair_index(x)
        assert x.digit(k - 1) == x.digit(k)
        assert all(x.digit(i - 1) != x.digit(i) for i in range(1, k))


class TestDyadicRational:
    def test_normalization(self):
        assert DyadicRational(4, 3) == DyadicRational(1, 1)
        assert DyadicRational(0, 7) == DyadicRational(0, 0)

    @given(st.integers(-(2**70), 2**70), st.integers(0, 80))
    def test_normalization_is_lowest_terms(self, num, exp):
        q = DyadicRational(num, exp)
        assert Fraction(q.num, 1 << q.exp) == Fraction(num, 1 << exp)
        assert q.exp == 0 or q.num % 2 == 1

    @pytest.mark.parametrize("num,exp,want", [
        (3 << 200000, 200000, (3, 0)), (0, 10**7, (0, 0)), (-12, 5, (-3, 3)),
    ], ids=["3<<200000", "zero", "small"])
    def test_normalization_cost_does_not_grow_with_exp(self, num, exp, want):
        start = time.perf_counter()
        q = DyadicRational(num, exp)
        assert time.perf_counter() - start < 0.1
        assert (q.num, q.exp) == want

    @pytest.mark.parametrize("text,num,exp", [
        ("1", 1, 0), ("-3/8", -3, 3), ("5/2", 5, 1), ("0", 0, 0),
    ])
    def test_parse(self, text, num, exp):
        assert DyadicRational.parse(text) == DyadicRational(num, exp)

    def test_odd_denominator_rejected(self):
        with pytest.raises(ValueError):
            DyadicRational.parse("-1/3")
        with pytest.raises(ValueError):
            DyadicRational.from_fraction(Fraction(1, 6))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            DyadicRational.parse("1/0")

    @given(st.integers(-256, 256), st.integers(0, 10),
           st.integers(-256, 256), st.integers(0, 10))
    def test_addition(self, a, i, b, j):
        q1, q2 = DyadicRational(a, i), DyadicRational(b, j)
        assert (q1 + q2).as_fraction() == q1.as_fraction() + q2.as_fraction()
