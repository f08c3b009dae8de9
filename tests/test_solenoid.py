"""Two-sided sequences: the invertible shift, translations, and the
extended successor acting on them."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from morseadic import (
    ALT_01,
    ALT_10,
    MINUS_ONE,
    ZERO,
    BiSeq,
    DyadicRational,
    EpSeq,
    MaxPoint,
    MinPoint,
    d_hat,
    differentiate,
    m_family,
    m_hat,
    m_hat_inv,
    m_power,
    morse_predecessor,
    morse_successor,
    pi,
    q2_translate,
    s_hat,
    step_parity,
    t_family,
    t_hat,
)
from morseadic.dyadic import _split
from conftest import bi_seqs, ep_seqs


def biseq(text: str) -> BiSeq:
    return BiSeq.parse(text)


def materialized_shift(x: BiSeq, k: int) -> BiSeq:
    """s_hat as first written: build all |k| crossing digits, then let
    the constructor canonicalize."""
    src, dst = (x.left, x.right) if k > 0 else (x.right, x.left)
    head, tpre, tper = _split(src, abs(k))
    rest = EpSeq(tpre, tper)
    grown = EpSeq(tuple(reversed(head)) + dst.preperiod, dst.period)
    return BiSeq(rest, grown) if k > 0 else BiSeq(grown, rest)


@st.composite
def two_sided_periodic(draw) -> BiSeq:
    """A shift of ...www.www..., whose crossing digits fold, with at
    most a few stray digits on one side so that some folds stop."""
    w = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=6)))
    x = s_hat(BiSeq(EpSeq((), w[::-1]), EpSeq((), w)), draw(st.integers(-8, 8)))
    stray = tuple(draw(st.lists(st.integers(0, 1), max_size=3)))
    if draw(st.booleans()):
        return BiSeq(EpSeq(stray + x.left.preperiod, x.left.period), x.right)
    return BiSeq(x.left, EpSeq(stray + x.right.preperiod, x.right.period))


class TestLiterals:
    @pytest.mark.parametrize(
        "text",
        ["(0)1.11(0)", "(0).(0)", "(1).(1)", "(10)01.1(10)", "(01).(01)"],
    )
    def test_round_trip(self, text):
        assert str(biseq(text)) == text

    @pytest.mark.parametrize("text", ["", "01.10", "(0).10", "0.(0)", "(0).(0", "(2).(0)"])
    def test_bad_literals(self, text):
        with pytest.raises(ValueError):
            BiSeq.parse(text)

    def test_digit_indexing(self):
        x = biseq("(0)101.110(0)")
        assert [x.digit(n) for n in (0, 1, 2, 3)] == [1, 1, 0, 0]
        assert [x.digit(n) for n in (-1, -2, -3, -4)] == [1, 0, 1, 0]

    def test_canonical_absorption(self):
        # the left half canonicalizes just like a one-sided sequence
        assert str(biseq("(01)0.(0)")) == "(10).(0)"


class TestProjection:
    def test_lambda_values(self):
        assert pi(biseq("(0).(0)")).lam == 0
        assert pi(biseq("(0)1.(0)")).lam == Fraction(1, 2)
        assert pi(biseq("(0)11.(0)")).lam == Fraction(3, 4)
        assert pi(biseq("(10).(0)")).lam == Fraction(1, 3)

    def test_y_is_right_half(self):
        x = biseq("(0)1.11(0)")
        assert pi(x).y == EpSeq.from_integer(3)

    def test_double_expansion_collapses(self):
        # all-ones left is the fraction 1, which wraps to 0
        assert pi(biseq("(1).(0)")).lam == 0


class TestTranslation:
    def test_adds_one_on_right(self):
        assert str(t_hat(biseq("(1).(1)"))) == "(1).(0)"
        assert str(t_hat(biseq("(0)1.11(0)"))) == "(0)1.001(0)"

    @given(bi_seqs())
    def test_lambda_invariant(self, x):
        assert pi(t_hat(x)).lam == pi(x).lam

    @given(bi_seqs())
    def test_commutes_with_successor_cocycle(self, x):
        # translation is the odometer on the right coordinate
        from morseadic import add_one

        assert t_hat(x).right == add_one(x.right)
        assert t_hat(x).left == x.left


class TestShift:
    def test_doubling_example(self):
        assert str(s_hat(biseq("(0)1.(0)"))) == "(0).1(0)"

    @given(bi_seqs(), st.integers(-64, 64))
    def test_digit_relation(self, x, k):
        y = s_hat(x, k)
        for n in range(-abs(k) - 10, abs(k) + 11):
            assert y.digit(n) == x.digit(n - k)

    @given(bi_seqs(), st.integers(-64, 64))
    def test_invertible(self, x, k):
        assert s_hat(s_hat(x, k), -k) == x

    @given(st.one_of(bi_seqs(), two_sided_periodic()), st.integers(-256, 256))
    def test_folds_like_materialized_shift(self, x, k):
        assert s_hat(x, k) == materialized_shift(x, k)

    @pytest.mark.parametrize("text,k,want", [
        ("(0).(0)", 10**6, "(0).(0)"),
        ("(01).(01)", 10**6 + 1, "(10).(10)"),
        ("(011).(011)", -(10**6), "(110).(110)"),
        ("(011).(011)", 10**6 + 2, "(011).(011)"),
    ])
    def test_far_shift_of_periodic_point(self, text, k, want):
        # k modulo the period gives the same point; materializing the
        # crossing digits would take about a second here
        start = time.perf_counter()
        assert str(s_hat(biseq(text), k)) == want
        assert time.perf_counter() - start < 0.1

    @given(bi_seqs())
    def test_lambda_doubles(self, x):
        assert pi(s_hat(x)).lam == (2 * pi(x).lam) % 1

    @given(bi_seqs())
    def test_y_gains_carried_digit(self, x):
        shifted = pi(s_hat(x))
        y = pi(x).y
        expected = EpSeq((x.digit(-1),) + y.preperiod, y.period)
        assert shifted.y == expected


class TestDifference:
    def test_alternating_to_ones(self):
        assert str(d_hat(biseq("(01).(01)"))) == "(1).(1)"

    @given(bi_seqs())
    def test_digit_relation(self, x):
        d = d_hat(x)
        for n in range(-8, 9):
            assert d.digit(n) == x.digit(n) ^ x.digit(n + 1)

    @given(bi_seqs())
    def test_flip_invariant(self, x):
        assert d_hat(x.flip()) == d_hat(x)

    @given(bi_seqs())
    def test_right_restriction(self, x):
        assert d_hat(x).right == differentiate(x.right)


class TestExtendedSuccessor:
    def test_examples(self):
        assert str(m_hat(biseq("(0).(0)"))) == "(1).1(0)"
        assert str(m_hat(biseq("(0).1(0)"))) == "(0).11(0)"

    @given(bi_seqs())
    def test_conjugate_to_translation(self, x):
        assume(x.right not in (ALT_01, ALT_10))
        assert d_hat(m_hat(x)) == t_hat(d_hat(x))

    def test_conjugacy_at_extension_points(self):
        for text in ["(0).(01)", "(1).(10)", "(10)1.(01)"]:
            x = biseq(text)
            assert d_hat(m_hat(x, extend_at_max=True)) == t_hat(d_hat(x))

    @given(bi_seqs())
    def test_right_restriction(self, x):
        assume(x.right not in (ALT_01, ALT_10))
        assert m_hat(x).right == morse_successor(x.right)

    @given(bi_seqs())
    def test_left_flip_rule(self, x):
        assume(x.right not in (ALT_01, ALT_10))
        par = step_parity(x.right)
        out = m_hat(x)
        assert out.left == (x.left.flip() if par else x.left)

    @given(bi_seqs())
    def test_round_trip(self, x):
        assume(x.right not in (ALT_01, ALT_10))
        assert m_hat_inv(m_hat(x)) == x

    @given(bi_seqs())
    def test_round_trip_other_way(self, x):
        assume(x.right not in (ZERO, MINUS_ONE))
        assert m_hat(m_hat_inv(x)) == x

    def test_boundaries_raise(self):
        with pytest.raises(MaxPoint):
            m_hat(BiSeq(ZERO, ALT_01))
        with pytest.raises(MinPoint):
            m_hat_inv(BiSeq(ZERO, ZERO))

    def test_extension_round_trip(self):
        x = BiSeq(ZERO, ALT_01)
        up = m_hat(x, extend_at_max=True)
        assert m_hat_inv(up, extend_at_min=True) == x

    @given(bi_seqs())
    def test_lambda_branches(self, x):
        assume(x.right not in (ALT_01, ALT_10))
        lam = pi(x).lam
        out = pi(m_hat(x)).lam
        if step_parity(x.right):
            assert out == (1 - lam) % 1
        else:
            assert out == lam


_ENDS = (ZERO, MINUS_ONE, ALT_01, ALT_10)


def _walk(x, j):
    """j extended one-sided steps from x (predecessors when j < 0)."""
    for _ in range(abs(j)):
        if j > 0:
            x = morse_successor(x, extend_at_max=True)
        else:
            x = morse_predecessor(x, extend_at_min=True)
    return x


def _iterate_m_hat(x, n, extend):
    for _ in range(abs(n)):
        if n > 0:
            x = m_hat(x, extend_at_max=extend)
        else:
            x = m_hat_inv(x, extend_at_min=extend)
    return x


def _outcome(f, *args):
    """The result, or the type and message of the domain error raised."""
    try:
        return f(*args)
    except (MaxPoint, MinPoint) as exc:
        return type(exc), str(exc)


near_ends = st.builds(_walk, st.sampled_from(_ENDS), st.integers(-8, 8))


class TestMPower:
    @settings(max_examples=400)
    @given(ep_seqs(), st.one_of(ep_seqs(), near_ends), st.integers(-64, 64),
           st.booleans())
    def test_agrees_with_iteration(self, left, right, n, extend):
        x = BiSeq(left, right)
        assert _outcome(m_power, x, n, extend) == \
            _outcome(_iterate_m_hat, x, n, extend)


class TestFamilies:
    @given(bi_seqs(), st.integers(-3, 3))
    def test_translation_squares(self, x, i):
        assert t_family(i, t_family(i, x)) == t_family(i + 1, x)

    @given(bi_seqs(), st.integers(-3, 3))
    @settings(max_examples=60)
    def test_successor_squares(self, x, i):
        try:
            twice = m_family(i, m_family(i, x))
            once = m_family(i + 1, x)
        except MaxPoint:
            assume(False)
        assert twice == once

    @given(bi_seqs())
    def test_level_minus_one_adds_half(self, x):
        moved = pi(t_family(-1, x))
        assert moved.lam == (pi(x).lam + Fraction(1, 2)) % 1

    def test_integer_levels_translate_powers_of_two(self):
        x = biseq("(0)1.11(0)")
        for i in range(0, 4):
            stepped = t_family(i, x)
            assert stepped.left == x.left
            assert stepped.right.to_rational() == x.right.to_rational() + 2**i


class TestRationalTranslation:
    def test_unit_is_translation(self):
        x = biseq("(0)1.11(0)")
        assert q2_translate(DyadicRational(1, 0), x) == t_hat(x)

    def test_half_twice_is_one(self):
        x = biseq("(10)01.1(10)")
        half = DyadicRational(1, 1)
        assert q2_translate(half, q2_translate(half, x)) == t_hat(x)

    @given(bi_seqs(), st.integers(-40, 40), st.integers(0, 6), st.integers(-40, 40), st.integers(0, 6))
    @settings(max_examples=80)
    def test_additive(self, x, n1, e1, n2, e2):
        q1 = DyadicRational(n1, e1)
        q2 = DyadicRational(n2, e2)
        combined = q2_translate(q1 + q2, x)
        assert q2_translate(q1, q2_translate(q2, x)) == combined

    def test_rejects_odd_denominators(self):
        with pytest.raises(ValueError):
            DyadicRational.parse("1/3")


class TestCylinderDeterminacy:
    def test_undetermined_parity_prefixes(self):
        from morseadic import phi_prefix, successor_prefix

        for r in range(2, 9):
            undetermined = []
            for bits in range(1 << r):
                dbits = (bits ^ (bits >> 1)) & ((1 << (r - 1)) - 1)
                parity = phi_prefix(dbits, r - 1)
                succ = successor_prefix(bits, r)
                if parity is None or succ is None:
                    undetermined.append(bits)
            # only the two alternating prefixes leave the step unresolved
            assert len(undetermined) == 2
            for bits in undetermined:
                assert all(
                    (bits >> i) & 1 != (bits >> (i + 1)) & 1 for i in range(r - 1)
                )
