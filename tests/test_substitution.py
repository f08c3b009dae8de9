"""Word-level combinatorics: the doubling morphism, its fixed point, and
window codings read along orbits."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from morseadic import (
    DIFF_RULES,
    ZERO,
    ZETA,
    AmbiguousWindow,
    CodingWindow,
    EpSeq,
    apply_morphism,
    coding,
    desubstitute,
    is_factor,
    morse_successor,
    shift_drop,
    substitution_fixed_point,
    thue_morse_digit,
    thue_morse_prefix,
    word_diff,
    word_flip,
    zeta,
)
from conftest import ep_seqs


class TestFixedPoint:
    def test_prefix_sixteen(self):
        assert thue_morse_prefix(16) == "0110100110010110"

    def test_prefix_zero(self):
        assert thue_morse_prefix(0) == ""

    def test_digit_matches_prefix(self):
        w = thue_morse_prefix(2**12)
        for n in range(2**12):
            assert int(w[n]) == thue_morse_digit(n)

    def test_digit_is_bit_parity(self):
        for n in range(2**10):
            assert thue_morse_digit(n) == bin(n).count("1") % 2

    def test_morphism_fixed(self):
        for k in range(0, 9):
            assert zeta(thue_morse_prefix(2**k)) == thue_morse_prefix(2 ** (k + 1))

    def test_apply_morphism_rules(self):
        assert apply_morphism(ZETA, "011") == "011010"
        assert apply_morphism(DIFF_RULES, "10") == "1011"


class TestWordOps:
    def test_flip(self):
        assert word_flip("0110") == "1001"
        assert word_flip("") == ""

    def test_diff(self):
        assert word_diff("0110") == "101"
        assert word_diff("0") == ""

    def test_diff_of_fixed_point(self):
        # adjacent-difference word is itself a substitution fixed point
        n = 2**14
        left = word_diff(thue_morse_prefix(n + 1))
        right = substitution_fixed_point(DIFF_RULES, "1", n)
        assert left == right
        assert left.startswith("1011101010")

    def test_fixed_point_seed_validation(self):
        with pytest.raises(ValueError):
            substitution_fixed_point({"0": "10", "1": "01"}, "0", 8)


class TestFactor:
    @pytest.mark.parametrize("w", ["0", "1", "01", "0110", "10010", "011010011"])
    def test_present(self, w):
        assert is_factor(w)

    @pytest.mark.parametrize("w", ["000", "111", "01010", "10101", "00100100"])
    def test_absent(self, w):
        assert not is_factor(w)

    def test_window_override(self):
        assert is_factor("0110")

    def test_empty(self):
        assert is_factor("")

    def test_default_prefix_holds_every_short_factor(self):
        # every factor of length n <= 128 of the 2^17-letter prefix first
        # ends by letter 6.8n (worst at n = 66), inside the 8n + 16 read
        size, top = 1 << 17, 128
        t = thue_morse_prefix(size)
        longest = {t[i:i + top] for i in range(size - top + 1)}
        for n in range(1, top + 1):
            words = {w[:n] for w in longest}
            words |= {t[i:i + n] for i in range(size - top + 1, size - n + 1)}
            assert all(is_factor(w) for w in words), n


class TestCodingWindow:
    def test_str_with_dot(self):
        assert str(CodingWindow("1001", -2)) == "10.01"
        assert str(CodingWindow("1001", 0)) == "1001"

    def test_hi(self):
        assert CodingWindow("0110", -1).hi == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CodingWindow("012", 0)
        with pytest.raises(ValueError):
            CodingWindow("", 0)


class TestCoding:
    def test_zero_forward(self):
        assert coding(ZERO, 0, 15).word == thue_morse_prefix(16)

    def test_three_forward(self):
        # independent route: step by hand and read the parity digit
        got = coding(EpSeq.from_integer(3), 0, 3)
        pt = EpSeq.from_integer(3)
        manual = []
        for _ in range(4):
            manual.append(str(pt.digit(0)))
            pt = morse_successor(pt)
        assert got.word == "".join(manual)
        assert got.lo == 0

    def test_window_may_end_on_alternating_point(self):
        # the successor of 0(01) is (10), which has no successor
        x = EpSeq.parse("0(01)")
        assert coding(x, 0, 1).word == "01"
        assert str(coding(x, -3, 1)) == "010.01"

    def test_backward_with_extension(self):
        win = coding(ZERO, -(2**6), -1, extend=True)
        assert win.word == word_flip(thue_morse_prefix(2**6))[::-1]
        assert win.lo == -(2**6)

    def test_every_window_is_a_factor(self):
        x = EpSeq.from_rational(5, 7)
        assert is_factor(coding(x, 0, 40).word)


class TestDesubstitution:
    def test_simple_block(self):
        inner, off = desubstitute(CodingWindow("0110", 0))
        assert (inner.word, inner.lo, off) == ("01", 0, 0)

    def test_orbit_of_one(self):
        win = coding(EpSeq.from_integer(1), 0, 9)
        inner, off = desubstitute(win)
        assert off == 1
        assert inner.lo == 1
        assert inner.word == coding(shift_drop(EpSeq.from_integer(1)), inner.lo, inner.hi).word

    @pytest.mark.parametrize("w", ["0101", "10"])
    def test_no_pair_is_ambiguous(self, w):
        with pytest.raises(AmbiguousWindow):
            desubstitute(CodingWindow(w, 0))

    def test_no_complete_block(self):
        with pytest.raises(AmbiguousWindow):
            desubstitute(CodingWindow("11", 0))

    def test_malformed_block(self):
        with pytest.raises(AmbiguousWindow):
            desubstitute(CodingWindow("11011", 0))

    @given(ep_seqs(), st.integers(0, 8), st.integers(10, 24))
    @settings(max_examples=150)
    def test_diagram_forward_windows(self, x, lo, length):
        # skip points whose forward orbit dead-ends at an alternating
        # sequence: the block tiling has nothing to commute with there
        assume(x.period not in ((0, 1), (1, 0)))
        win = coding(x, lo, lo + length)
        inner, _ = desubstitute(win)
        expected = coding(shift_drop(x), inner.lo, inner.hi)
        assert inner.word == expected.word

    def test_diagram_negative_window(self):
        # a point whose short past never hits the boundary orbits
        x = EpSeq.parse("11(01)")
        win = coding(x, -6, 0)
        inner, off = desubstitute(win)
        assert (inner.word, inner.lo, off) == ("100", -3, 0)
        assert inner.word == coding(shift_drop(x), -3, -1).word
