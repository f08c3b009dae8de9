"""Integer-level behaviour of the reordering map and its step sizes."""

import pytest
from hypothesis import given, strategies as st

from morseadic import (
    ALT_01,
    EpSeq,
    MaxPoint,
    a_of,
    classify,
    morse_int,
    morse_successor,
    step_parity,
    theta,
    theta_level_counts,
    time_change_check,
)
from morseadic.verify import MORSE_TABLE, level_census


class TestStepSizes:
    @pytest.mark.parametrize("r,value", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 5), (5, 10)])
    def test_small_values(self, r, value):
        assert a_of(r) == value

    def test_recurrence(self):
        # consecutive step sizes pair up to one less than a power of two
        for r in range(1, 31):
            assert a_of(r - 1) + a_of(r) == 2 ** (r - 1) - 1

    def test_exact_formula(self):
        for r in range(0, 31):
            num = 2**r - 1 if r % 2 == 0 else 2**r - 2
            assert num % 3 == 0
            assert a_of(r) == num // 3


class TestIntegerMap:
    def test_first_sixteen(self):
        for n, m in enumerate(MORSE_TABLE):
            assert morse_int(n) == m

    def test_matches_sequence_map(self):
        for n in range(-512, 512):
            seq = morse_successor(EpSeq.from_integer(n))
            assert seq == EpSeq.from_integer(morse_int(n))

    @pytest.mark.parametrize("n", [1, -1, 37, -37, 2**40 + 5, -(2**40) - 5])
    def test_flip_law(self, n):
        assert morse_int(-n) == -morse_int(n - 1) - 1

    @given(st.integers(-(2**60), 2**60))
    def test_flip_law_property(self, n):
        assert morse_int(-n) == -morse_int(n - 1) - 1

    def test_never_fixed(self):
        for n in range(-256, 256):
            assert morse_int(n) != n


class TestClassification:
    @pytest.mark.parametrize(
        "n,r,case",
        [
            (0, 2, "i"),
            (1, 3, "i"),
            (2, 4, "i"),
            (3, 2, "ii"),
            (5, 5, "i"),
            (7, 2, "ii"),
            (10, 6, "i"),
        ],
    )
    def test_small_integers(self, n, r, case):
        tag = classify(EpSeq.from_integer(n))
        assert tag.r == r
        assert tag.case == case

    def test_case_from_pair_value(self):
        for n in range(-128, 128):
            x = EpSeq.from_integer(n)
            tag = classify(x)
            k = tag.r - 1
            assert x.digit(k - 1) == x.digit(k) == tag.pair_value
            assert tag.case == ("i" if tag.pair_value == 0 else "ii")

    def test_alternating_has_no_class(self):
        with pytest.raises(MaxPoint):
            classify(ALT_01)


class TestTheta:
    @pytest.mark.parametrize("n,step", [(0, 1), (1, 2), (3, -1), (5, 10), (7, -1), (2, 5)])
    def test_integer_steps(self, n, step):
        assert theta(EpSeq.from_integer(n)) == step
        assert morse_int(n) == n + step

    def test_step_sign_matches_case(self):
        for n in range(-200, 200):
            x = EpSeq.from_integer(n)
            tag = classify(x)
            t = theta(x)
            if tag.case == "i":
                assert t == a_of(tag.r)
            else:
                assert t == -a_of(tag.r)

    @given(st.integers(-(2**32), 2**32))
    def test_parity_agrees_with_cocycle(self, n):
        x = EpSeq.from_integer(n)
        assert theta(x) % 2 == step_parity(x)

    def test_residue_constraints(self):
        # the class of n is visible mod 2**r
        for n in range(-(2**10), 2**10):
            tag = classify(EpSeq.from_integer(n))
            r = tag.r
            if tag.case == "i":
                assert n % 2**r == a_of(r - 1) % 2**r
            else:
                assert n % 2**r == (2 ** (r - 1) + a_of(r)) % 2**r

    def test_residues_are_mutually_exclusive(self):
        # each modulus pins down exactly one residue per case, and the
        # two families never collide
        seen = set()
        for r in range(2, 30):
            res_i = a_of(r - 1) % 2**r
            res_ii = (2 ** (r - 1) + a_of(r)) % 2**r
            assert res_i != res_ii
            for prev_r, prev in seen:
                # coarser classes must not swallow finer ones
                assert res_i % 2**prev_r != prev
                assert res_ii % 2**prev_r != prev
            seen.add((r, res_i))
            seen.add((r, res_ii))


class TestTimeChange:
    @given(st.integers(-(2**24), 2**24))
    def test_on_integers(self, n):
        assert time_change_check(EpSeq.from_integer(n))

    def test_on_rationals(self):
        for p in range(-40, 40):
            for q in (3, 5, 7, 9, 11):
                x = EpSeq.from_rational(p, q)
                if x in (ALT_01, ALT_01.flip()):
                    continue
                assert time_change_check(x)


class TestLevelCounts:
    def test_closed_form(self):
        for m in range(1, 21):
            counts = theta_level_counts(m)
            assert set(counts) == set(range(1, m))
            for k in range(1, m):
                assert counts[k] == 2 ** (m - k)

    def test_matches_enumeration(self):
        for m in range(2, 13):
            brute: dict[int, int] = {}
            for n in range(2**m):
                r = classify(EpSeq.from_integer(n)).r
                k = r - 1
                brute[k] = brute.get(k, 0) + 1
            expected = theta_level_counts(m)
            # levels below m are counted exactly; the two leftovers sit
            # at level >= m
            for k in range(1, m):
                assert brute[k] == expected[k]
            tail = sum(v for k, v in brute.items() if k >= m)
            assert tail == 2

    def test_one_pass_census_matches_nested_loop(self):
        # the per-m enumeration verify ran before the one-pass census
        oracle = {}
        for m in range(2, 13):
            counts: dict[int, int] = {}
            for bits in range(1 << m):
                for k in range(1, m):
                    if (bits >> (k - 1)) & 1 == (bits >> k) & 1:
                        counts[k] = counts.get(k, 0) + 1
                        break
            oracle[m] = counts
        assert level_census() == oracle

    def test_total(self):
        for m in range(2, 21):
            assert sum(theta_level_counts(m).values()) == 2**m - 2

    @pytest.mark.parametrize("m", [0, 25, -3])
    def test_range_validation(self, m):
        with pytest.raises(ValueError):
            theta_level_counts(m)
