import random
import time
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import ep_seqs, seq_pairs
from morseadic import (
    ALT_01,
    ALT_10,
    MINUS_ONE,
    ZERO,
    EpSeq,
    MaxPoint,
    MinPoint,
    add_integer,
    coding,
    differentiate,
    morse_power,
    morse_predecessor,
    morse_successor,
    orbit_index,
    phi,
    step_parity,
    theta,
)
from morseadic.adic import (
    Ordering,
    OrbitClass,
    classify_orbit,
    compare,
    f_inv,
    f_map,
    phi_prefix,
    skew_step,
    skew_unstep,
    successor_prefix,
)
from morseadic.verify import random_epseq

MORSE_TABLE = (1, 3, 7, 2, 5, 15, 4, 6, 9, 11, 31, 10, 13, 8, 12, 14)


def _int_less(a: int, b: int) -> bool:
    # order comparator on nonnegative integers: decide at the highest
    # disagreeing bit by the next bit's value
    if a == b:
        return False
    j = (a ^ b).bit_length() - 1
    shared = (a >> (j + 1)) & 1
    return (a >> j) & 1 == shared


def scan_compare(x: EpSeq, y: EpSeq) -> Ordering:
    """Reference: decide at the last disagreement within one common
    period past both preperiods, by the next digit the points share."""
    if x == y:
        return Ordering.EQUAL
    start = max(len(x.preperiod), len(y.preperiod))
    top = start + lcm(len(x.period), len(y.period))
    if any(x.digit(i) != y.digit(i) for i in range(start, top)):
        return Ordering.INCOMPARABLE
    j = next(i for i in range(top - 1, -1, -1) if x.digit(i) != y.digit(i))
    less = x.digit(j) == x.digit(j + 1)
    return Ordering.LESS if less else Ordering.GREATER


class TestCompare:
    def test_reflexive(self):
        x = EpSeq.from_integer(9)
        assert compare(x, x) is Ordering.EQUAL

    def test_successor_chain_is_increasing(self):
        pts = [EpSeq.from_integer(0)]
        for _ in range(15):
            pts.append(morse_successor(pts[-1]))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert compare(pts[i], pts[j]) is Ordering.LESS
                assert compare(pts[j], pts[i]) is Ordering.GREATER

    def test_non_cofinal_points_incomparable(self):
        assert compare(ZERO, MINUS_ONE) is Ordering.INCOMPARABLE

    @given(ep_seqs())
    def test_flip_incomparable(self, x):
        assert compare(x, x.flip()) is Ordering.INCOMPARABLE

    def test_matches_integer_comparator(self):
        for a in range(64):
            for b in range(64):
                expected = Ordering.LESS if _int_less(a, b) else (
                    Ordering.EQUAL if a == b else Ordering.GREATER)
                got = compare(EpSeq.from_integer(a), EpSeq.from_integer(b))
                assert got is expected, (a, b)

    @settings(max_examples=500)
    @given(seq_pairs())
    def test_matches_digit_scan(self, pair):
        x, y = pair
        assert compare(x, y) is scan_compare(x, y)

    def test_long_periods_are_fast(self):
        rng = random.Random(10)
        per = tuple(rng.randrange(2) for _ in range(100_000))
        x = EpSeq((1, 1, 0), per)
        y = add_integer(x, -12345)
        start = time.perf_counter()
        got = compare(x, y), compare(y, x)
        assert time.perf_counter() - start < 0.05
        assert got == (Ordering.GREATER, Ordering.LESS)


class TestSuccessor:
    @pytest.mark.parametrize("n", range(16))
    def test_integer_table(self, n):
        assert morse_successor(EpSeq.from_integer(n)) == \
            EpSeq.from_integer(MORSE_TABLE[n])

    def test_undefined_on_alternating_points(self):
        with pytest.raises(MaxPoint):
            morse_successor(ALT_01)
        with pytest.raises(MaxPoint):
            morse_successor(ALT_10)

    def test_extension(self):
        assert morse_successor(ALT_01, extend_at_max=True) == MINUS_ONE
        assert morse_successor(ALT_10, extend_at_max=True) == ZERO

    @given(ep_seqs())
    def test_image_is_strictly_greater(self, x):
        assume(not x.is_max())
        assert compare(x, morse_successor(x)) is Ordering.LESS

    def test_image_is_least_upper_neighbor(self):
        from morseadic.arith import morse_int

        # exhaustive minimality on an integer grid
        for n in range(1024):
            succ = None
            for k in range(4096):
                if _int_less(n, k) and (succ is None or _int_less(k, succ)):
                    succ = k
            assert succ == morse_int(n)


class TestPredecessor:
    def test_undefined_on_constant_points(self):
        with pytest.raises(MinPoint):
            morse_predecessor(ZERO)
        with pytest.raises(MinPoint):
            morse_predecessor(MINUS_ONE)

    def test_extension(self):
        assert morse_predecessor(ZERO, extend_at_min=True) == ALT_10
        assert morse_predecessor(MINUS_ONE, extend_at_min=True) == ALT_01

    @given(ep_seqs())
    def test_inverse_of_successor(self, x):
        assume(not x.is_max())
        assert morse_predecessor(morse_successor(x)) == x

    @given(ep_seqs())
    def test_successor_of_predecessor(self, y):
        assume(not y.is_min())
        assert morse_successor(morse_predecessor(y)) == y

    def test_extension_round_trip(self):
        y = morse_predecessor(ZERO, extend_at_min=True)
        assert morse_successor(y, extend_at_max=True) == ZERO


_ENDS = (ZERO, MINUS_ONE, ALT_01, ALT_10)


def _iterate(x, n, extend):
    for _ in range(abs(n)):
        if n > 0:
            x = morse_successor(x, extend_at_max=extend)
        else:
            x = morse_predecessor(x, extend_at_min=extend)
    return x


def _outcome(f, *args):
    """The result, or the type and message of the domain error raised."""
    try:
        return f(*args)
    except (MaxPoint, MinPoint) as exc:
        return type(exc), str(exc)


power_points = st.one_of(
    st.integers(0, 2**32).map(lambda seed: random_epseq(random.Random(seed))),
    st.integers(-64, 63).map(EpSeq.from_integer),
    st.sampled_from(_ENDS),
    st.builds(lambda end, j: _iterate(end, j, True),
              st.sampled_from(_ENDS), st.integers(-8, 8)),
)


class TestMorsePower:
    @settings(max_examples=500)
    @given(power_points, st.integers(-64, 64), st.booleans())
    def test_agrees_with_iteration(self, x, n, extend):
        assert _outcome(morse_power, x, n, extend) == _outcome(_iterate, x, n, extend)

    @pytest.mark.parametrize("end", _ENDS, ids=str)
    def test_jumps_across_the_ends(self, end):
        # every start within 3 steps of an end, every jump of at most 8
        for j in range(-3, 4):
            x = _iterate(end, j, True)
            for n in range(-8, 9):
                for extend in (False, True):
                    assert _outcome(morse_power, x, n, extend) == \
                        _outcome(_iterate, x, n, extend), (x, n, extend)

    @pytest.mark.parametrize("lit", ["(001)", "1(0010)", "0(0011)", "101(0)", "110100(10)"])
    @pytest.mark.parametrize("lo,hi", [(4000, 4031), (-4031, -4000)])
    def test_far_coding_window(self, lit, lo, hi):
        x = EpSeq.parse(lit)
        pt = _iterate(x, lo, True)
        letters = [str(pt.digit(0))]
        for _ in range(lo, hi):
            pt = morse_successor(pt, extend_at_max=True)
            letters.append(str(pt.digit(0)))
        window = coding(x, lo, hi, extend=True)
        assert (window.word, window.lo) == ("".join(letters), lo)


class TestOrbitIndex:
    @settings(max_examples=500)
    @given(power_points, st.integers(-(2**20), 2**20))
    def test_inverts_morse_power(self, x, n):
        y = _outcome(morse_power, x, n)
        assume(isinstance(y, EpSeq))
        assert orbit_index(x, y) == n

    @pytest.mark.parametrize("end", _ENDS, ids=str)
    def test_inverts_morse_power_on_the_exceptional_semiorbits(self, end):
        for j in range(-40, 41):
            x = _iterate(end, j, True)
            for n in range(-40, 41):
                y = _outcome(morse_power, x, n)
                if isinstance(y, EpSeq):
                    assert orbit_index(x, y) == n, (x, n)

    @given(ep_seqs())
    def test_flip_is_on_another_orbit(self, x):
        assert orbit_index(x, x.flip()) is None

    @given(seq_pairs())
    def test_none_exactly_off_the_orbit(self, pair):
        x, y = pair
        assert (orbit_index(x, y) is None) == (scan_compare(x, y) is Ordering.INCOMPARABLE)

    def test_examples(self):
        assert orbit_index(ZERO, EpSeq.from_integer(2)) == 3
        assert orbit_index(EpSeq.from_integer(2), ZERO) == -3
        assert orbit_index(ZERO, MINUS_ONE) is None
        assert orbit_index(EpSeq.parse("(001)"), EpSeq.parse("(011)")) is None


class TestCocycles:
    def test_leading_run_parity(self):
        assert phi(EpSeq.from_integer(1)) == 0
        assert phi(EpSeq.from_integer(7)) == 0
        assert phi(ZERO) == 1
        assert phi(MINUS_ONE) == 1
        assert phi(EpSeq.from_integer(3)) == 1

    def test_step_parity_differs_from_plain_run_parity(self):
        # the step at 7 is odd (7 -> 6) though 7 has an odd leading run
        seven = EpSeq.from_integer(7)
        assert phi(seven) == 0
        assert step_parity(seven) == 1

    @given(ep_seqs())
    def test_step_parity_is_step_size_parity(self, x):
        assume(not x.is_max())
        assert step_parity(x) == theta(x) % 2

    @given(ep_seqs())
    def test_step_parity_via_difference(self, x):
        assume(not x.is_max())
        y = morse_successor(x)
        assert (y.to_rational() - x.to_rational()) % 2 == step_parity(x)


class TestSkewRoute:
    @given(ep_seqs())
    def test_pair_map_round_trip(self, x):
        assert f_inv(f_map(x)) == x

    @given(ep_seqs())
    def test_successor_through_skew_product(self, x):
        assume(not x.is_max())
        assert f_inv(skew_step(f_map(x))) == morse_successor(x)

    @given(ep_seqs())
    def test_inverse_route(self, x):
        assume(not x.is_min())
        assert f_inv(skew_unstep(f_map(x))) == morse_predecessor(x)

    @given(ep_seqs())
    def test_diff_intertwines_with_odometer(self, x):
        assume(not x.is_max())
        assert differentiate(morse_successor(x)) == \
            add_integer(differentiate(x), 1)


class TestFlipEquivariance:
    @given(ep_seqs())
    def test_successor_commutes_with_flip(self, x):
        assume(not x.is_max())
        assert morse_successor(x.flip()) == morse_successor(x).flip()


class TestOrbitClassification:
    @pytest.mark.parametrize("lit,cls", [
        ("(0)", OrbitClass.POS_SEMIORBIT_ZEROS),
        ("(1)", OrbitClass.POS_SEMIORBIT_ONES),
        ("(01)", OrbitClass.NEG_SEMIORBIT_01),
        ("(10)", OrbitClass.NEG_SEMIORBIT_10),
        ("110100(10)", OrbitClass.NEG_SEMIORBIT_10),
        ("1101(0)", OrbitClass.POS_SEMIORBIT_ZEROS),
        ("0010(1)", OrbitClass.POS_SEMIORBIT_ONES),
        ("(0011)", OrbitClass.GENERIC),
        ("0(0011)", OrbitClass.GENERIC),
        ("(001)", OrbitClass.GENERIC),
        ("(011)", OrbitClass.GENERIC),
        ("1(0010)", OrbitClass.GENERIC),
    ])
    def test_known_classes(self, lit, cls):
        assert classify_orbit(EpSeq.parse(lit)) is cls

    def test_integer_six_reaches_zero(self):
        assert classify_orbit(EpSeq.from_integer(6)) is \
            OrbitClass.POS_SEMIORBIT_ZEROS

    def test_far_integer_needs_no_budget(self):
        assert classify_orbit(EpSeq.from_integer(100)) is \
            OrbitClass.POS_SEMIORBIT_ZEROS

    def test_late_pair_alternating_point(self):
        x = EpSeq.parse("01" * 3000 + "0(01)")
        assert classify_orbit(x) is OrbitClass.NEG_SEMIORBIT_10

    @given(ep_seqs())
    def test_agrees_with_bounded_iteration(self, x):
        # an end met within 64 steps either way (steps 0..64) must be the
        # one named; in particular a GENERIC point never meets one
        ends = {
            ZERO: OrbitClass.POS_SEMIORBIT_ZEROS,
            MINUS_ONE: OrbitClass.POS_SEMIORBIT_ONES,
            ALT_10: OrbitClass.NEG_SEMIORBIT_10,
            ALT_01: OrbitClass.NEG_SEMIORBIT_01,
        }
        cls = classify_orbit(x)
        back = fwd = x
        for _ in range(65):
            for p in (back, fwd):
                if p in ends:
                    assert cls is ends[p]
                    return
            back, fwd = morse_predecessor(back), morse_successor(fwd)

    def test_class_values_are_stable_strings(self):
        assert OrbitClass.GENERIC.value == "Generic"
        assert OrbitClass.POS_SEMIORBIT_ZEROS.value == "PosSemiorbitOfZeros"
        assert OrbitClass.NEG_SEMIORBIT_01.value == "NegSemiorbitOf01"


def loop_successor_prefix(bits: int, m: int) -> int | None:
    """Reference: scan the prefix for its first adjacent equal pair."""
    for k in range(1, m):
        if (bits >> k) & 1 == (bits >> (k - 1)) & 1:
            mask = (1 << k) - 1
            return bits | mask if (bits >> k) & 1 == 0 else bits & ~mask
    return None


def loop_phi_prefix(bits: int, m: int) -> int | None:
    """Reference: scan the prefix for its first 0."""
    for i in range(m):
        if (bits >> i) & 1 == 0:
            return 1 if i % 2 == 0 else 0
    return None


class TestPrefixMaps:
    def test_alternating_prefixes_undetermined(self):
        for m in range(2, 10):
            alt0 = sum(1 << i for i in range(1, m, 2))
            alt1 = sum(1 << i for i in range(0, m, 2))
            assert successor_prefix(alt0, m) is None
            assert successor_prefix(alt1, m) is None

    def test_determined_prefixes_match_full_map(self):
        m = 8
        completions = [((0,), ()), ((1,), ()), ((0, 1), ()), ((1, 1, 0), ())]
        for bits in range(1 << m):
            image = successor_prefix(bits, m)
            if image is None:
                continue
            for per, _ in completions:
                x = EpSeq(tuple((bits >> i) & 1 for i in range(m)), per)
                y = morse_successor(x)
                got = sum(y.digit(i) << i for i in range(m))
                assert got == image, (bits, per)

    def test_bit_rules_match_digit_loops(self):
        for m in range(13):
            for bits in range(1 << m):
                assert successor_prefix(bits, m) == loop_successor_prefix(bits, m)
                assert phi_prefix(bits, m) == loop_phi_prefix(bits, m)

    def test_phi_prefix_agrees_with_phi(self):
        for bits in range(1 << 8):
            p = phi_prefix(bits, 8)
            x = EpSeq(tuple((bits >> i) & 1 for i in range(8)), (0,))
            if p is None:
                assert all((bits >> i) & 1 for i in range(8))
            else:
                assert p == phi(x)
