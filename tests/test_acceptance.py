"""Acceptance gate: the eleven release criteria, one test each.

Every test prints a single [criterion NN] PASS/FAIL line; the whole
module is expected to run in well under a minute.
"""

import random
import time

from morseadic import (
    DIFF_RULES,
    ZERO,
    EpSeq,
    add_integer,
    add_one,
    coding,
    morse_int,
    morse_successor,
    phi_prefix,
    shift_drop,
    substitution_fixed_point,
    successor_prefix,
    theta,
    theta_level_counts,
    thue_morse_digit,
    thue_morse_prefix,
    time_change_check,
    word_diff,
    word_flip,
)
from morseadic import verify


def _report(num: int, label: str, ok: bool, extra: str = "") -> None:
    tail = f" {extra}" if extra else ""
    print(f"[criterion {num:02d} {label}] {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_table_fixture():
    expected = (1, 3, 7, 2, 5, 15, 4, 6, 9, 11, 31, 10, 13, 8, 12, 14)
    got = tuple(morse_int(n) for n in range(16))
    _report(1, "integer-table", got == expected)


def test_criterion_02_dual_definition():
    start = time.perf_counter()
    bad = 0
    for n in range(-(2**16), 2**16):
        if morse_successor(EpSeq.from_integer(n)) != EpSeq.from_integer(morse_int(n)):
            bad += 1
    elapsed = time.perf_counter() - start
    _report(2, "dual-rule-agreement", bad == 0 and elapsed < 5.0,
            f"({elapsed:.2f}s)")


def test_criterion_03_thue_morse():
    n = 2**16
    prefix = thue_morse_prefix(n)
    mismatches = sum(1 for i in range(n) if int(prefix[i]) != thue_morse_digit(i))
    ok = mismatches == 0 and thue_morse_prefix(16) == "0110100110010110"
    _report(3, "fixed-word-generator", ok)


def test_criterion_04_diagram_suite():
    rep = verify.suite_diagrams(samples=10**4, seed=1304, integer_span=2**12)
    _report(4, "diagram-suite", not rep.failures,
            f"(cases={rep.cases} excluded={rep.excluded})")


def test_criterion_05_shift_relations():
    bad = 0
    excluded = 0

    def check(x):
        nonlocal bad
        if add_one(shift_drop(x)) != shift_drop(add_one(add_one(x))):
            bad += 1
        if morse_successor(shift_drop(x)) != shift_drop(
            morse_successor(morse_successor(x))
        ):
            bad += 1

    for n in range(0, 2**12):
        check(EpSeq.from_integer(n))
    rng = random.Random(1305)
    for _ in range(10**3):
        x = verify.random_epseq(rng)
        if x.period in ((0, 1), (1, 0)):
            excluded += 1
            continue
        check(x)
    _report(5, "shift-relations", bad == 0, f"(excluded={excluded})")


def test_criterion_06_time_change():
    bad = 0
    excluded = 0
    for n in range(-(2**14), 2**14 + 1):
        x = EpSeq.from_integer(n)
        if morse_successor(x) != add_integer(x, theta(x)):
            bad += 1
    rng = random.Random(1306)
    for _ in range(10**3):
        x = verify.random_epseq(rng)
        if x.period in ((0, 1), (1, 0)) and not x.preperiod:
            excluded += 1
            continue
        if not time_change_check(x):
            bad += 1
    _report(6, "time-change", bad == 0, f"(excluded={excluded})")


def test_criterion_07_singularity_profile():
    ok = True
    for m in range(2, 21):
        counts = theta_level_counts(m)
        for k in range(1, m):
            if counts[k] != 2 ** (m - k):
                ok = False
    _report(7, "level-counts", ok)


def test_criterion_08_derived_fixed_point():
    n = 2**14
    derived = word_diff(thue_morse_prefix(n + 1))
    fixed = substitution_fixed_point(DIFF_RULES, "1", n)
    ok = derived == fixed and derived.startswith("1011101010")
    _report(8, "difference-word", ok)


def test_criterion_09_solenoid_suite():
    rep = verify.suite_solenoid(samples=10**3, seed=1306)
    _report(9, "solenoid-suite", not rep.failures,
            f"(cases={rep.cases} excluded={rep.excluded})")


def test_criterion_10_coding():
    fwd = coding(ZERO, 0, 2**12 - 1)
    back = coding(ZERO, -(2**8), -1, extend=True)
    ok = (
        fwd.word == thue_morse_prefix(2**12)
        and back.word == word_flip(thue_morse_prefix(2**8))[::-1]
    )
    _report(10, "orbit-coding", ok)


def test_criterion_11_cylinder_bijectivity():
    ok = True
    # one-sided map on digit prefixes
    for m in range(1, 17):
        images = []
        undetermined = 0
        for bits in range(1 << m):
            out = successor_prefix(bits, m)
            if out is None:
                undetermined += 1
                alternating = all(
                    (bits >> i) & 1 != (bits >> (i + 1)) & 1 for i in range(m - 1)
                )
                ok = ok and alternating
            else:
                images.append(out)
        ok = ok and undetermined == 2
        ok = ok and len(set(images)) == len(images) == (1 << m) - 2

    # two-sided map on left/right prefix pairs
    for m in range(1, 13):
        for r in range(0, m + 1):
            ell = m - r
            images = set()
            determined = 0
            undetermined_rights = 0
            for right in range(1 << r):
                dbits = (right ^ (right >> 1)) & ((1 << (r - 1)) - 1) if r else 0
                par = phi_prefix(dbits, r - 1) if r >= 1 else None
                succ = successor_prefix(right, r) if r >= 1 else None
                if par is None or succ is None:
                    undetermined_rights += 1
                    continue
                for left in range(1 << ell):
                    out_left = left ^ ((1 << ell) - 1) if par else left
                    images.add((out_left, succ))
                    determined += 1
            expected_undetermined = 2 if r >= 1 else 1
            ok = ok and undetermined_rights == expected_undetermined
            ok = ok and len(images) == determined
    _report(11, "cylinder-bijectivity", ok)
