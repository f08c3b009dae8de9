"""End-to-end runs of the command line entry point."""

import json
import re
import shlex
import time
from pathlib import Path

import pytest

from morseadic import (
    BiSeq,
    DomainError,
    DyadicRational,
    EpSeq,
    add_one,
    m_hat,
    m_hat_inv,
    morse_predecessor,
    morse_successor,
    pi,
    q2_translate,
    s_hat,
    subtract_one,
)
from morseadic.cli import main, parse_point
from morseadic.solenoid import conjugate

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTm:
    def test_prefix(self, capsys):
        code, out, _ = run(capsys, "tm", "16")
        assert code == 0
        assert out.strip() == "0110100110010110"

    def test_check_parity(self, capsys):
        code, out, _ = run(capsys, "tm", "256", "--check-parity")
        assert code == 0
        assert out.strip().endswith("mismatches=0")

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "tm", "8", "--format", "json-lines")
        assert code == 0
        rec = json.loads(out)
        assert rec == {"length": 8, "prefix": "01101001"}


class TestStep:
    def test_integer_point(self, capsys):
        code, out, _ = run(capsys, "step", "2")
        assert code == 0
        assert out.strip() == "111(0) = 7"

    def test_inverse(self, capsys):
        code, out, _ = run(capsys, "step", "5", "--inverse")
        assert code == 0
        assert out.strip() == "001(0) = 4"

    def test_alternating_needs_flag(self, capsys):
        code, _, err = run(capsys, "step", "(10)")
        assert code == 3
        assert "error" in err

    def test_alternating_with_flag(self, capsys):
        code, out, _ = run(capsys, "step", "(10)", "--extend-at-max")
        assert code == 0
        assert out.strip() == "(0) = 0"

    def test_count(self, capsys):
        code, out, _ = run(capsys, "step", "0", "-n", "4")
        assert code == 0
        # orbit of 0: 1, 3, 2, 7
        assert out.strip() == "111(0) = 7"

    def test_rational_point(self, capsys):
        code, out, _ = run(capsys, "step", "1/3", "--map", "odometer")
        assert code == 0
        assert out.strip() == "001(10) = 4/3"

    def test_unparseable_point(self, capsys):
        code, _, err = run(capsys, "step", "garbage")
        assert code == 2
        assert "error" in err

    def test_halving_even(self, capsys):
        code, out, _ = run(capsys, "step", "6", "--map", "double", "--inverse")
        assert code == 0
        assert out.strip() == "11(0) = 3"

    def test_halving_odd(self, capsys):
        code, _, err = run(capsys, "step", "5", "--map", "double", "--inverse")
        assert code == 3

    def test_diff_has_no_inverse(self, capsys):
        code, _, err = run(capsys, "step", "5", "--map", "diff", "--inverse")
        assert code == 2
        assert "2-to-1" in err

    def test_differentiate_alias_removed(self, capsys):
        code, out, err = run(capsys, "step", "5", "--map", "differentiate")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'differentiate'" in err

    def test_skew_route_matches_direct(self, capsys):
        code_a, out_a, _ = run(capsys, "step", "11", "--map", "skew")
        code_b, out_b, _ = run(capsys, "step", "11", "--map", "morse")
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize("inverse", [False, True])
    def test_far_count_matches_iteration(self, capsys, inverse):
        x = EpSeq.parse("(001)")
        for _ in range(4096):
            x = morse_predecessor(x) if inverse else morse_successor(x)
        flags = ["--inverse"] if inverse else []
        code, out, _ = run(capsys, "step", "(001)", "-n", "4096", *flags)
        assert code == 0
        assert out == f"{x} = {x.to_rational()}\n"

    @pytest.mark.parametrize("lit", ["-6", "1/3"])
    def test_odometer_count_matches_iteration(self, capsys, lit):
        for inverse in (False, True):
            x = parse_point(lit)
            for n in range(65):
                flags = ["--inverse"] if inverse else []
                code, out, _ = run(capsys, "step", lit, "--map", "odometer",
                                   "-n", str(n), *flags)
                assert code == 0
                assert out == f"{x} = {x.to_rational()}\n", (n, inverse)
                x = subtract_one(x) if inverse else add_one(x)

    @pytest.mark.parametrize("argv", [
        ["step", "0", "-n", "-5"],
        ["step", "0", "-n", "-1", "--map", "odometer", "--inverse"],
        ["step", "0", "-n", "-2", "--map", "shift"],
        ["orbit", "0", "-n", "-1"],
        ["solenoid-step", "(0).(0)", "-n", "-3"],
    ])
    def test_negative_count_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "count must be nonnegative" in err


class TestOrbit:
    def test_line_count(self, capsys):
        code, out, _ = run(capsys, "orbit", "0", "-n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("0\t(0) = 0")
        assert lines[1].startswith("1\t1(0) = 1")

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "orbit", "0", "-n", "3", "--format", "json-lines")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["value"] for r in recs] == ["0", "1", "3", "2"]


class TestTable:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "table", "0", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n\tM\tr\tcase\ttheta\tparity"
        assert lines[1] == "0\t1\t2\ti\t+1\t1"
        assert lines[4] == "3\t2\t2\tii\t-1\t1"

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "table", "-2", "2", "--format", "json-lines")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(recs) == 5
        assert recs[2] == {"n": 0, "morse": 1, "r": 2, "case": "i", "theta": 1, "parity": 1}
        for rec in recs:
            assert rec["morse"] == rec["n"] + rec["theta"]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "table", "5", "1")
        assert code == 2


class TestCode:
    def test_forward_window(self, capsys):
        code, out, _ = run(capsys, "code", "0", "0", "15")
        assert code == 0
        assert out.strip() == "0110100110010110"

    def test_dot_window(self, capsys):
        code, out, _ = run(capsys, "code", "0", "-4", "3", "--extend-at-max")
        assert code == 0
        assert out.strip() == "1001.0110"

    def test_backward_without_flag(self, capsys):
        code, _, err = run(capsys, "code", "0", "-4", "3")
        assert code == 3


class TestFactor:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "factor", "1001")
        assert code == 0
        assert out.strip() == "yes"

    def test_no(self, capsys):
        code, out, _ = run(capsys, "factor", "000")
        assert code == 0
        assert out.strip() == "no"

    def test_rejects_nonbinary(self, capsys):
        code, _, err = run(capsys, "factor", "01a")
        assert code == 2


class TestSolenoidStep:
    def test_successor(self, capsys):
        code, out, _ = run(capsys, "solenoid-step", "(0).(0)")
        assert code == 0
        assert out.strip() == "(1).1(0) | y=1(0) lam=0"

    def test_translate_half(self, capsys):
        code, out, _ = run(capsys, "solenoid-step", "(0).(0)", "--map", "translate", "--by", "1/2")
        assert code == 0
        assert out.strip() == "(0)1.(0) | y=(0) lam=1/2"

    def test_translate_inverse_cancels(self, capsys):
        args = ["solenoid-step", "(10)01.1(10)", "--map", "translate", "--by", "3/8"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        moved = out.split(" | ")[0]
        code2, out2, _ = run(capsys, args[0], moved, *args[2:], "--inverse")
        assert code2 == 0
        assert out2.strip() == "(10)01.1(10) | y=1(10) lam=7/12"

    def test_shift(self, capsys):
        code, out, _ = run(capsys, "solenoid-step", "(0)1.(0)", "--map", "shift")
        assert code == 0
        assert out.strip().startswith("(0).1(0)")

    def test_far_shift_folds(self, capsys):
        # without the fold, 10**9 digits would exhaust memory: fail fast
        # on a size whose materialized shift takes about a second
        start = time.perf_counter()
        assert s_hat(BiSeq.parse("(0).(0)"), 10**6) == BiSeq()
        assert time.perf_counter() - start < 0.1
        start = time.perf_counter()
        code, out, _ = run(capsys, "solenoid-step", "(0).(0)", "--map", "shift",
                           "-n", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == "(0).(0) | y=(0) lam=0\n"

    def test_diff_inverse_rejected(self, capsys):
        code, _, err = run(capsys, "solenoid-step", "(0).(0)", "--map", "diff", "--inverse")
        assert code == 2

    def test_successor_at_max_without_flag(self, capsys):
        code, _, err = run(capsys, "solenoid-step", "(0).(01)")
        assert code == 3

    @pytest.mark.parametrize("point,flags,step", [
        ("(011)1.01(001)", ["--level", "-3"], lambda x: conjugate(-3, m_hat, x)),
        ("(011)1.01(001)", ["--level", "2", "--inverse"],
         lambda x: conjugate(2, m_hat_inv, x)),
        ("(10)01.1(10)", ["--level", "-3", "--extend-at-max"],
         lambda x: conjugate(-3, lambda y: m_hat(y, extend_at_max=True), x)),
        ("(10)01.1(10)", ["--level", "-3"], lambda x: conjugate(-3, m_hat, x)),
        ("(0).(01)", ["--extend-at-max"], lambda x: m_hat(x, extend_at_max=True)),
        ("(0).(0)", ["--level", "2", "--inverse", "--extend-at-max"],
         lambda x: conjugate(2, lambda y: m_hat_inv(y, extend_at_min=True), x)),
        ("(011)1.01(001)", ["--map", "translate", "--by=-3/8", "--level", "2"],
         lambda x: conjugate(2, lambda y: q2_translate(DyadicRational(-3, 3), y), x)),
        ("(011)1.01(001)", ["--map", "shift"], lambda x: s_hat(x, 1)),
        ("(011)1.01(001)", ["--map", "shift", "--inverse"], lambda x: s_hat(x, -1)),
    ])
    def test_far_count_matches_iteration(self, capsys, point, flags, step):
        x = BiSeq.parse(point)
        try:
            for _ in range(4096):
                x = step(x)
        except DomainError as exc:
            want = 3, "", f"error: {exc}\n"
        else:
            c = pi(x)
            want = 0, f"{x} | y={c.y} lam={c.lam}\n", ""
        assert run(capsys, "solenoid-step", point, "-n", "4096", *flags) == want

    def test_translate_by_zero_denominator(self, capsys):
        code, out, err = run(capsys, "solenoid-step", "(0).(0)",
                             "--map", "translate", "--by", "1/0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestVerify:
    def test_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "40", "--seed", "9")
        assert code == 0
        assert out.count("failures=0") == 3

    def test_deterministic_modulo_wall_time(self, capsys):
        argv = ["verify", "--samples", "40", "--seed", "9", "--format", "json-lines"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)

        def scrub(raw):
            recs = [json.loads(line) for line in raw.strip().splitlines()]
            for rec in recs:
                rec.pop("wall_time")
            return recs

        assert scrub(out1) == scrub(out2)

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "arithmetic", "--samples", "30")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_golden_counts(self, capsys):
        # cases/failures/excluded per suite; a refactor must leave them as is
        code, out, _ = run(capsys, "verify", "--format", "json-lines",
                           "--samples", "200", "--seed", "42")
        assert code == 0
        counts = {}
        for line in out.splitlines():
            rec = json.loads(line)
            counts[rec["suite"]] = (rec["cases"], len(rec["failures"]), rec["excluded"])
        assert counts == {"diagrams": (7001, 0, 32), "arithmetic": (1215, 0, 11),
                          "solenoid": (5115, 0, 69)}

    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_nonpositive_samples_rejected(self, capsys, samples):
        code, out, err = run(capsys, "verify", "--suite", "solenoid", "--samples", samples)
        assert code == 2
        assert out == ""
        assert "samples must be at least 1" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_missing_argument(self, capsys):
        assert run(capsys, "step")[0] == 2


# README command lines whose trailing comment is their exact output
README_EXACT = (
    "tm 16",
    "step 2",
    "step 5 --inverse",
    'step "(10)" --extend-at-max',
    "code 0 -4 3 --extend-at-max",
    "factor 1001",
    'solenoid-step "(0).(0)"',
)


def _readme_examples() -> dict[str, str]:
    examples = {}
    for line in README.read_text().splitlines():
        m = re.match(r"morseadic (.+?)\s+# (.+)$", line)
        if m:
            examples[m.group(1)] = m.group(2)
    return examples


class TestReadmeExamples:
    @pytest.mark.parametrize("command", README_EXACT)
    def test_prints_its_comment(self, capsys, command):
        comment = _readme_examples()[command]
        code, out, _ = run(capsys, *shlex.split(command))
        assert code == 0
        assert out == comment + "\n"
