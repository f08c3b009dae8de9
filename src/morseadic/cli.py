"""Command-line front end.

Subcommands: tm, step, orbit, table, code, factor, solenoid-step,
verify.  Points are written as signed integers, rationals p/q with odd
q, or sequence literals like "01(10)"; two-sided points as
"(p)abc.xyz(q)".  Flags --format/--seed/--extend-at-max follow the
subcommand.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain error (stepping an alternating/constant point without
--extend-at-max).

`main` can be called repeatedly in one process: the parser is built on
the first call and reused, and each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from decimal import Decimal
from functools import cache
from typing import Callable

from .dyadic import ZERO, DyadicRational, EpSeq, _tail, add_integer, differentiate
from .adic import morse_power
from .arith import classify, morse_int, theta
from .errors import DomainError
from . import solenoid, substitution, verify

_INT = re.compile(r"^[+-]?\d+$")
_RAT = re.compile(r"^([+-]?\d+)/(\d+)$")


def parse_point(text: str) -> EpSeq:
    if _INT.match(text):
        return EpSeq.from_integer(int(text))
    m = _RAT.match(text)
    if m:
        return EpSeq.from_rational(int(m.group(1)), int(m.group(2)))
    return EpSeq.parse(text)


def _exact(q) -> str:
    """str(q) for a Fraction, past str(int)'s 4300-digit limit too."""
    try:
        return str(q)
    except ValueError:
        num, den = Decimal(q.numerator), Decimal(q.denominator)
        return f"{num}" if den == 1 else f"{num}/{den}"


def _emit(args, plain: str, record: dict) -> None:
    if args.format == "json-lines":
        print(json.dumps(record))
    else:
        print(plain)


def _iterate(step):
    """The n-step function of a 2-to-1 map with no closed form: n single
    steps (n is never negative, as such a map takes no --inverse)."""
    def power(x, n, extend=False):
        for _ in range(n):
            x = step(x)
        return x
    return power


def _double_power(x: EpSeq, n: int, extend: bool = False) -> EpSeq:
    """2^n x: prepend n zeros, or drop |n| of them when n < 0, raising
    at the first odd point on the way as |n| halvings would."""
    if n >= 0:
        return x if x == ZERO else EpSeq((0,) * n + x.preperiod, x.period)
    # a 1 among the first -n digits shows within one preperiod and period
    for i in range(min(-n, len(x.preperiod) + len(x.period))):
        if x.digit(i):
            raise DomainError(f"{EpSeq(*_tail(x, i))} is odd: not in the image of doubling")
    return EpSeq(*_tail(x, -n))


# Each --map as one function (x, n, extend) -> the n-th image of x, the
# |n|-th preimage when n < 0; closed forms where the map has one.
_STEP_POWERS = {
    "morse": morse_power,
    # the skew product's fiber step continues past the four ends
    "skew": lambda x, n, e: morse_power(x, n, True),
    "odometer": lambda x, n, e: add_integer(x, n),
    "diff": _iterate(differentiate),
    "shift": lambda x, n, e: EpSeq(*_tail(x, n)),
    "double": _double_power,
}


def _no_inverse(args) -> None:
    if args.inverse:
        raise ValueError(f"map {args.map!r} is 2-to-1: no --inverse")


def _step_power(args) -> Callable[[EpSeq, int, bool], EpSeq]:
    if args.map in ("diff", "shift"):
        _no_inverse(args)
    return _STEP_POWERS[args.map]


def _count(args) -> int:
    """-n as a signed step count: negative under --inverse."""
    if args.count < 0:
        raise ValueError("count must be nonnegative")
    return -args.count if args.inverse else args.count


def cmd_tm(args) -> int:
    prefix = substitution.thue_morse_prefix(args.length)
    record: dict = {"length": args.length, "prefix": prefix}
    plain = prefix
    status = 0
    if args.check_parity:
        mismatches = sum(
            1 for i in range(args.length)
            if substitution.thue_morse_digit(i) != int(prefix[i]))
        record["mismatches"] = mismatches
        plain += f"\nmismatches={mismatches}"
        if mismatches:
            status = 1
    _emit(args, plain, record)
    return status


def cmd_step(args) -> int:
    n = _count(args)
    power = _step_power(args)
    x = power(parse_point(args.point), n, args.extend_at_max)
    text, value = str(x), _exact(x.to_rational())
    _emit(args, f"{text} = {value}", {"point": text, "value": value})
    return 0


def cmd_orbit(args) -> int:
    n = _count(args)
    power = _step_power(args)
    x = parse_point(args.point)
    for i in range(abs(n) + 1):
        text, value = str(x), _exact(x.to_rational())
        _emit(args, f"{i}\t{text} = {value}",
              {"step": i, "point": text, "value": value})
        if i < abs(n):
            x = power(x, -1 if n < 0 else 1, args.extend_at_max)
    return 0


def cmd_table(args) -> int:
    if args.start > args.end:
        raise ValueError("table range start exceeds end")
    if args.format != "json-lines":
        print("n\tM\tr\tcase\ttheta\tparity")
    for n in range(args.start, args.end + 1):
        m = morse_int(n)
        x = EpSeq.from_integer(n)
        tag = classify(x)
        th = theta(x)
        parity = (m - n) % 2
        _emit(args,
              f"{n}\t{m}\t{tag.r}\t{tag.case}\t{th:+d}\t{parity}",
              {"n": n, "morse": m, "r": tag.r, "case": tag.case,
               "theta": th, "parity": parity})
    return 0


def cmd_code(args) -> int:
    window = substitution.coding(
        parse_point(args.point), args.lo, args.hi, extend=args.extend_at_max)
    _emit(args, str(window),
          {"word": window.word, "lo": window.lo, "hi": window.hi})
    return 0


def cmd_factor(args) -> int:
    if not set(args.word) <= {"0", "1"}:
        raise ValueError(f"not a binary word: {args.word!r}")
    ok = substitution.is_factor(args.word)
    _emit(args, "yes" if ok else "no", {"word": args.word, "factor": ok})
    return 0


def _solenoid_power(args) -> Callable[[solenoid.BiSeq, int], solenoid.BiSeq]:
    """The two-sided --map as one function (x, n) -> the n-th image of x;
    morse and translate are conjugated by --level shifts."""
    if args.map == "shift":
        return solenoid.s_hat
    if args.map == "diff":
        _no_inverse(args)
        return _iterate(solenoid.d_hat)
    if args.map == "translate":
        q = DyadicRational.parse(args.by)
        return lambda x, n: solenoid.t_power(x, n * q.num, level=args.level - q.exp)
    return lambda x, n: solenoid.m_power(
        x, n, args.extend_at_max, level=args.level)


def cmd_solenoid_step(args) -> int:
    n = _count(args)
    x = solenoid.BiSeq.parse(args.point)
    x = _solenoid_power(args)(x, n)
    coord = solenoid.pi(x)
    lam = _exact(coord.lam)
    _emit(args, f"{x} | y={coord.y} lam={lam}",
          {"point": str(x), "y": str(coord.y), "lam": lam})
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    reports = verify.run_suites(args.suite, args.samples, args.seed)
    failed = False
    for rep in reports:
        if args.format == "json-lines":
            print(rep.to_json())
        else:
            print(rep.to_plain())
        failed = failed or bool(rep.failures)
    return 1 if failed else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no
    state between calls, so every main call can share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["plain", "json-lines"],
                        default="plain")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--extend-at-max", action="store_true",
                        help="extend step maps at their exceptional points")

    parser = argparse.ArgumentParser(
        prog="morseadic",
        description="Exact arithmetic for the adic successor on binary sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tm", parents=[common],
                       help="print a prefix of the fixed word")
    p.add_argument("length", type=int)
    p.add_argument("--check-parity", action="store_true",
                   help="cross-check against the bit-count parity formula")
    p.set_defaults(fn=cmd_tm)

    for name, cmd in (("step", cmd_step), ("orbit", cmd_orbit)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("point")
        p.add_argument("--map", choices=sorted(_STEP_POWERS), default="morse")
        p.add_argument("-n", "--count", type=int, default=1)
        p.add_argument("--inverse", action="store_true")
        p.set_defaults(fn=cmd)

    p = sub.add_parser("table", parents=[common],
                       help="successor table with step data per integer")
    p.add_argument("start", type=int)
    p.add_argument("end", type=int)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("code", parents=[common],
                       help="orbit coding window at digit 0")
    p.add_argument("point")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("factor", parents=[common],
                       help="membership of a word in the fixed word's language")
    p.add_argument("word")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("solenoid-step", parents=[common],
                       help="apply a two-sided map to a bi-sequence literal")
    p.add_argument("point")
    p.add_argument("--map", choices=["morse", "translate", "shift", "diff"],
                   default="morse")
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--level", type=int, default=0,
                   help="conjugate the map by this many shifts")
    p.add_argument("--by", default="1",
                   help="dyadic rational amount for --map translate")
    p.set_defaults(fn=cmd_solenoid_step)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named identity suite")
    p.add_argument("--suite", choices=["diagrams", "arithmetic", "solenoid", "all"],
                   default="all")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
