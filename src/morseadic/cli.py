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
from functools import cache, partial
from typing import Callable

from .dyadic import (
    DyadicRational,
    EpSeq,
    _tail,
    add_integer,
    differentiate,
    double,
    shift_drop,
)
from .adic import f_inv, f_map, morse_power, skew_step, skew_unstep
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


def _value(x: EpSeq) -> str:
    return str(x.to_rational())


def _emit(args, plain: str, record: dict) -> None:
    if args.format == "json-lines":
        print(json.dumps(record))
    else:
        print(plain)


def _halve(x: EpSeq) -> EpSeq:
    if x.digit(0) == 1:
        raise DomainError(f"{x} is odd: not in the image of doubling")
    return shift_drop(x)


def _iterate(step, unstep=None):
    """The n-step function of a map with no closed form: n single steps,
    or |n| steps of the inverse when n < 0."""
    def power(x, n, extend=False):
        f = step if n >= 0 else unstep
        for _ in range(abs(n)):
            x = f(x)
        return x
    return power


# Each --map as one function (x, n, extend) -> the n-th image of x, the
# |n|-th preimage when n < 0; closed forms where the map has one.
_STEP_POWERS = {
    "morse": morse_power,
    "skew": _iterate(lambda x: f_inv(skew_step(f_map(x))),
                     lambda x: f_inv(skew_unstep(f_map(x)))),
    "odometer": lambda x, n, e: add_integer(x, n),
    "diff": _iterate(differentiate),
    "shift": lambda x, n, e: EpSeq(*_tail(x, n)),
    "double": _iterate(double, _halve),
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
    text, value = str(x), _value(x)
    _emit(args, f"{text} = {value}", {"point": text, "value": value})
    return 0


def cmd_orbit(args) -> int:
    n = _count(args)
    power = _step_power(args)
    x = parse_point(args.point)
    for i in range(abs(n) + 1):
        text, value = str(x), _value(x)
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
    ok = substitution.is_factor(args.word, args.window)
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

        def power(x, n):
            return solenoid.q2_translate(DyadicRational(n * q.num, q.exp), x)
    else:
        def power(x, n):
            return solenoid.m_power(x, n, args.extend_at_max)
    return lambda x, n: solenoid.conjugate(args.level, partial(power, n=n), x)


def cmd_solenoid_step(args) -> int:
    n = _count(args)
    x = solenoid.BiSeq.parse(args.point)
    x = _solenoid_power(args)(x, n)
    coord = solenoid.pi(x)
    _emit(args, f"{x} | y={coord.y} lam={coord.lam}",
          {"point": str(x), "y": str(coord.y), "lam": str(coord.lam)})
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
    p.add_argument("--window", type=int, default=None)
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
