"""Command-line front end.

Subcommands: tm, step, orbit, table, code, factor, solenoid-step,
verify.  Points are written as signed integers, rationals p/q with odd
q, or sequence literals like "01(10)"; two-sided points as
"(p)abc.xyz(q)".  Flags --format/--seed/--extend-at-max follow the
subcommand.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain error (stepping an alternating/constant point without
--extend-at-max).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .dyadic import (
    DyadicRational,
    EpSeq,
    add_integer,
    add_one,
    differentiate,
    double,
    shift_drop,
    subtract_one,
)
from .adic import (
    f_inv,
    f_map,
    morse_power,
    morse_predecessor,
    morse_successor,
    skew_step,
    skew_unstep,
)
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


@dataclass(frozen=True)
class _StepMap:
    forward: Callable[[EpSeq, bool], EpSeq]
    inverse: Callable[[EpSeq, bool], EpSeq] | None
    # closed form for n steps (negative n: inverse steps), if the map has one
    power: Callable[[EpSeq, int, bool], EpSeq] | None = None


def _halve(x: EpSeq, extend: bool) -> EpSeq:
    if x.digit(0) == 1:
        raise DomainError(f"{x} is odd: not in the image of doubling")
    return shift_drop(x)


_STEP_MAPS = {
    "morse": _StepMap(
        lambda x, e: morse_successor(x, extend_at_max=e),
        lambda x, e: morse_predecessor(x, extend_at_min=e),
        morse_power),
    "skew": _StepMap(
        lambda x, e: f_inv(skew_step(f_map(x))),
        lambda x, e: f_inv(skew_unstep(f_map(x)))),
    "odometer": _StepMap(lambda x, e: add_one(x), lambda x, e: subtract_one(x),
                         lambda x, n, e: add_integer(x, n)),
    "diff": _StepMap(lambda x, e: differentiate(x), None),
    "differentiate": _StepMap(lambda x, e: differentiate(x), None),
    "shift": _StepMap(lambda x, e: shift_drop(x), None),
    "double": _StepMap(lambda x, e: double(x), _halve),
}


def _resolve_step(args) -> Callable[[EpSeq], EpSeq]:
    spec = _STEP_MAPS[args.map]
    if args.inverse:
        if spec.inverse is None:
            raise ValueError(f"map {args.map!r} is 2-to-1: no --inverse")
        return lambda x: spec.inverse(x, args.extend_at_max)
    return lambda x: spec.forward(x, args.extend_at_max)


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


def _count(args) -> int:
    if args.count < 0:
        raise ValueError("count must be nonnegative")
    return args.count


def cmd_step(args) -> int:
    count = _count(args)
    step = _resolve_step(args)
    x = parse_point(args.point)
    power = _STEP_MAPS[args.map].power
    if power is not None:
        x = power(x, -count if args.inverse else count, args.extend_at_max)
    else:
        for _ in range(count):
            x = step(x)
    _emit(args, f"{x} = {_value(x)}", {"point": str(x), "value": _value(x)})
    return 0


def cmd_orbit(args) -> int:
    count = _count(args)
    step = _resolve_step(args)
    x = parse_point(args.point)
    for i in range(count + 1):
        _emit(args, f"{i}\t{x} = {_value(x)}",
              {"step": i, "point": str(x), "value": _value(x)})
        if i < count:
            x = step(x)
    return 0


def cmd_table(args) -> int:
    if args.start > args.end:
        raise ValueError("table range start exceeds end")
    if args.format != "json-lines":
        print("n\tM\tr\tcase\ttheta\tparity")
    for n in range(args.start, args.end + 1):
        m = morse_int(n)
        tag = classify(EpSeq.from_integer(n))
        th = theta(EpSeq.from_integer(n))
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


def _resolve_solenoid_step(args) -> Callable[[solenoid.BiSeq], solenoid.BiSeq]:
    if args.map == "shift":
        return lambda x: solenoid.s_hat(x, -1 if args.inverse else 1)
    if args.map == "diff":
        if args.inverse:
            raise ValueError("map 'diff' is 2-to-1: no --inverse")
        return solenoid.d_hat
    if args.map == "translate":
        q = DyadicRational.parse(args.by)
        if args.inverse:
            q = DyadicRational(-q.num, q.exp)
        f = partial(solenoid.q2_translate, q)
    elif args.inverse:
        f = partial(solenoid.m_hat_inv, extend_at_min=args.extend_at_max)
    else:
        f = partial(solenoid.m_hat, extend_at_max=args.extend_at_max)
    return partial(solenoid.conjugate, args.level, f)


def cmd_solenoid_step(args) -> int:
    count = _count(args)
    x = solenoid.BiSeq.parse(args.point)
    step = _resolve_solenoid_step(args)
    for _ in range(count):
        x = step(x)
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


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--map", choices=sorted(_STEP_MAPS), default="morse")
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
