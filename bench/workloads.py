"""Seeded workloads: the ops each benchmark run times, with their checks.

Every workload is a closed loop with one client: op i is generated,
timed and checked before op i + 1 is generated.  Ops follow a fixed
cycle of (kind, size band, parameter) slots, and the seed draws the
concrete points, signs and offsets inside each slot, so that two seeds
give the same mix of costs and different inputs.  Where a parameter is
drawn inside its slot (a shift level, an exponent), the draw depends on
the op index only: a few ops that cost 100 times the median set much of
a run's total, and a seeded draw would make the total vary with the seed.

The library is called only through its module attributes (never names
bound here at import), so a tracer that rebinds those attributes sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from morseadic import adic, arith, cli, dyadic, solenoid, substitution, verify
from morseadic.errors import BoundExceeded, DomainError

EXCLUDED = "excluded"


@dataclass
class Op:
    """One timed call.  check(result) returns None for a right answer or
    a description of the wrong answer."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    undefined: bool = False  # the oracle puts the input outside the domain
    generic: bool = False  # the point's orbit is GENERIC
    digits: int = 0  # operand digits, preperiod plus period
    steps: int = 0  # orbit positions the answer spans
    cases: Callable[[object], int] | None = None  # identity checks made


def verdict_for_error(op: Op, exc: Exception) -> str:
    """Outcome of an op that raised, as 'excluded' or 'error:<reason>'."""
    if isinstance(exc, DomainError) and op.undefined:
        return EXCLUDED
    if isinstance(exc, BoundExceeded):
        return "error:BoundExceeded-" + ("generic" if op.generic else "exceptional")
    return "error:" + type(exc).__name__


class CliDomainError(DomainError):
    """The CLI exited with code 3, its documented domain-error status."""


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process CLI call: (exit code, stdout); exit code 3 raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 3:
        raise CliDomainError(err.getvalue().strip())
    return code, out.getvalue()


def _cli_check(undefined: bool, expect_text: Callable[[], str]):
    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if undefined:
            return "answered outside the domain"
        want = expect_text()
        return None if text == want else f"printed {text!r}, expected {want!r}"
    return check


def _seq_line(seq) -> str:
    return f"{oracle.literal(oracle.expand(seq))} = {seq}"


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    slots = 1  # size/parameter slots per kind; cycle = len(kinds) * slots
    trace_cycles = 1  # cycles the traced run replays per 10 s of --seconds
    rate = ""  # the workload's own unit of work: cases, steps or digits
    speed_reference = "standard"  # the host speed kernel, see speed.py

    def __init__(self, seed: int):
        self.seed = seed
        self.points: list[tuple[int, int]] = []  # (p, q) built during set-up
        self.pairs: list[tuple[int, int]] = []  # BiSeq halves, indices into points

    @property
    def cycle(self) -> int:
        return len(self.kinds) * self.slots

    def op(self, i: int) -> Op:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        self.params = random.Random(f"{self.name}:params:{i}")
        kind = self.kinds[i % len(self.kinds)]
        slot = (i // len(self.kinds)) % self.slots
        return getattr(self, "_op_" + kind)(rng, slot)


# -- orbits -----------------------------------------------------------------


class Orbits(Workload):
    """Short points taken to far orbit positions: cost follows the orbit
    distance, not the point size.

    Two known defects are kept out of the timed ops, so that no timed op
    fails, and are measured by census() instead, on fixed seeded inputs:
    classify_orbit raising BoundExceeded at its default budget (on every
    GENERIC point whose period lacks a 00 or an 11 pair, and on
    exceptional points far from their end), and coding raising MaxPoint
    on a window that ends on the alternating point.  The timed
    classify_orbit op classifies exceptional points at a band distance
    with that band's budget, and a coding window that would end on the
    alternating point moves one step earlier.
    """

    name = "orbits"
    kinds = ("coding", "cli_step", "cli_orbit", "cli_code", "classify_orbit", "compare")
    bands = ((1, 8), (8, 64), (64, 512), (512, 4096))
    slots = len(bands)
    trace_cycles = 80
    rate = "steps"
    window = 32
    census_points = 600  # classify_orbit draws, as verify.random_epseq makes them
    census_windows = 40  # coding windows ending on the alternating point
    ends = {"POS_SEMIORBIT_ZEROS": ((), (0,)), "POS_SEMIORBIT_ONES": ((), (1,)),
            "NEG_SEMIORBIT_10": ((), (1, 0)), "NEG_SEMIORBIT_01": ((), (0, 1))}

    def _point(self, rng: random.Random):
        """A short point as verify.random_epseq draws them, or an integer."""
        if rng.random() < 0.25:
            n = rng.randrange(-(1 << 12), 1 << 12)
            return n, oracle.expand(n)
        pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
        per = tuple(rng.randrange(2) for _ in range(rng.randint(1, 6)))
        return None, (pre, per)

    def _distance(self, rng, slot) -> int:
        return _log_uniform(rng, *self.bands[slot])

    @staticmethod
    def _orbit(n, seq, lo, hi):
        """Orbit points at times lo..hi, or None if one is outside the
        domain: integer walks for integers, the conjugacy otherwise."""
        if n is None:
            pts = [oracle.orbit_point(seq, t) for t in range(lo, hi + 1)]
            return None if None in pts else pts
        m = oracle.int_walk(n, lo)
        if m is None:
            return None
        pts = []
        for _ in range(lo, hi + 1):
            pts.append(oracle.expand(m))
            m = oracle.morse_int(m)
        return pts

    def _letters(self, n, seq, lo, hi):
        pts = self._orbit(n, seq, lo, hi)
        return None if pts is None else "".join(str(oracle.digit(p, 0)) for p in pts)

    @staticmethod
    def _last_time(seq) -> int | None:
        """Orbit time of the alternating point on an eventually alternating
        orbit (the successor is undefined past it), else None."""
        if oracle.tail_kind(seq) != "alt":
            return None
        return -1 - int(oracle.value(*oracle.diff(seq)))

    def _window(self, seq, lo, width):
        """(lo, hi) of a width-letter window, one step earlier if it would
        end on the alternating point (see the class docstring)."""
        if lo + width - 1 == self._last_time(seq):
            lo -= 1
        return lo, lo + width - 1

    def _common(self, rng, slot):
        n, seq = self._point(rng)
        lit = str(n) if n is not None else oracle.literal(seq)
        return n, seq, lit, self._distance(rng, slot), rng.choice((1, -1))

    def _op_coding(self, rng, slot):
        n, seq, _, dist, sign = self._common(rng, slot)
        lo, hi = self._window(seq, sign * dist, self.window)
        x = dyadic.EpSeq(*seq)
        want = self._letters(n, seq, lo, hi)
        generic = oracle.tail_kind(seq) == "generic"

        def run():
            window = substitution.coding(x, lo, hi)
            return window, substitution.desubstitute(window) if generic else None

        def check(result):
            if want is None:
                return "answered outside the domain"
            window, parsed = result
            if (window.word, window.lo) != (want, lo):
                return f"coding {window.word}@{window.lo}, expected {want}@{lo}"
            if parsed is None:
                return None
            (inner, offset) = parsed
            dropped = (seq[0][1:], seq[1]) if seq[0] else ((), seq[1][1:] + seq[1][:1])
            a = min(inner.lo, (lo + 1) // 2)
            b = max(inner.hi, hi // 2 + 1)
            letters = dict(zip(range(a, b + 1), self._letters(None, dropped, a, b)))
            if inner.word != "".join(letters[t] for t in range(inner.lo, inner.hi + 1)):
                return f"desubstitute gave {inner.word}@{inner.lo}"
            for s in range(lo + (offset - lo) % 2, hi, 2):
                c = want[s - lo]
                if c != letters[(s + 1) // 2] or want[s + 1 - lo] == c:
                    return f"block at {s} does not carry the inner letter"
            return None

        return Op("coding", run, check, undefined=want is None, generic=generic,
                  digits=sum(map(len, seq)), steps=dist + self.window)

    def _op_cli_step(self, rng, slot):
        n, seq, lit, dist, sign = self._common(rng, slot)
        argv = ["step", lit, "-n", str(dist)] + (["--inverse"] if sign < 0 else [])
        end = self._orbit(n, seq, sign * dist, sign * dist)
        end = end and end[0]
        check = _cli_check(end is None, lambda: _seq_line(oracle.value(*end)) + "\n")
        return Op("cli_step", lambda: _run_cli(argv), check, undefined=end is None,
                  digits=sum(map(len, seq)), steps=dist)

    def _op_cli_orbit(self, rng, slot):
        n, seq, lit, dist, sign = self._common(rng, slot)
        count = max(1, dist // 16)
        argv = ["orbit", lit, "-n", str(count)] + (["--inverse"] if sign < 0 else [])
        pts = self._orbit(n, seq, *sorted((0, sign * count)))
        undefined = pts is None
        if sign < 0 and pts:
            pts.reverse()

        def expect():
            return "".join(f"{t}\t{_seq_line(oracle.value(*p))}\n" for t, p in enumerate(pts))

        return Op("cli_orbit", lambda: _run_cli(argv), _cli_check(undefined, expect),
                  undefined=undefined, digits=sum(map(len, seq)), steps=count)

    def _op_cli_code(self, rng, slot):
        n, seq, lit, dist, sign = self._common(rng, slot)
        lo, hi = self._window(seq, sign * dist, 16)
        argv = ["code", lit, str(lo), str(hi)]
        want = self._letters(n, seq, lo, hi)

        def expect():
            cut = -lo if lo < 0 <= hi else None
            return (want if cut is None else want[:cut] + "." + want[cut:]) + "\n"

        return Op("cli_code", lambda: _run_cli(argv), _cli_check(want is None, expect),
                  undefined=want is None, digits=sum(map(len, seq)), steps=dist + 16)

    def _op_classify_orbit(self, rng, slot):
        """A point dist steps from the end of an exceptional semiorbit,
        classified with the band's largest distance as budget."""
        want = rng.choice(sorted(self.ends))
        dist = self._distance(rng, slot)
        seq = oracle.orbit_point(self.ends[want], -dist if "NEG" in want else dist)
        x = dyadic.EpSeq(*seq)
        bound = self.bands[slot][1]

        def check(result):
            return None if result.name == want else f"{result.name}, expected {want}"

        return Op("classify_orbit", lambda: adic.classify_orbit(x, bound), check,
                  digits=sum(map(len, seq)), steps=dist)

    def census(self) -> dict[str, Counter]:
        """Outcomes of the two known defects on fixed seeded inputs, by op:
        'ok', 'wrong' or 'error:<reason>'.  Untimed."""
        rng = random.Random(f"{self.name}:{self.seed}:census")
        out = {"classify_orbit": Counter(), "coding": Counter()}
        for _ in range(self.census_points):
            seq = _draw_epseq(rng)
            want = oracle.orbit_class(seq)
            op = Op("classify_orbit", None, None, generic=want == "GENERIC")
            try:
                got = adic.classify_orbit(dyadic.EpSeq(*seq))
            except Exception as exc:
                out["classify_orbit"][verdict_for_error(op, exc)] += 1
            else:
                out["classify_orbit"]["ok" if got.name == want else "wrong"] += 1
        for _ in range(self.census_windows):
            pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
            seq = (pre, rng.choice(((0, 1), (1, 0))))
            hi = self._last_time(seq)
            lo = hi - self.window + 1
            want = self._letters(None, seq, lo, hi)
            op = Op("coding", None, None)
            try:
                got = substitution.coding(dyadic.EpSeq(*seq), lo, hi)
            except Exception as exc:
                out["coding"][verdict_for_error(op, exc)] += 1
            else:
                out["coding"]["ok" if got.word == want else "wrong"] += 1
        return out

    def _op_compare(self, rng, slot):
        n, seq, _, dist, sign = self._common(rng, slot)
        shift = sign * dist
        other = self._orbit(n, seq, shift, shift)
        other = other and other[0]
        if other is None:
            shift, other = 0, seq
        x, y = dyadic.EpSeq(*seq), dyadic.EpSeq(*other)
        want = "LESS" if shift > 0 else "GREATER" if shift < 0 else "EQUAL"

        def check(result):
            return None if result.name == want else f"{result.name}, expected {want}"

        return Op("compare", lambda: adic.compare(x, y), check,
                  digits=sum(map(len, seq)) + sum(map(len, other)))


# -- verify -----------------------------------------------------------------


def _draw_epseq(rng: random.Random):
    """The draws verify.random_epseq makes, replayed without the library."""
    pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
    per = tuple(rng.randrange(2) for _ in range(rng.randint(1, 6)))
    return pre, per


def _is_max(seq) -> bool:
    return oracle.value(*seq) in (Fraction(-1, 3), Fraction(-2, 3))


def _report_check(rep, cases: int | None, total: int, min_excluded: int):
    if rep.failures:
        f = rep.failures[0]
        return f"{len(rep.failures)} failures, first {f.input}: {f.expected} != {f.got}"
    if getattr(rep, "exceptions", 0):
        return f"{rep.exceptions} exceptions"
    if rep.cases + rep.excluded != total or rep.excluded < min_excluded:
        return f"cases={rep.cases} excluded={rep.excluded}, expected {total} in all"
    if cases is not None and rep.cases != cases:
        return f"cases={rep.cases}, expected {cases}"
    return None


class Verify(Workload):
    """The release-gate suites on seeded chunks plus the dual-rule loop:
    many small points, so per-call overhead dominates."""

    name = "verify"
    kinds = ("suite_diagrams", "suite_arithmetic", "suite_solenoid", "dual_rule")
    trace_cycles = 120
    rate = "cases"
    diagram_samples, integer_span = 24, 8
    arithmetic_samples = 24
    solenoid_samples = 4
    chunk = 256

    def _op_suite_diagrams(self, rng, slot):
        seed = rng.randrange(1 << 31)
        draw = random.Random(seed)
        points = [_draw_epseq(draw) for _ in range(self.diagram_samples)]
        points += [oracle.expand(n) for n in range(-self.integer_span, self.integer_span)]
        cases = excluded = 0
        for seq in points:
            cases += 3
            if _is_max(seq):
                excluded += 1
                continue
            cases += 5
            if oracle.tail_kind(seq) == "alt":
                excluded += 1
                continue
            cases += 2
        run = lambda: verify.suite_diagrams(self.diagram_samples, seed, self.integer_span)
        return Op("suite_diagrams", run,
                  lambda rep: _report_check(rep, cases, cases + excluded, excluded),
                  digits=sum(len(p) + len(q) for p, q in points),
                  cases=lambda rep: rep.cases)

    def _op_suite_arithmetic(self, rng, slot):
        seed = rng.randrange(1 << 31)
        draw = random.Random(seed)
        s = self.arithmetic_samples
        points = [_draw_epseq(draw) for _ in range(s)]
        excluded = sum(map(_is_max, points))
        cases = 16 + 4 * s + (s - 1) + (s - excluded) + 11
        return Op("suite_arithmetic", lambda: verify.suite_arithmetic(s, seed),
                  lambda rep: _report_check(rep, cases, cases + excluded, excluded),
                  digits=sum(len(p) + len(q) for p, q in points),
                  cases=lambda rep: rep.cases)

    def _op_suite_solenoid(self, rng, slot):
        seed = rng.randrange(1 << 31)
        draw = random.Random(seed)
        total = maxed = digits = 0
        for _ in range(self.solenoid_samples):
            left, right = _draw_epseq(draw), _draw_epseq(draw)
            for _q in ("q1", "q2"):  # DyadicRational(randint(-64, 64), randint(0, 10))
                draw.randint(-64, 64)
                draw.randint(0, 10)
            digits += sum(map(len, left)) + sum(map(len, right))
            total += 21 + (1 if _is_max(right) else 5)
            maxed += _is_max(right)
        return Op("suite_solenoid",
                  lambda: verify.suite_solenoid(self.solenoid_samples, seed),
                  lambda rep: _report_check(rep, None, total, maxed),
                  digits=digits, cases=lambda rep: rep.cases)

    def _op_dual_rule(self, rng, slot):
        start = -(1 << 16) + self.chunk * rng.randrange((1 << 17) // self.chunk)
        ns = range(start, start + self.chunk)

        def run():
            out = []
            for n in ns:
                s = adic.morse_successor(dyadic.EpSeq.from_integer(n))
                m = arith.morse_int(n)
                out.append((s, m, s == dyadic.EpSeq.from_integer(m)))
            return out

        def check(result):
            for n, (s, m, same) in zip(ns, result):
                want = oracle.morse_int(n)
                if m != want or oracle.seq_value(s) != want or not same:
                    return f"dual rule at {n}: {s}, {m}, expected {want}"
            return None

        return Op("dual_rule", run, check,
                  digits=sum(n.bit_length() + 1 for n in ns), cases=lambda r: len(r))


# -- long-period points -------------------------------------------------------


class _Wide(Workload):
    """Points p/q with seeded odd q whose period sits just above a fixed
    target, so each point has a known digit count whatever the seed.
    Targets rise geometrically from about 1000 to 8000 digits, in
    bands of per_band points."""

    bands = 4
    per_band = 3
    rate = "digits"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}:points")
        count = self.bands * self.per_band
        for k in range(count):
            self.points.append(self._rational(rng, int(1000 * 8 ** ((k + 0.5) / count))))
        # BiSeq halves: two points of one band
        for i in range(len(self.points)):
            j = i + 1 if (i + 1) % self.per_band else i + 1 - self.per_band
            self.pairs.append((j, i))
        self.values = [Fraction(p, q) for p, q in self.points]
        self.seqs = [oracle.expand(v) for v in self.values]
        self.built: list = []
        self.bis: list = []

    @staticmethod
    def _rational(rng: random.Random, target: int) -> tuple[int, int]:
        while True:
            q = rng.randrange(target, 2 * target) | 1
            if target <= oracle.order_of_two(q) <= target * 1.04:
                break
        while True:
            p = rng.randrange(-(q << 24), q << 24)
            if math.gcd(p, q) == 1:
                return p, q

    def set_up(self) -> None:
        """Build the points the ops use; this is timed as part of setup_s."""
        self.built = [dyadic.EpSeq.from_rational(p, q) for p, q in self.points]
        self.bis = [solenoid.BiSeq(self.built[a], self.built[b]) for a, b in self.pairs]

    def _pick(self, rng, slot) -> int:
        return (slot % self.bands) * self.per_band + rng.randrange(self.per_band)

    def _stratum(self, slot) -> float:
        """A draw in [0, 1), uniform inside quarter slot // bands."""
        return (slot // self.bands + self.params.random()) / 4

    def _digits(self, k: int) -> int:
        return sum(map(len, self.seqs[k]))


def _value_check(want: Fraction):
    def check(result):
        got = oracle.seq_value(result)
        return None if got == want else f"value {got}, expected {want}"
    return check


class WideBuild(_Wide):
    """Every op builds new long points: cost follows digit count."""

    name = "wide-build"
    kinds = ("from_rational", "add_one", "add_integer", "morse_successor",
             "morse_predecessor", "differentiate", "integrate", "skew_step",
             "s_hat", "q2_translate")
    slots = 16  # band = slot % 4; slot // 4 is the quarter of the level or exponent range
    trace_cycles = 4
    speed_reference = "wide"

    def _op_from_rational(self, rng, slot):
        k = self._pick(rng, slot)
        q = self.points[k][1]
        p = self.points[k][0] + q * rng.randrange(-(1 << 20), 1 << 20)
        return Op("from_rational", lambda: dyadic.EpSeq.from_rational(p, q),
                  _value_check(Fraction(p, q)), digits=self._digits(k))

    def _op_add_one(self, rng, slot):
        k = self._pick(rng, slot)
        x = self.built[k]
        return Op("add_one", lambda: dyadic.add_one(x),
                  _value_check(self.values[k] + 1), digits=self._digits(k))

    def _op_add_integer(self, rng, slot):
        k = self._pick(rng, slot)
        x, t = self.built[k], rng.choice((1, -1)) * rng.randrange(1, 1 << 20)
        return Op("add_integer", lambda: dyadic.add_integer(x, t),
                  _value_check(self.values[k] + t), digits=self._digits(k))

    def _op_morse_successor(self, rng, slot):
        k = self._pick(rng, slot)
        x, v = self.built[k], self.values[k]
        return Op("morse_successor", lambda: adic.morse_successor(x),
                  _value_check(v + oracle.theta(v)), digits=self._digits(k))

    def _op_morse_predecessor(self, rng, slot):
        k = self._pick(rng, slot)
        x, v = self.built[k], self.values[k]

        def check(result):
            # the time change at the answer must lead back to x
            got = oracle.seq_value(result)
            return None if got + oracle.theta(got) == v else f"predecessor {got} of {v}"

        return Op("morse_predecessor", lambda: adic.morse_predecessor(x), check,
                  digits=self._digits(k))

    def _op_differentiate(self, rng, slot):
        k = self._pick(rng, slot)
        x = self.built[k]
        return Op("differentiate", lambda: dyadic.differentiate(x),
                  _value_check(oracle.value(*oracle.diff(self.seqs[k]))),
                  digits=self._digits(k))

    def _op_integrate(self, rng, slot):
        k = self._pick(rng, slot)
        y, c = self.built[k], rng.randrange(2)
        want = self.values[k]

        def check(result):
            seq = (result.preperiod, result.period)
            if oracle.digit(seq, 0) != c or oracle.value(*oracle.diff(seq)) != want:
                return "integrate is not a preimage with the given first digit"
            return None

        return Op("integrate", lambda: dyadic.integrate(y, c), check,
                  digits=self._digits(k))

    def _op_skew_step(self, rng, slot):
        k = self._pick(rng, slot)
        x, v = self.built[k], self.values[k]
        return Op("skew_step", lambda: adic.f_inv(adic.skew_step(adic.f_map(x))),
                  _value_check(v + oracle.theta(v)), digits=self._digits(k))

    def _two_sided(self, rng, slot):
        k = self._pick(rng, slot)
        a, b = self.pairs[k]
        return self.bis[k], self.values[a], self.values[b], self._digits(a) + self._digits(b)

    @staticmethod
    def _halves_check(left: Fraction, right: Fraction):
        def check(result):
            got = oracle.seq_value(result.left), oracle.seq_value(result.right)
            return None if got == (left, right) else "halves differ from the shifted values"
        return check

    def _op_s_hat(self, rng, slot):
        x, left, right, digits = self._two_sided(rng, slot)
        level = rng.choice((1, -1)) * max(1, round(100 ** self._stratum(slot)))
        return Op("s_hat", lambda: solenoid.s_hat(x, level),
                  self._halves_check(*oracle.shift_two_sided(left, right, level)),
                  digits=digits)

    def _op_q2_translate(self, rng, slot):
        x, left, right, digits = self._two_sided(rng, slot)
        exp = int(31 * self._stratum(slot))
        num = rng.choice((1, -1)) * rng.randrange(1, 1 << 12)
        q = dyadic.DyadicRational(num, exp)
        return Op("q2_translate", lambda: solenoid.q2_translate(q, x),
                  self._halves_check(*oracle.q2_translate(num, exp, left, right)),
                  digits=digits)


class WideRead(_Wide):
    """Long points built once in set-up; every op only reads them."""

    name = "wide-read"
    # digit reads fill two slots: they are the commonest read, and with one
    # slot exactly half the ops would take microseconds and the rest
    # milliseconds, putting the median on that gap
    kinds = ("digit", "is_cofinal", "compare", "to_rational", "digit", "str", "pi",
             "first_pair_index", "theta")
    slots = 8  # band = slot % 4; slot // 4 picks a cofinal or a foreign partner
    trace_cycles = 50
    reads = 32

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}:partners")
        n = len(self.values)
        # partner 2k is x_k + t (cofinal), partner 2k+1 another point of the band
        for p, q in self.points[:n]:
            t = rng.choice((1, -1)) * rng.randrange(1, 1 << 16)
            self.points.append((p + t * q, q))
        self.values += [Fraction(p, q) for p, q in self.points[n:]]
        self.seqs += [oracle.expand(v) for v in self.values[n:]]
        self.low = [oracle.low_bits(v, 3 * self._digits(k) + 1)
                    for k, v in enumerate(self.values)]
        self.dvalues = [oracle.value(*oracle.diff(seq)) for seq in self.seqs]
        self._cofinal: dict[tuple[int, int], bool] = {}

    def _is_cofinal(self, k: int, j: int) -> bool:
        if (k, j) not in self._cofinal:
            self._cofinal[k, j] = oracle.cofinal(self.seqs[k], self.seqs[j])
        return self._cofinal[k, j]

    def _partner(self, k: int, slot: int) -> int:
        if slot // self.bands == 0:
            return len(self.values) // 2 + k
        return self.pairs[k][0]

    def _op_digit(self, rng, slot):
        k = self._pick(rng, slot)
        x = self.built[k]
        idx = [rng.randrange(3 * self._digits(k)) for _ in range(self.reads)]
        want = [(self.low[k] >> i) & 1 for i in idx]
        return Op("digit", lambda: list(map(x.digit, idx)),
                  lambda got: None if got == want else "digit reads differ",
                  digits=self._digits(k))

    def _op_is_cofinal(self, rng, slot):
        k = self._pick(rng, slot)
        j = self._partner(k, slot)
        x, y = self.built[k], self.built[j]
        want = self._is_cofinal(k, j)
        return Op("is_cofinal", lambda: x.is_cofinal(y),
                  lambda got: None if got is want else f"{got}, expected {want}",
                  digits=self._digits(k) + self._digits(j))

    def _op_compare(self, rng, slot):
        k = self._pick(rng, slot)
        j = self._partner(k, slot)
        x, y = self.built[k], self.built[j]
        if not self._is_cofinal(k, j):
            want = "INCOMPARABLE"
        else:
            # orbit distance from x to y is D(y) - D(x), an integer
            gap = self.dvalues[j] - self.dvalues[k]
            want = "LESS" if gap > 0 else "GREATER" if gap < 0 else "EQUAL"
        return Op("compare", lambda: adic.compare(x, y),
                  lambda got: None if got.name == want else f"{got.name}, expected {want}",
                  digits=self._digits(k) + self._digits(j))

    def _op_to_rational(self, rng, slot):
        k = self._pick(rng, slot)
        x, want = self.built[k], self.values[k]
        return Op("to_rational", lambda: x.to_rational(),
                  lambda got: None if got == want else f"{got}, expected {want}",
                  digits=self._digits(k))

    def _op_str(self, rng, slot):
        k = self._pick(rng, slot)
        x, want = self.built[k], oracle.literal(self.seqs[k])
        return Op("str", lambda: str(x),
                  lambda got: None if got == want else "literal differs",
                  digits=self._digits(k))

    def _op_pi(self, rng, slot):
        k = self._pick(rng, slot)
        a, b = self.pairs[k]
        x = self.bis[k]
        lam, y = oracle.binary_fraction(self.seqs[a]), self.values[b]

        def check(got):
            if got.lam != lam or oracle.seq_value(got.y) != y:
                return f"pi gave lam={got.lam}, expected {lam}"
            return None

        return Op("pi", lambda: solenoid.pi(x), check,
                  digits=self._digits(a) + self._digits(b))

    def _op_first_pair_index(self, rng, slot):
        k = self._pick(rng, slot)
        x, want = self.built[k], oracle.first_pair(self.values[k])[0]
        return Op("first_pair_index", lambda: dyadic.first_pair_index(x),
                  lambda got: None if got == want else f"{got}, expected {want}",
                  digits=self._digits(k))

    def _op_theta(self, rng, slot):
        k = self._pick(rng, slot)
        x, want = self.built[k], oracle.theta(self.values[k])
        return Op("theta", lambda: arith.theta(x),
                  lambda got: None if got == want else f"{got}, expected {want}",
                  digits=self._digits(k))


WORKLOADS = {w.name: w for w in (Verify, Orbits, WideBuild, WideRead)}


def build(name: str, seed: int) -> Workload:
    """Generate a workload's inputs and run its set-up."""
    wl = WORKLOADS[name](seed)
    if isinstance(wl, _Wide):
        wl.set_up()
    return wl
