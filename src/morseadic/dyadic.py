"""Exact arithmetic on eventually periodic binary digit sequences.

A one-sided sequence x = x0 x1 x2 ... over {0,1} is stored as a finite
preperiod plus a repeating period, index 0 being the least significant
digit.  Under x -> sum(x_i * 2^i) these are exactly the 2-adic expansions
of rationals p/q with odd q; integers are the sequences with period (0)
or (1).

Canonical form: the period is primitive, and the preperiod is as short as
possible (its last digit never equals the last period digit, which would
let it fold into a rotated period).  Two values denote the same sequence
iff their canonical forms are identical, so ``==`` decides sequence
equality and every identity in this package can be tested exactly.

Text literals spell the preperiod and then the period in parentheses:
"01(10)" is 0,1,1,0,1,0,... (the expansion of 2/3), "(1)" is -1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import xor

from .errors import AlternatingPoint

_LITERAL = re.compile(r"^([01]*)\(([01]+)\)$")


def _primitive(per: tuple) -> tuple:
    k = len(per)
    for d in range(1, k):
        if k % d == 0 and per[:d] * (k // d) == per:
            return per[:d]
    return per


def _pack(digits) -> int:
    """The integer whose binary numeral, most significant digit first,
    is `digits`."""
    n = 0
    for b in digits:
        n = (n << 1) | b
    return n


def _canonical(pre: tuple, per: tuple):
    if len(per) > 1:
        per = _primitive(per)
    if not pre or pre[-1] != per[-1]:
        return pre, per
    pre = list(pre)
    # Fold a preperiod digit that matches the period's last digit into a
    # right-rotation of the period; repeats until the form is unique.
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = per[-1:] + per[:-1]
    return tuple(pre), per


@dataclass(frozen=True, slots=True, init=False)
class EpSeq:
    """An eventually periodic 0/1 sequence in canonical form.

    The constructor is the only way to build one: every construction
    checks every digit and canonicalizes, whichever function builds it.
    """

    preperiod: tuple
    period: tuple

    def __init__(self, preperiod=(), period=(0,)):
        pre, per = tuple(preperiod), tuple(period)
        if not per:
            raise ValueError("period must be nonempty")
        # bools compare equal to 0/1 but would print as True/False
        for b in pre:
            if type(b) is not int or (b != 0 and b != 1):
                raise ValueError("digits must be the ints 0 or 1")
        for b in per:
            if type(b) is not int or (b != 0 and b != 1):
                raise ValueError("digits must be the ints 0 or 1")
        pre, per = _canonical(pre, per)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_integer(cls, n: int) -> "EpSeq":
        if n >= 0:
            bits = []
            while n:
                bits.append(n & 1)
                n >>= 1
            return cls(tuple(bits), (0,))
        m = -n - 1  # two's complement: digits are the flip of m's digits
        bits = []
        while m:
            bits.append(1 - (m & 1))
            m >>= 1
        return cls(tuple(bits), (1,))

    @classmethod
    def from_rational(cls, p: int, q: int) -> "EpSeq":
        """Expansion of p/q for odd q.  Digits come from repeatedly
        peeling the low bit: x0 = p mod 2, then p <- (p - x0*q) / 2.
        The numerator state eventually cycles, giving the period."""
        if q == 0 or q % 2 == 0:
            raise ValueError("denominator must be odd")
        if q < 0:
            p, q = -p, -q
        seen = {}
        digits = []
        n = p
        while n not in seen:
            seen[n] = len(digits)
            bit = n & 1
            digits.append(bit)
            n = (n - bit * q) >> 1
        cut = seen[n]
        return cls(tuple(digits[:cut]), tuple(digits[cut:]))

    @classmethod
    def parse(cls, text: str) -> "EpSeq":
        m = _LITERAL.match(text)
        if not m:
            raise ValueError(f"not a sequence literal: {text!r}")
        pre = tuple(int(c) for c in m.group(1))
        per = tuple(int(c) for c in m.group(2))
        return cls(pre, per)

    # -- accessors ----------------------------------------------------

    def digit(self, i: int) -> int:
        if i < 0:
            raise IndexError("digit index must be nonnegative")
        pre = self.preperiod
        if i < len(pre):
            return pre[i]
        per = self.period
        return per[(i - len(pre)) % len(per)]

    def to_rational(self) -> Fraction:
        """Exact value sum(x_i 2^i) as a Fraction with odd denominator."""
        m, k = len(self.preperiod), len(self.period)
        head = _pack(reversed(self.preperiod))
        tail = _pack(reversed(self.period))
        # geometric tail: 2^m * tail / (1 - 2^k), cleared to a positive odd
        # denominator 2^k - 1
        return Fraction(head * ((1 << k) - 1) - (tail << m), (1 << k) - 1)

    def flip(self) -> "EpSeq":
        """Complement every digit; the value becomes -x - 1."""
        return EpSeq(
            tuple(1 - b for b in self.preperiod),
            tuple(1 - b for b in self.period),
        )

    def is_min(self) -> bool:
        """True for the two constant sequences (no predecessor)."""
        return not self.preperiod and self.period in ((0,), (1,))

    def is_max(self) -> bool:
        """True for the two alternating sequences (no successor)."""
        return not self.preperiod and self.period in ((0, 1), (1, 0))

    def is_eventually_constant(self) -> bool:
        return self.period in ((0,), (1,))

    def is_eventually_alternating(self) -> bool:
        return self.period in ((0, 1), (1, 0))

    def is_cofinal(self, other: "EpSeq") -> bool:
        """True when the two sequences differ in only finitely many digits."""
        start = max(len(self.preperiod), len(other.preperiod))
        span = lcm(len(self.period), len(other.period))
        return all(
            self.digit(i) == other.digit(i) for i in range(start, start + span)
        )

    def __str__(self) -> str:
        pre = "".join(str(b) for b in self.preperiod)
        per = "".join(str(b) for b in self.period)
        return f"{pre}({per})"


ZERO = EpSeq((), (0,))
MINUS_ONE = EpSeq((), (1,))
ALT_01 = EpSeq((), (0, 1))  # value -2/3
ALT_10 = EpSeq((), (1, 0))  # value -1/3


def _tail(x: EpSeq, n: int):
    """(preperiod, period) of the tail of x starting at index n."""
    pre, per = x.preperiod, x.period
    if n <= len(pre):
        return pre[n:], per
    j = (n - len(pre)) % len(per)
    return (), per[j:] + per[:j]


def _split(x: EpSeq, n: int):
    """First n digits as a list, plus (preperiod, period) of the tail
    starting at index n.  Computes the tail inline rather than through
    _tail: every successor step and carry runs through here."""
    pre, per = x.preperiod, x.period
    m, k = len(pre), len(per)
    if n <= m:
        return list(pre[:n]), pre[n:], per
    head = list(pre) + [per[i % k] for i in range(n - m)]
    j = (n - m) % k
    return head, (), per[j:] + per[:j]


def add_one(x: EpSeq) -> EpSeq:
    """The odometer x + 1; the all-ones sequence wraps to all zeros."""
    return add_integer(x, 1)


def subtract_one(x: EpSeq) -> EpSeq:
    """Inverse of add_one; all zeros wraps to all ones."""
    return add_integer(x, -1)


def add_integer(x: EpSeq, t: int) -> EpSeq:
    """Exact x + t by binary carry arithmetic.

    Python's arithmetic right shift gives the two's-complement digits of
    t, which are its 2-adic digits, so one carry loop covers both signs.
    Past t's significant digits every digit of t equals its sign digit,
    and once the carry equals that digit too, the remaining digits of x
    come through unchanged and are kept as one slice.  A carry that
    never settles runs through a constant tail and turns it into the
    other constant.
    """
    pre, per = x.preperiod, x.period
    m, k = len(pre), len(per)
    n = t.bit_length()
    sign = 1 if t < 0 else 0
    digits = []
    carry = 0
    i = 0
    while i < n or carry != sign:
        if i >= n and i >= m and per == (carry,):
            return EpSeq(tuple(digits), (1 - carry,))
        s = (pre[i] if i < m else per[(i - m) % k]) + ((t >> i) & 1) + carry
        digits.append(s & 1)
        carry = s >> 1
        i += 1
    _, tpre, tper = _split(x, i)
    return EpSeq(tuple(digits) + tpre, tper)


def differentiate(x: EpSeq) -> EpSeq:
    """Adjacent-digit sum mod 2: digit i of the result is x_i xor x_{i+1}.

    Constant sequences map to all zeros, alternating ones to all ones,
    and a sequence and its flip have the same image.
    """
    pre, per = x.preperiod, x.period
    seq = pre + per + per[:1]
    d = tuple(map(xor, seq, seq[1:]))
    return EpSeq(d[: len(pre)], d[len(pre) :])


def integrate(y: EpSeq, x0: int) -> EpSeq:
    """Invert differentiate given the starting digit x0.

    x_{n+1} = x_n xor y_n, a running parity of y's prefix.  If the xor of
    y's period is 1 the result's period doubles (a second pass flips it).
    The two preimages of y are integrate(y, 0) and its flip.
    """
    if x0 not in (0, 1):
        raise ValueError("starting digit must be 0 or 1")
    m, k = len(y.preperiod), len(y.period)
    s = x0
    pre = []
    for i in range(m):
        pre.append(s)
        s ^= y.digit(i)
    span = k if sum(y.period) % 2 == 0 else 2 * k
    per = []
    for i in range(span):
        per.append(s)
        s ^= y.digit(m + i)
    return EpSeq(tuple(pre), tuple(per))


def shift_drop(x: EpSeq) -> EpSeq:
    """Drop digit 0, i.e. x -> (x - x_0) / 2.  Two-to-one."""
    if x.preperiod:
        return EpSeq(x.preperiod[1:], x.period)
    return EpSeq((), x.period[1:] + x.period[:1])


def double(x: EpSeq) -> EpSeq:
    """Prepend a zero digit, i.e. x -> 2x.  shift_drop(double(x)) == x."""
    return EpSeq((0,) + x.preperiod, x.period)


def first_pair_index(x: EpSeq) -> int:
    """Least k >= 1 with digit(k-1) == digit(k).

    Only the two purely alternating sequences have no such k; scanning one
    preperiod plus one full period (with wraparound) decides.
    """
    m, k = len(x.preperiod), len(x.period)
    prev = x.digit(0)
    for i in range(1, m + k + 1):
        cur = x.digit(i)
        if cur == prev:
            return i
        prev = cur
    raise AlternatingPoint(f"{x} has no adjacent equal digits")


@dataclass(frozen=True, slots=True)
class DyadicRational:
    """num / 2**exp in lowest terms (num odd unless exp == 0)."""

    num: int
    exp: int

    def __post_init__(self):
        if self.exp < 0:
            raise ValueError("exponent must be nonnegative")
        num, exp = self.num, self.exp
        if num == 0:
            exp = 0
        else:
            # strip the common factors of two with one shift
            twos = min(exp, (num & -num).bit_length() - 1)
            num >>= twos
            exp -= twos
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "DyadicRational":
        d = f.denominator
        e = d.bit_length() - 1
        if d != 1 << e:
            raise ValueError(f"{f} is not a dyadic rational")
        return cls(f.numerator, e)

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        try:
            return cls.from_fraction(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {text!r}") from None

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational.from_fraction(self.as_fraction() + other.as_fraction())

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"
