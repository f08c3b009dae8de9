"""Two-sided extension: exact points of the binary solenoid.

A BiSeq is a bi-infinite binary sequence ... x_{-2} x_{-1} . x_0 x_1 ...
with both tails eventually periodic, stored as a pair of one-sided
EpSeq halves.  These form the rational skeleton of the solenoid: dense,
closed under every map below, and exact, so identities can be tested as
structural equalities.

Maps: translation by one (t_hat), the invertible two-sided shift
(s_hat, k=1 is multiplication by 2), two-sided differentiation (d_hat),
the extended successor (m_hat) and its inverse, their shift conjugates
(conjugate, with the families t_family / m_family), and translation by
any dyadic rational (q2_translate), which together realize an action of
the group of dyadic rationals.

m_hat moves the right half one successor step and flips the left half
exactly when the step changes the right half's digit 0.  That choice is
forced: it is the only extension commuting with d_hat in the sense
t_hat(d_hat(x)) == d_hat(m_hat(x)) while restricting to the one-sided
successor on points with zero left half.  The per-step flips telescope,
so m_power jumps n steps at once: morse_power moves the right half, and
the left half flips iff the jump changes the right half's digit 0.
adic.step_parity, which reads the same flip off the differentiated
point, stays the independent reference: verify's coord-lambda check and
the left-flip-rule test compare m_hat against it, and the parity-law
check ties it to the integer step theta.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import dyadic
from .dyadic import (
    DyadicRational,
    EpSeq,
    _pack,
    _split,
    _tail,
    add_integer,
    add_one,
    differentiate,
)
from .adic import morse_power

_LITERAL = re.compile(r"^\(([01]+)\)([01]*)\.([01]*\([01]+\))$")


@dataclass(frozen=True, slots=True)
class BiSeq:
    """Exact two-sided binary sequence.

    right holds digits x_0, x_1, ...; left holds the other tail with
    left.digit(j) = x_{-1-j}, so left reads outward from the binary
    point.  Literal form "(p)abc.xyz(q)": the part before the dot is
    the left half written right to left (abc are x_{-3} x_{-2} x_{-1},
    p the left period), the part after is an ordinary right literal.
    """

    left: EpSeq = dyadic.ZERO
    right: EpSeq = dyadic.ZERO

    @classmethod
    def parse(cls, text: str) -> "BiSeq":
        m = _LITERAL.match(text)
        if not m:
            raise ValueError(f"not a two-sided literal: {text!r}")
        per = tuple(int(c) for c in reversed(m.group(1)))
        pre = tuple(int(c) for c in reversed(m.group(2)))
        return cls(EpSeq(pre, per), EpSeq.parse(m.group(3)))

    def digit(self, n: int) -> int:
        if n >= 0:
            return self.right.digit(n)
        return self.left.digit(-n - 1)

    def flip(self) -> "BiSeq":
        return BiSeq(self.left.flip(), self.right.flip())

    def __str__(self) -> str:
        per = "".join(str(b) for b in reversed(self.left.period))
        pre = "".join(str(b) for b in reversed(self.left.preperiod))
        return f"({per}){pre}.{self.right}"


@dataclass(frozen=True, slots=True)
class SolenoidCoord:
    """Coordinate chart (y, lam): the right half as a 2-adic point and
    the left half read as a binary fraction lam = sum x_{-n} 2^{-n},
    reduced mod 1."""

    y: EpSeq
    lam: Fraction

    def __str__(self) -> str:
        return f"(y={self.y}, lam={self.lam})"


def pi(x: BiSeq) -> SolenoidCoord:
    """Project to (y, lam) coordinates.  Collapses the countably many
    double binary expansions (an all-ones left gives lam = 1 = 0)."""
    pre, per = x.left.preperiod, x.left.period
    m, k = len(pre), len(per)
    head, tail = _pack(pre), _pack(per)  # read outward: most significant first
    lam = Fraction(head * ((1 << k) - 1) + tail, (1 << m) * ((1 << k) - 1))
    return SolenoidCoord(x.right, lam % 1)


def t_hat(x: BiSeq) -> BiSeq:
    """Add one: odometer on the right half, left half untouched."""
    return BiSeq(x.left, add_one(x.right))


def s_hat(x: BiSeq, k: int = 1) -> BiSeq:
    """k-fold two-sided shift: digit(result, n) = digit(x, n - k).
    k = 1 multiplies the point by 2 (lam doubles mod 1, y gains the
    carried digit); unlike the one-sided shift this is invertible.

    The |k| digits that cross the binary point leave one half in a
    single slice and are prepended, nearest first, to the other.  When
    they only continue the receiving half's period backwards, they all
    fold into it: the period rotates and nothing is built, so the cost
    is O(size of x) for any k.  Otherwise the crossing digits that do
    not fold stay in the receiving half's preperiod, and the result
    inherently holds about |k| digits.
    """
    if k == 0:
        return x
    src, dst = (x.left, x.right) if k > 0 else (x.right, x.left)
    n = abs(k)
    if _folds(src, dst, n):
        per = dst.period
        r = n % len(per)
        rest = EpSeq(*_tail(src, n))
        grown = EpSeq((), per[-r:] + per[:-r])
    else:
        head, tpre, tper = _split(src, n)
        rest = EpSeq(tpre, tper)
        grown = EpSeq(tuple(reversed(head)) + dst.preperiod, dst.period)
    return BiSeq(rest, grown) if k > 0 else BiSeq(grown, rest)


def _folds(src: EpSeq, dst: EpSeq, n: int) -> bool:
    """True when canonicalizing dst with src's first n digits prepended
    (src digit 0 nearest dst) folds every one of them into dst's period.

    The fold pops dst's preperiod first, whose last digit never matches
    (dst is canonical), then src's digit j against the last digit of
    dst's period rotated right j times.  Both sides are periodic once j
    passes src's preperiod, so by the Fine-Wilf theorem agreement on
    len(src.period) + len(dst.period) digits there settles every later
    digit too, and the walk is O(size) whatever n is.
    """
    if dst.preperiod:
        return False
    per = dst.period
    p = len(per)
    for j in range(min(n, len(src.preperiod) + len(src.period) + p)):
        if src.digit(j) != per[-1 - j % p]:
            return False
    return True


def conjugate(i: int, f: Callable[[BiSeq], BiSeq], x: BiSeq) -> BiSeq:
    """The map f conjugated by the two-sided shift: s_hat(i) . f . s_hat(-i)."""
    return s_hat(f(s_hat(x, -i)), i)


def d_hat(x: BiSeq) -> BiSeq:
    """Two-sided differentiation: digit n of the result is
    digit(x, n) xor digit(x, n+1) for every n, so d_hat(flip(x)) ==
    d_hat(x) and the right half is differentiate(right).  The left half
    is the one-sided difference of x_0 x_{-1} x_{-2} ..."""
    left = EpSeq((x.right.digit(0),) + x.left.preperiod, x.left.period)
    return BiSeq(differentiate(left), differentiate(x.right))


def m_power(x: BiSeq, n: int, extend: bool = False) -> BiSeq:
    """The n-th iterate of m_hat (n < 0: of m_hat_inv) in closed form.

    The right half jumps with morse_power; each step flips the left half
    iff it changes the right half's digit 0, so the flips telescope and
    the left half flips iff the jump changes that digit.  A jump past the
    end of a semiorbit raises what n single steps would raise there,
    unless extend is set.
    """
    right = morse_power(x.right, n, extend)
    if right.digit(0) != x.right.digit(0):
        return BiSeq(x.left.flip(), right)
    return BiSeq(x.left, right)


def m_hat(x: BiSeq, extend_at_max: bool = False) -> BiSeq:
    """Extended successor m_power(x, 1): right steps to its successor,
    left flips iff the step changes digit 0 of the right half.  That is
    the flip step_parity(right) reads off the differentiated point;
    step_parity stays the independent reference that verify's
    coord-lambda check and the left-flip-rule test compare m_hat against.

    Unique extension satisfying t_hat(d_hat(x)) == d_hat(m_hat(x)) and
    restricting to morse_successor on zero-left points.  Raises MaxPoint
    when the right half is alternating, unless extend_at_max.
    """
    return m_power(x, 1, extend_at_max)


def m_hat_inv(x: BiSeq, extend_at_min: bool = False) -> BiSeq:
    """Inverse of m_hat, m_power(x, -1): right steps back, left unflips
    by the same digit-0 rule.  Raises MinPoint when the right half is
    constant, unless extend_at_min."""
    return m_power(x, -1, extend_at_min)


def t_family(i: int, x: BiSeq) -> BiSeq:
    """Conjugate translation s_hat(i) . t_hat . s_hat(-i): adds 2^i,
    so t_family(i) applied twice equals t_family(i+1)."""
    return conjugate(i, t_hat, x)


def m_family(i: int, x: BiSeq, extend_at_max: bool = False) -> BiSeq:
    """Conjugate successor s_hat(i) . m_hat . s_hat(-i); applied twice
    it equals m_family(i+1).  MaxPoint propagates from the conjugated
    point."""
    return conjugate(i, partial(m_hat, extend_at_max=extend_at_max), x)


def q2_translate(q: DyadicRational, x: BiSeq) -> BiSeq:
    """Translate by the dyadic rational q = num / 2^exp: shift up so q
    becomes an integer, add it with full carries, shift back.  Additive
    in q; q = 1 is t_hat."""
    return conjugate(
        -q.exp, lambda y: BiSeq(y.left, add_integer(y.right, q.num)), x)
