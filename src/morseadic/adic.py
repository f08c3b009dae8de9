"""The adic successor on 2-adic sequences and its skew-product form.

The successor map replaces everything below the first adjacent equal
pair "aa" with the opposite digit, keeping the pair's second digit and
the rest.  Iterating it from 0 walks the nonnegative integers in the
order 0, 1, 3, 2, 7, 6, 4, 5, 15, ...  Differentiation D conjugates it
to x -> x + 1 and an orbit is a cofinality class, so cofinal x and y lie
D(y) - D(x) steps apart (`orbit_index`), and the partial order is the
sign of that integer (`compare`).

The same map is a skew product over the odometer: differentiate the
sequence, add one to the result, and re-integrate, with the starting
digit driven by the cocycle `phi` of the base point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, cycle, islice

from .dyadic import (
    ALT_01,
    ALT_10,
    EpSeq,
    MINUS_ONE,
    ZERO,
    _pack,
    _split,
    add_integer,
    add_one,
    differentiate,
    first_pair_index,
    integrate,
    subtract_one,
)
from .errors import MaxPoint, MinPoint


class Ordering(enum.Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"
    INCOMPARABLE = "incomparable"


def compare(x: EpSeq, y: EpSeq) -> Ordering:
    """Four-valued comparison; sequences that are not cofinal are
    incomparable rather than an error."""
    if x == y:
        return Ordering.EQUAL
    n = orbit_index(x, y)
    if n is None:
        return Ordering.INCOMPARABLE
    return Ordering.LESS if n > 0 else Ordering.GREATER


def orbit_index(x: EpSeq, y: EpSeq) -> int | None:
    """The n with morse_power(x, n) == y, or None when x and y are not
    cofinal (not on one orbit).

    n = D(y) - D(x).  The points agree past the longer preperiod, N
    digits, so only digits 0..N of each count: packed into an int w,
    w ^ (w >> 1) holds digits 0..N-1 of D and the shared digit N, which
    cancels.  The cost follows N, not the periods.
    """
    if not x.is_cofinal(y):
        return None
    n = max(len(x.preperiod), len(y.preperiod)) + 1
    wx, wy = (_pack(reversed(list(islice(chain(z.preperiod, cycle(z.period)), n))))
              for z in (x, y))
    return (wy ^ (wy >> 1)) - (wx ^ (wx >> 1))


def morse_successor(x: EpSeq, extend_at_max: bool = False) -> EpSeq:
    """Immediate successor in the adic order.

    Scan to the first adjacent equal pair aa (ending at index k), replace
    all digits below k with the complement of a, keep the rest.  The two
    alternating points have no pair; with the extension flag they map to
    the constant sequences ((01)... to all ones, (10)... to all zeros),
    otherwise MaxPoint is raised.
    """
    if x.is_max():
        if extend_at_max:
            return MINUS_ONE if x == ALT_01 else ZERO
        raise MaxPoint(f"{x} has no successor")
    k = first_pair_index(x)
    a = x.digit(k)
    _, tpre, tper = _split(x, k)
    return EpSeq(tuple([1 - a] * k) + tpre, tper)


def morse_predecessor(y: EpSeq, extend_at_min: bool = False) -> EpSeq:
    """Inverse of morse_successor.

    An image starts with a constant run (the complement block), so read
    the run length k and rebuild the alternating prefix that ends in the
    pair at (k-1, k).  The constant sequences have no predecessor; with
    the flag they unwind the extension (all zeros to (10)..., all ones to
    (01)...).
    """
    if y.is_min():
        if extend_at_min:
            return ALT_10 if y == ZERO else ALT_01
        raise MinPoint(f"{y} has no predecessor")
    c = y.digit(0)
    m, kper = len(y.preperiod), len(y.period)
    k = next(i for i in range(1, m + kper + 1) if y.digit(i) != c)
    a = y.digit(k)
    head = [a if (k - 1 - i) % 2 == 0 else 1 - a for i in range(k)]
    _, tpre, tper = _split(y, k)
    return EpSeq(tuple(head) + tpre, tper)


def morse_power(x: EpSeq, n: int, extend: bool = False) -> EpSeq:
    """The n-th successor of x, or the |n|-th predecessor when n < 0.

    Differentiation conjugates the successor to +1 and the successor
    changes finitely many digits, so the answer is the preimage of
    D(x) + n that is cofinal with x.  On the four exceptional semiorbits
    D(x) is an integer, nonnegative on the eventually constant points and
    negative on the eventually alternating ones; a jump whose target has
    the other sign passes the end of x's semiorbit, steps off it as the
    iteration would (raising MaxPoint/MinPoint there unless extended),
    and lands on the glued orbit, where (01) goes with (1) and (10) with
    (0).  The cost follows the size of x plus log |n|.
    """
    if n == 0:
        return x
    # one step costs a fraction of the jump below
    if n == 1:
        return morse_successor(x, extend_at_max=extend)
    if n == -1:
        return morse_predecessor(x, extend_at_min=extend)
    dx = differentiate(x)
    y = add_integer(dx, n)
    ref = x
    if y.is_eventually_constant() and y.period != dx.period:
        # D(x) and D(x) + n are integers of opposite sign: step off the end
        if n > 0:
            ref = morse_successor(
                ALT_01 if x.is_cofinal(ALT_01) else ALT_10, extend_at_max=extend)
        else:
            ref = morse_predecessor(EpSeq((), x.period), extend_at_min=extend)
    z = integrate(y, 0)
    i = max(len(ref.preperiod), len(z.preperiod))
    return z if z.digit(i) == ref.digit(i) else z.flip()


def phi(y: EpSeq) -> int:
    """Cocycle of the skew representation: 0 when y starts with an odd
    number of 1s, 1 when even (including none).  Both constant sequences
    take the value 1."""
    m, k = len(y.preperiod), len(y.period)
    run = next((i for i in range(m + k) if y.digit(i) == 0), None)
    if run is None:
        return 1
    return 1 if run % 2 == 0 else 0


def step_parity(x: EpSeq) -> int:
    """Parity of the step the successor takes at x, i.e. phi evaluated at
    the differentiated point.  Equals (morse_successor(x) - x) mod 2, and
    drives the left half of the two-sided extension."""
    return phi(differentiate(x))


@dataclass(frozen=True, slots=True)
class SkewPoint:
    """A point of the skew product: base sequence plus a fiber digit."""

    base: EpSeq
    fiber: int


def f_map(x: EpSeq) -> SkewPoint:
    """Conjugacy onto the skew product: (differentiated sequence, digit 0)."""
    return SkewPoint(differentiate(x), x.digit(0))


def f_inv(p: SkewPoint) -> EpSeq:
    """Inverse of f_map: integrate the base starting from the fiber digit."""
    return integrate(p.base, p.fiber)


def skew_step(p: SkewPoint) -> SkewPoint:
    """Odometer on the base, fiber shifted by the cocycle at the base.
    Conjugated through f_map this is exactly morse_successor."""
    return SkewPoint(add_one(p.base), p.fiber ^ phi(p.base))


def skew_unstep(p: SkewPoint) -> SkewPoint:
    """Inverse of skew_step."""
    base = subtract_one(p.base)
    return SkewPoint(base, p.fiber ^ phi(base))


class OrbitClass(enum.Enum):
    GENERIC = "Generic"
    POS_SEMIORBIT_ZEROS = "PosSemiorbitOfZeros"
    POS_SEMIORBIT_ONES = "PosSemiorbitOfOnes"
    NEG_SEMIORBIT_10 = "NegSemiorbitOf10"
    NEG_SEMIORBIT_01 = "NegSemiorbitOf01"


def classify_orbit(x: EpSeq, bound: int | None = None) -> OrbitClass:
    """Locate x's orbit: generic or one of the four exceptional semiorbits.

    The successor changes only finitely many digits and differentiation
    conjugates it to +1, so every orbit is a whole cofinality class and
    the tail decides: an eventually constant point lies on the positive
    semiorbit of that constant, an eventually alternating one on the
    negative semiorbit of the alternating point it is cofinal with, and
    every other orbit is generic.  The cost follows the size of x.
    `bound` is accepted for compatibility with callers that still pass a
    step budget, and ignored.
    """
    if x.is_eventually_constant():
        if x.period == (0,):
            return OrbitClass.POS_SEMIORBIT_ZEROS
        return OrbitClass.POS_SEMIORBIT_ONES
    if x.is_eventually_alternating():
        if x.is_cofinal(ALT_01):
            return OrbitClass.NEG_SEMIORBIT_01
        return OrbitClass.NEG_SEMIORBIT_10
    return OrbitClass.GENERIC


# -- cylinder (prefix) action -----------------------------------------
#
# A length-m prefix w pins the cylinder of all sequences starting with w.
# When w already shows an adjacent equal pair, the successor acts on the
# whole cylinder at once; these helpers compute that action on prefixes
# packed into ints (bit i = digit i).


def successor_prefix(bits: int, m: int) -> int | None:
    """Prefix image under the successor, or None when the prefix has no
    adjacent equal pair (the cylinder does not map to one cylinder)."""
    # bit j is set when digits j and j + 1 (both below m) are equal
    pairs = ~(bits ^ (bits >> 1)) & (((1 << m) - 1) >> 1)
    if not pairs:
        return None
    k = (pairs & -pairs).bit_length()
    mask = (1 << k) - 1
    return bits | mask if (bits >> k) & 1 == 0 else bits & ~mask


def phi_prefix(bits: int, m: int) -> int | None:
    """Value of phi on the cylinder, or None when the prefix is all ones
    (the leading run may continue past the window)."""
    zeros = ~bits & ((1 << m) - 1)
    if not zeros:
        return None
    run = (zeros & -zeros).bit_length() - 1
    return 1 if run % 2 == 0 else 0
