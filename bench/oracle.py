"""Reference arithmetic that checks the benchmark's outputs.

Nothing here imports morseadic.  A sequence is a plain pair of digit
tuples ``(pre, per)``; outputs of the library are read through their
``preperiod``/``period`` (or printed) digits and compared by exact value,
since an eventually periodic 2-adic expansion is determined by its value.

The references are the paper's facts, derived independently:

* the integer successor rule n -> n +/- a_r (pure ints, walked step by step);
* the time change M(x) = x + theta(x) on any non-alternating point;
* the differentiation conjugacy D(M^n x) = D(x) + n, taking the preimage
  cofinal with x (one closed form for every orbit position);
* digit i of p/q is bit i of p * q^-1 mod 2^(i+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Seq = tuple  # (pre: tuple[int, ...], per: tuple[int, ...])


# -- values and expansions ---------------------------------------------


def _bits_le(digits) -> int:
    """Integer whose bit i is digits[i]."""
    return int("".join(map(str, reversed(digits))) or "0", 2)


def value(pre, per) -> Fraction:
    """Exact 2-adic value: head + 2^m * tail / (1 - 2^k)."""
    m, k = len(pre), len(per)
    return _bits_le(pre) - Fraction(_bits_le(per) << m, (1 << k) - 1)


def seq_value(x) -> Fraction:
    """Value of a library point, read from its digit tuples."""
    return value(x.preperiod, x.period)


def expand(f) -> Seq:
    """Canonical (shortest preperiod, primitive period) digits of a
    rational with odd denominator.  The numerator state n with
    tail = n / q cycles; its first repeat fixes both lengths minimally."""
    f = Fraction(f)
    n, q = f.numerator, f.denominator
    if q % 2 == 0:
        raise ValueError("denominator must be odd")
    seen: dict[int, int] = {}
    digits = []
    while n not in seen:
        seen[n] = len(digits)
        bit = n & 1
        digits.append(bit)
        n = (n - bit * q) >> 1
    cut = seen[n]
    return tuple(digits[:cut]), tuple(digits[cut:])


def literal(seq: Seq) -> str:
    pre, per = seq
    return "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"


def digit(seq: Seq, i: int) -> int:
    pre, per = seq
    if i < len(pre):
        return pre[i]
    return per[(i - len(pre)) % len(per)]


def low_bits(f: Fraction, n: int) -> int:
    """f mod 2^n as an integer in [0, 2^n): digits 0..n-1 of f."""
    mod = 1 << n
    return f.numerator * pow(f.denominator, -1, mod) % mod


def primitive(per) -> tuple:
    k = len(per)
    for d in range(1, k):
        if k % d == 0 and per[:d] * (k // d) == per:
            return per[:d]
    return tuple(per)


def tail_kind(seq: Seq) -> str:
    """'const' (integers), 'alt' (eventually alternating) or 'generic'."""
    per = primitive(seq[1])
    if per in ((0,), (1,)):
        return "const"
    if per in ((0, 1), (1, 0)):
        return "alt"
    return "generic"


def flip(seq: Seq) -> Seq:
    return tuple(1 - b for b in seq[0]), tuple(1 - b for b in seq[1])


def cofinal(a: Seq, b: Seq) -> bool:
    """Canonical forms are eventually equal iff their primitive periods
    have one length and line up past both preperiods."""
    (pa, qa), (pb, qb) = a, b
    if len(qa) != len(qb):
        return False
    start = max(len(pa), len(pb))
    return all(digit(a, i) == digit(b, i) for i in range(start, start + len(qa)))


# -- differentiation and its inverse --------------------------------------


def diff(seq: Seq) -> Seq:
    """Digit i is x_i xor x_{i+1}."""
    pre, per = seq
    m, k = len(pre), len(per)
    return (
        tuple(digit(seq, i) ^ digit(seq, i + 1) for i in range(m)),
        tuple(digit(seq, m + i) ^ digit(seq, m + i + 1) for i in range(k)),
    )


def integrate0(y: Seq) -> Seq:
    """The preimage of y under diff that starts with digit 0."""
    pre, per = y
    s = 0
    head = []
    for b in pre:
        head.append(s)
        s ^= b
    tail = []
    for b in per * (1 if sum(per) % 2 == 0 else 2):
        tail.append(s)
        s ^= b
    return tuple(head), tuple(tail)


def orbit_point(x: Seq, n: int) -> Seq | None:
    """M^n(x) by the conjugacy, or None where the unextended map is
    undefined: constant tails have no predecessor past the constant
    point (index D(x) >= 0), alternating tails no successor past the
    alternating one (index D(x) <= -1)."""
    d = value(*diff(x))
    kind = tail_kind(x)
    if kind == "const" and d + n < 0:
        return None
    if kind == "alt" and d + n > -1:
        return None
    z = integrate0(expand(d + n))
    far = max(len(x[0]), len(z[0]))
    return z if digit(z, far) == digit(x, far) else flip(z)


def orbit_class(x: Seq) -> str:
    """Name of the OrbitClass member holding x's orbit."""
    kind = tail_kind(x)
    if kind == "generic":
        return "GENERIC"
    far = len(x[0]) + 2
    if kind == "const":
        return "POS_SEMIORBIT_ZEROS" if digit(x, far) == 0 else "POS_SEMIORBIT_ONES"
    # cofinal with (10) when the far even digits are 1
    far += far % 2
    return "NEG_SEMIORBIT_10" if digit(x, far) == 1 else "NEG_SEMIORBIT_01"


# -- the integer rule ---------------------------------------------------


def a_of(r: int) -> int:
    return ((1 << r) - 1) // 3 if r % 2 == 0 else ((1 << r) - 2) // 3


def _first_pair(bits: int, width: int | None = None) -> tuple[int, int] | None:
    """(k, a): least k >= 1 with bit k-1 == bit k == a.  Python's
    arithmetic shift reads negative ints as their two's-complement
    digits, so integers always have a pair."""
    k = 1
    while width is None or k < width:
        if (bits >> k) & 1 == (bits >> (k - 1)) & 1:
            return k, (bits >> k) & 1
        k += 1
    return None


def morse_int(n: int) -> int:
    k, a = _first_pair(n)
    return n - a_of(k + 1) if a else n + a_of(k + 1)


def morse_int_inverse(m: int) -> int | None:
    """Predecessor of the integer m, or None at 0 and -1 (order minima).
    The image starts with a constant run of length k ended by the pair
    digit a; below k the preimage alternates and ends in a at k - 1."""
    if m in (0, -1):
        return None
    c = m & 1
    k = 1
    while (m >> k) & 1 == c:
        k += 1
    a = (m >> k) & 1
    head = sum((a if (k - 1 - i) % 2 == 0 else 1 - a) << i for i in range(k))
    return (m >> k << k) | head


def int_walk(n: int, steps: int) -> int | None:
    """M^steps(n) on the integers by repeated single steps."""
    for _ in range(steps):
        n = morse_int(n)
    for _ in range(-steps):
        n = morse_int_inverse(n)
        if n is None:
            return None
    return n


def first_pair(f: Fraction) -> tuple[int, int]:
    """(k, a) of the first adjacent pair of the non-alternating point f."""
    width = 64
    while True:
        found = _first_pair(low_bits(f, width + 1), width + 1)
        if found:
            return found
        width *= 2


def theta(f: Fraction) -> int:
    """Step of the successor at the non-alternating point f."""
    k, a = first_pair(f)
    return -a_of(k + 1) if a else a_of(k + 1)


# -- two-sided points ------------------------------------------------------


def _reverse_bits(bits: int, width: int) -> int:
    return int(format(bits, f"0{width}b")[::-1], 2) if width else 0


def shift_two_sided(left: Fraction, right: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Values of both halves after the k-fold two-sided shift.  Moving up
    by k, the first k left digits enter the right half reversed; moving
    down, the first k right digits enter the left half reversed."""
    if k >= 0:
        low = low_bits(left, k)
        return (left - low) / (1 << k), right * (1 << k) + _reverse_bits(low, k)
    k = -k
    low = low_bits(right, k)
    return left * (1 << k) + _reverse_bits(low, k), (right - low) / (1 << k)


def q2_translate(num: int, exp: int, left: Fraction, right: Fraction) -> tuple[Fraction, Fraction]:
    """Halves after adding num / 2^exp: shift up, add, shift back."""
    while exp > 0 and num % 2 == 0:
        num //= 2
        exp -= 1
    left, right = shift_two_sided(left, right, exp)
    return shift_two_sided(left, right + num, -exp)


def binary_fraction(seq: Seq) -> Fraction:
    """sum seq_j 2^-(j+1) mod 1: the left half read after the point."""
    pre, per = seq
    m, k = len(pre), len(per)
    head = Fraction(int("".join(map(str, pre)) or "0", 2), 1 << m)
    tail = Fraction(int("".join(map(str, per)), 2), ((1 << k) - 1) << m)
    return (head + tail) % 1


# -- rationals with a chosen period ----------------------------------------


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order_of_two(q: int) -> int:
    """Multiplicative order of 2 mod odd q > 1: the period of p/q for
    every p prime to q."""
    lam = 1
    for p, e in _factor(q).items():
        lam = lam * (p ** (e - 1) * (p - 1)) // gcd(lam, p ** (e - 1) * (p - 1))
    order = lam
    for p in _factor(lam):
        while order % p == 0 and pow(2, order // p, q) == 1:
            order //= p
    return order
