"""Integer form of the adic successor: a pure time change of n -> n + 1.

The step taken at n depends only on where the first adjacent equal pair
of binary digits sits.  With

    a_r = (2^r - 1) / 3   for even r,
    a_r = (2^r - 2) / 3   for odd r,

a pair 00 ending at index r-1 means the successor adds a_r, a pair 11
means it subtracts a_r.  The same rule applies verbatim to negative
integers through their two's-complement digits, and extends to every
non-alternating 2-adic point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import EpSeq, add_integer, first_pair_index
from .errors import MaxPoint
from .adic import morse_successor


def a_of(r: int) -> int:
    """The step magnitude a_r; a_0 = a_1 = 0, a_2 = 1, a_3 = 2, a_4 = 5.
    Consecutive values satisfy a_{r-1} + a_r = 2^{r-1} - 1."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r % 2 == 0:
        return ((1 << r) - 1) // 3
    return ((1 << r) - 2) // 3


@dataclass(frozen=True, slots=True)
class CaseTag:
    """First-pair data of a point: the pair ends at index r - 1 and
    consists of two copies of pair_value."""

    r: int
    pair_value: int

    @property
    def case(self) -> str:
        """"i" for a 00 pair (step +a_r), "ii" for a 11 pair (step -a_r)."""
        return "i" if self.pair_value == 0 else "ii"


def classify(x: EpSeq) -> CaseTag:
    """First-pair class of x.  Raises MaxPoint on the alternating points,
    which have no pair."""
    if x.is_max():
        raise MaxPoint(f"{x} has no adjacent equal pair")
    k = first_pair_index(x)
    return CaseTag(k + 1, x.digit(k))


def theta(x: EpSeq) -> int:
    """Exact step of the successor at x: +a_r for a 00 pair, -a_r for 11.
    Unbounded (|theta| grows like 2^r / 3) but always an integer."""
    tag = classify(x)
    a = a_of(tag.r)
    return a if tag.pair_value == 0 else -a


def _int_first_pair(n: int) -> tuple[int, int]:
    # Bit j of ~(n ^ (n >> 1)) is set when digits j and j + 1 are equal.
    # Arithmetic shift exposes the two's-complement digits, so this works
    # for negative n too; the digits are eventually constant, so a pair
    # always exists.
    pairs = ~(n ^ (n >> 1))
    k = (pairs & -pairs).bit_length()
    return k, (n >> k) & 1


def morse_int(n: int) -> int:
    """Successor of the integer n computed purely arithmetically:
    n + a_r for a low 00 pair, n - a_r for 11.

    Never returns 0 or -1; on the integers the map is a bijection
    Z -> Z minus those two points.
    """
    k, pair = _int_first_pair(n)
    a = a_of(k + 1)
    return n + a if pair == 0 else n - a


def time_change_check(x: EpSeq) -> bool:
    """Confirm morse_successor(x) == x + theta(x), the addition done by
    independent binary carry arithmetic."""
    return morse_successor(x) == add_integer(x, theta(x))


def theta_level_counts(m: int) -> dict[int, int]:
    """How many length-m prefixes put the first pair at each index k.

    Exactly two prefixes of length k are alternating, the digit at k is
    then forced, and the remaining m - k - 1 digits are free, so the
    count is 2 * 2^(m-k-1) = 2^(m-k).  The two fully alternating prefixes
    carry no pair and are not counted.
    """
    if not 1 <= m <= 24:
        raise ValueError("m must be between 1 and 24")
    return {k: 2 * (1 << (m - k - 1)) for k in range(1, m)}
