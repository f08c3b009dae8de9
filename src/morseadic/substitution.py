"""Thue-Morse words, the doubling substitution, and orbit codings.

Words are plain str over the alphabet {0, 1}.  The central objects:

  * zeta: 0 -> 01, 1 -> 10, whose fixed point starting with 0 is the
    Thue-Morse word t = 0110 1001 1001 0110 ...
  * coding(x, lo, hi): the digit-0 reading of the successor orbit of x,
    window[n] = digit 0 of the n-th successor image of x.
  * desubstitute: invert zeta on a window of such a coding, recovering
    the coded window of the digit-dropped point together with the
    parity offset of the block boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import EpSeq, shift_drop
from .errors import AmbiguousWindow
from .adic import morse_power, morse_successor

ZETA = {"0": "01", "1": "10"}
DIFF_RULES = {"0": "11", "1": "10"}


def apply_morphism(rules: dict[str, str], w: str) -> str:
    return "".join(rules[c] for c in w)


def zeta(w: str) -> str:
    """One application of the doubling substitution 0 -> 01, 1 -> 10."""
    return apply_morphism(ZETA, w)


def word_flip(w: str) -> str:
    return w.translate(str.maketrans("01", "10"))


def thue_morse_prefix(n: int) -> str:
    """First n letters of the Thue-Morse word, built by doubling:
    w -> w + flip(w)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ""
    w = "0"
    while len(w) < n:
        w += word_flip(w)
    return w[:n]


def thue_morse_digit(n: int) -> int:
    """Letter n of the Thue-Morse word: the parity of the number of one
    bits of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n.bit_count() & 1


def word_diff(w: str) -> str:
    """Adjacent-difference word: letter i is w[i] xor w[i+1].  One letter
    shorter than w."""
    return "".join("1" if a != b else "0" for a, b in zip(w, w[1:]))


def substitution_fixed_point(rules: dict[str, str], seed: str, n: int) -> str:
    """First n letters of the fixed point of rules starting with seed
    (seed must be extended by the substitution: rules[seed[0]] starts
    with seed[0])."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    w = seed
    if rules[w[0]][0] != w[0]:
        raise ValueError("seed is not extended by the rules")
    while len(w) < n:
        w = apply_morphism(rules, w)
    return w[:n]


def is_factor(w: str) -> bool:
    """Whether w occurs in the Thue-Morse word.  By recurrence every
    factor shows up within any sufficiently long prefix; the prefix of
    8*len(w) + 16 letters is safely past that threshold."""
    return w in thue_morse_prefix(8 * len(w) + 16)


@dataclass(frozen=True, slots=True)
class CodingWindow:
    """A finite window of an orbit coding: letters word[i] at absolute
    times lo + i.  Printed with a dot marking the position of time 0
    when the window straddles it, e.g. 1001.0110."""

    word: str
    lo: int

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("window must hold at least one letter")
        if not set(self.word) <= {"0", "1"}:
            raise ValueError("word must be binary")

    @property
    def hi(self) -> int:
        return self.lo + len(self.word) - 1

    def __str__(self) -> str:
        if self.lo < 0 <= self.hi:
            cut = -self.lo
            return self.word[:cut] + "." + self.word[cut:]
        return self.word


def coding(x: EpSeq, lo: int, hi: int, extend: bool = False) -> CodingWindow:
    """Digit-0 reading of the successor orbit of x over times lo..hi.

    Negative times iterate the predecessor.  extend passes the
    alternating/constant extension through to the underlying maps, so
    the full orbit of any point is defined.  The orbit is entered at
    time lo in one jump (morse_power) and stepped only across the window,
    so the cost is O(size of x + log |lo|) plus the window width.
    """
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    pt = morse_power(x, lo, extend)
    letters = [str(pt.digit(0))]
    for _ in range(lo, hi):
        pt = morse_successor(pt, extend_at_max=extend)
        letters.append(str(pt.digit(0)))
    return CodingWindow("".join(letters), lo)


def desubstitute(window: CodingWindow) -> tuple[CodingWindow, int]:
    """Invert the doubling substitution on a coded window.

    The coding of x is tiled by blocks c, 1-c, one per letter c of the
    coding of shift_drop(x): the block at times n, n+1 carries the inner
    letter at time (n + 1) // 2.  An adjacent equal pair in the window
    can only straddle two blocks, so it forces the block grid; each
    complete block contributes one letter.  Returns the inner window and
    the offset (0 or 1): the common parity of the absolute block-start
    times.

    The block tiling is orbit-faithful only on window ranges where no
    extension step occurs; a window crossing the constant points through
    the extended maps may still parse but need not match the coding of
    the shifted point there.

    Raises AmbiguousWindow if no pair occurs (boundaries underdetermined)
    or no complete block fits.
    """
    w = window.word
    cut = None
    for i in range(len(w) - 1):
        if w[i] == w[i + 1]:
            cut = (i + 1) % 2
            break
    if cut is None:
        raise AmbiguousWindow("no adjacent equal pair: block grid underdetermined")
    letters = []
    start = cut
    while start + 1 < len(w):
        block = w[start : start + 2]
        if block[1] == block[0]:
            raise AmbiguousWindow(f"not a substitution image: block {block!r}")
        letters.append(block[0])
        start += 2
    if not letters:
        raise AmbiguousWindow("window holds no complete block")
    inner_lo = (window.lo + cut + 1) // 2
    return CodingWindow("".join(letters), inner_lo), (window.lo + cut) % 2
