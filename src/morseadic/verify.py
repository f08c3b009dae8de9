"""Named verification suites with deterministic seeds.

Each suite replays a family of exact identities over seeded random
points (plus integer ranges where the identity is integer-flavored) and
returns a SuiteReport.  Failures carry the offending input literal with
expected/got values.  Points excluded by construction (alternating or
constant tails where a map is undefined) are counted, not silently
skipped.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import substitution
from .dyadic import (
    DyadicRational,
    EpSeq,
    add_one,
    differentiate,
    integrate,
    shift_drop,
)
from .adic import (
    f_inv,
    f_map,
    morse_predecessor,
    morse_successor,
    skew_step,
    step_parity,
)
from .arith import a_of, classify, morse_int, theta, theta_level_counts, time_change_check
from .errors import MaxPoint
from .solenoid import (
    BiSeq,
    d_hat,
    m_family,
    m_hat,
    m_hat_inv,
    pi,
    q2_translate,
    s_hat,
    t_family,
    t_hat,
)

MORSE_TABLE = (1, 3, 7, 2, 5, 15, 4, 6, 9, 11, 31, 10, 13, 8, 12, 14)


@dataclass(frozen=True, slots=True)
class CaseFailure:
    input: str
    expected: str
    got: str


@dataclass(slots=True)
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list[CaseFailure] = field(default_factory=list)
    excluded: int = 0
    wall_time: float = 0.0
    seed: int = 0

    def check(self, name: str, expected: object, got: object) -> None:
        self.cases += 1
        if expected != got:
            self.failures.append(CaseFailure(name, str(expected), str(got)))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [
                {"input": f.input, "expected": f.expected, "got": f.got}
                for f in self.failures
            ],
            "excluded": self.excluded,
            "wall_time": self.wall_time,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_plain(self) -> str:
        lines = [
            f"suite={self.suite} cases={self.cases} failures={len(self.failures)}"
            f" excluded={self.excluded}"
            f" wall_time={self.wall_time:.3f}s seed={self.seed}"
        ]
        for f in self.failures:
            lines.append(f"  FAIL {f.input}: expected {f.expected}, got {f.got}")
        return "\n".join(lines)


def random_epseq(rng: random.Random, max_pre: int = 6, max_per: int = 6) -> EpSeq:
    pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, max_pre)))
    per = tuple(rng.randrange(2) for _ in range(rng.randint(1, max_per)))
    return EpSeq(pre, per)


def random_biseq(rng: random.Random) -> BiSeq:
    return BiSeq(random_epseq(rng), random_epseq(rng))


def _int_points(span: int) -> list[EpSeq]:
    return [EpSeq.from_integer(n) for n in range(-span, span)]


def suite_diagrams(samples: int = 1000, seed: int = 0, integer_span: int = 2**8) -> SuiteReport:
    """Commutation identities: successor vs odometer through
    differentiation, flip equivariance, the skew-product route, the
    step-parity law, inversion, and the shift intertwinings."""
    start = time.perf_counter()
    rng = random.Random(seed)
    rep = SuiteReport("diagrams", seed=seed)
    points = [random_epseq(rng) for _ in range(samples)] + _int_points(integer_span)
    for x in points:
        lit = str(x)
        rep.check(f"odometer-diff:{lit}",
                  add_one(shift_drop(x)),
                  shift_drop(add_one(add_one(x))))
        x0 = integrate(differentiate(x), x.digit(0))
        rep.check(f"integrate-roundtrip:{lit}", x, x0)
        rep.check(f"integrate-flip:{lit}",
                  x0.flip(),
                  integrate(differentiate(x), 1 - x.digit(0)))
        if x.is_max():
            rep.excluded += 1
            continue
        mx = morse_successor(x)
        rep.check(f"diff-step:{lit}", add_one(differentiate(x)), differentiate(mx))
        rep.check(f"flip-step:{lit}", morse_successor(x.flip()), mx.flip())
        rep.check(f"skew-route:{lit}", mx, f_inv(skew_step(f_map(x))))
        rep.check(f"parity-law:{lit}", step_parity(x), theta(x) % 2)
        rep.check(f"step-inverse:{lit}", x, morse_predecessor(mx))
        if x.is_eventually_alternating():
            rep.excluded += 1
            continue
        rep.check(f"shift-step:{lit}",
                  morse_successor(shift_drop(x)),
                  shift_drop(morse_successor(mx)))
        window = substitution.coding(x, 0, 12)
        inner, _offset = substitution.desubstitute(window)
        rep.check(f"desubstitute:{lit}",
                  substitution.coding(shift_drop(x), inner.lo, inner.hi),
                  inner)
    rep.wall_time = time.perf_counter() - start
    return rep


def suite_arithmetic(samples: int = 1000, seed: int = 0) -> SuiteReport:
    """Integer successor facts: the 16-entry table, agreement of the
    bit rule with exact sequence arithmetic, the time change, the flip
    law, the residue classes of each case, and the level counts."""
    start = time.perf_counter()
    rng = random.Random(seed)
    rep = SuiteReport("arithmetic", seed=seed)
    for n, expected in enumerate(MORSE_TABLE):
        rep.check(f"table:{n}", expected, morse_int(n))
    for n in range(-samples, samples):
        seq = morse_successor(EpSeq.from_integer(n))
        rep.check(f"dual-rule:{n}", EpSeq.from_integer(morse_int(n)), seq)
        if n >= 1:
            rep.check(f"flip-law:{n}", -morse_int(n - 1) - 1, morse_int(-n))
        tag = classify(EpSeq.from_integer(n))
        mod = 1 << tag.r
        residue = a_of(tag.r - 1) if tag.case == "i" else (1 << (tag.r - 1)) + a_of(tag.r)
        rep.check(f"residue:{n}", residue % mod, n % mod)
    for _ in range(samples):
        x = random_epseq(rng)
        if x.is_max():
            rep.excluded += 1
            continue
        rep.check(f"time-change:{x}", True, time_change_check(x))
    for m in range(2, 13):
        counts: dict[int, int] = {}
        for bits in range(1 << m):
            for k in range(1, m):
                if (bits >> (k - 1)) & 1 == (bits >> k) & 1:
                    counts[k] = counts.get(k, 0) + 1
                    break
        rep.check(f"level-counts:{m}", counts, theta_level_counts(m))
    rep.wall_time = time.perf_counter() - start
    return rep


def suite_solenoid(samples: int = 1000, seed: int = 0) -> SuiteReport:
    """Two-sided identities: differentiation intertwining, restriction
    to the one-sided successor, the conjugate family relations, dyadic
    translation additivity, and the coordinate chart laws."""
    start = time.perf_counter()
    rng = random.Random(seed)
    rep = SuiteReport("solenoid", seed=seed)
    half = Fraction(1, 2)
    for _ in range(samples):
        x = random_biseq(rng)
        lit = str(x)
        c = pi(x)
        rep.check(f"t-lambda:{lit}", c.lam, pi(t_hat(x)).lam)
        s = pi(s_hat(x, 1))
        rep.check(f"shift-lambda:{lit}", (2 * c.lam) % 1, s.lam)
        rep.check(f"shift-y:{lit}",
                  2 * c.y.to_rational() + x.left.digit(0),
                  s.y.to_rational())
        rep.check(f"t-half:{lit}", (c.lam + half) % 1, pi(t_family(-1, x)).lam)
        for i in range(-3, 4):
            rep.check(f"t-relation:{i}:{lit}",
                      t_family(i + 1, x),
                      t_family(i, t_family(i, x)))
            try:
                twice = m_family(i, m_family(i, x))
                once = m_family(i + 1, x)
            except MaxPoint:
                rep.excluded += 1
            else:
                rep.check(f"m-relation:{i}:{lit}", once, twice)
        q1 = DyadicRational(rng.randint(-64, 64), rng.randint(0, 10))
        q2 = DyadicRational(rng.randint(-64, 64), rng.randint(0, 10))
        rep.check(f"q2-additivity:{q1},{q2}:{lit}",
                  q2_translate(q1 + q2, x),
                  q2_translate(q1, q2_translate(q2, x)))
        rep.check(f"q2-one:{lit}", t_hat(x), q2_translate(DyadicRational(1, 0), x))
        rep.check(f"restriction:{lit}",
                  morse_successor(x.right, extend_at_max=True),
                  m_hat(BiSeq(right=x.right), extend_at_max=True).right)
        if x.right.is_max():
            rep.excluded += 1
            continue
        mx = m_hat(x)
        rep.check(f"two-sided-diff:{lit}", t_hat(d_hat(x)), d_hat(mx))
        rep.check(f"inverse:{lit}", x, m_hat_inv(mx))
        rep.check(f"inverse-other:{lit}", x,
                  m_hat(m_hat_inv(x, extend_at_min=True), extend_at_max=True))
        cm = pi(mx)
        rep.check(f"coord-y:{lit}", morse_successor(c.y), cm.y)
        expected_lam = c.lam if step_parity(x.right) == 0 else (1 - c.lam) % 1
        rep.check(f"coord-lambda:{lit}", expected_lam, cm.lam)
    rep.wall_time = time.perf_counter() - start
    return rep


SUITES = {
    "diagrams": suite_diagrams,
    "arithmetic": suite_arithmetic,
    "solenoid": suite_solenoid,
}


def run_suites(name: str, samples: int = 1000, seed: int = 0) -> list[SuiteReport]:
    if name == "all":
        return [fn(samples, seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [SUITES[name](samples, seed)]
