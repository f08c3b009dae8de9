"""Host speed reference for scaling measured times.

Shared hosts change speed by up to 2x in phases lasting from under a
second to tens of seconds (contention for the core, its caches and its
memory bandwidth).  The benchmark runs this fixed kernel between ops
and scales each op's wall time by REFERENCE_NS / (kernel time near that
op), so reported times are those of a host on which the kernel takes
REFERENCE_NS.  The kernel mixes, in about equal parts, the three kinds
of work the package does (small tuples and dicts, slices of long
tuples, frozen slotted dataclasses with a validating __post_init__):
small-point workloads slow down with the first and last, long-point
workloads with the middle one.  It uses nothing from the package, so a
change to the package cannot move it.

A second reference, "wide", adds a pass over 24 tuples of 6000 digits
(about 1 MB of pointers, the working set of the long points).  Some
host phases slow long-point construction through the shared caches
while the first kernel, which stays in its core's caches, does not see
them.  Interleaved with batches of ops on one host, the wide reference
cut the quartile spread of the time ratio for wide-build from 0.16-0.18
to 0.08-0.11 and widened it for wide-read from 0.09-0.10 to 0.14-0.17,
so only wide-build uses it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from statistics import median
from time import perf_counter_ns

REFERENCE_NS = 1_500_000

_LONG = tuple(i & 1 for i in range(6000))
_WIDE = [tuple((i * 7 + j) & 1 for i in range(6000)) for j in range(24)]


@dataclass(frozen=True, slots=True)
class _Point:
    head: tuple
    tail: tuple

    def __post_init__(self):
        for v in self.head:
            if v != 0 and v != 1:
                raise ValueError("digits must be 0 or 1")
        object.__setattr__(self, "tail", tuple(self.tail))

    def get(self, i: int) -> int:
        head = self.head
        return head[i] if i < len(head) else self.tail[(i - len(head)) % len(self.tail)]


def _kernel() -> int:
    counts: dict[int, int] = {}
    small: tuple = ()
    for i in range(1200):
        small = (i & 1,) + small[:8]
        counts[i & 63] = counts.get(i & 63, 0) + len(small)
    long = _LONG
    total = 0
    for _ in range(12):
        long = long[1:] + long[:1]
        total += sum(long[::7])
    for i in range(300):
        p = _Point((i & 1, 1, 0, i >> 3 & 1), (0, 1))
        total += p.get(i % 9) + p.get(2)
    return total + len(counts)


def _wide_kernel() -> int:
    total = _kernel()
    for t in _WIDE:
        total += sum((t[1:] + t[:1])[::7])
    return total


# reference name: (kernel, its time on the reference host)
KERNELS = {"standard": (_kernel, REFERENCE_NS), "wide": (_wide_kernel, 2_500_000)}


def sample(kernel=_kernel) -> int:
    """Nanoseconds the kernel takes now."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


class SpeedLog:
    """Kernel samples taken at op positions; gives the scale for op i
    from the samples on either side of it."""

    def __init__(self, reference: str = "standard"):
        self.kernel, self.reference_ns = KERNELS[reference]
        self.at: list[int] = []
        self.ns: list[int] = []

    def take(self, position: int) -> None:
        self.at.append(position)
        self.ns.append(sample(self.kernel))

    def scale(self, position: int) -> float:
        j = bisect_right(self.at, position)
        return self.reference_ns / median(self.ns[max(0, j - 4): j + 4])

    def overall(self) -> float:
        return self.reference_ns / median(self.ns)
