"""Times at reference host speed.

The sandbox this benchmark runs in is a few cores of a shared host, and the
speed of a core changes under it: the same pure-Python loop takes 19 ms or
29 ms depending on what a neighbour does on the sibling hardware thread, in
CPU time as much as in wall time, in spells of seconds to minutes and on
each core independently.  A wall-clock median over a 10 s run then jumps by
half between two runs of the same code.

So timed operations are bracketed by a fixed *calibration kernel* — a
few milliseconds of interpreter-like work owned by this file, which no
change under ``src/`` can touch — and an operation's wall time is divided by
how much slower than ``REFERENCE_S`` the kernel ran around it.
The result is the wall time the operation would have taken had the core
run at reference speed throughout; on a quiet core it *is* the wall time.
Ten-second medians of one program that spread 40 to 58% (IQR over median)
raw spread 2 to 5% this way, measured over 5 to 7 minutes on this box.

The process is also pinned to one CPU, because the calibration says nothing
about the other core.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import List, Tuple

#: the kernel's duration on this sandbox's cores at their fastest (CPython
#: 3.11); only a scale, so that reference-speed times read as wall times of
#: a quiet run here
REFERENCE_S = 0.0024

_SIZE = 8192

Span = Tuple[float, float]


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return self.a + x if x & 1 else self.b - x


_NODES = [_Node(i, 2 * i) for i in range(_SIZE)]
_NAMES = {i: str(i) for i in range(_SIZE)}


def kernel() -> float:
    """What an interpreter does all day: attribute loads, method calls,
    dictionary lookups, small allocations, boxed integer and float
    arithmetic, over a few hundred KiB.  The mix was chosen among four
    candidates as the one whose slowdown tracked the VM's best."""
    nodes, names = _NODES, _NAMES
    total, j, x = 0, 7, 0.5
    kept: List[Tuple[int, int]] = []
    for i in range(9000):
        j = (j * 7919 + 13) % _SIZE
        total += nodes[j].step(i)
        if names[j]:
            kept.append((i, total))
        if len(kept) > 64:
            kept = []
        x = x * 1.0000001 + 0.25 / (1.0 + x)
    return total + x


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU (the last
    one allowed: the first takes most interrupts)."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: the calibration still helps


class HostClock:
    """Collects calibration samples and converts wall-clock spans taken with
    ``time.perf_counter()`` into seconds at reference host speed."""

    def __init__(self, gap_s: float = 0.04):
        #: calibrate again once this much time has passed since the last
        self.gap_s = gap_s
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._costs: List[float] = []

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._starts.append(t0)
        self._ends.append(t1)
        self._costs.append(t1 - t0)

    def tick(self) -> None:
        """Call before a timed operation: calibrates if the last sample is
        older than ``gap_s``, so that short operations share a sample and
        long ones get one on each side."""
        if not self._ends or time.perf_counter() - self._ends[-1] >= self.gap_s:
            self.calibrate()

    def slowdown(self, span: Span) -> float:
        """Kernel time over ``REFERENCE_S``: the median over the last two
        samples that ended before the span, the first two that started after
        it, and any in between.  Two on each side, so that one sample the
        hypervisor took the CPU away from does not halve a whole span."""
        t0, t1 = span
        lo = max(0, bisect.bisect_right(self._ends, t0) - 2)
        hi = min(len(self._starts), bisect.bisect_left(self._starts, t1) + 2)
        costs = self._costs[lo:hi]
        if not costs:
            raise RuntimeError("no calibration sample near the span")
        return statistics.median(costs) / REFERENCE_S

    def seconds(self, span: Span) -> float:
        """The span's length at reference host speed.  A span with samples
        inside it (the serving workload's closed loop) is cut at each and
        every piece divided by the slowdown around that piece."""
        t0, t1 = span
        cuts = self._starts[bisect.bisect_right(self._starts, t0):
                            bisect.bisect_left(self._starts, t1)]
        edges = [t0, *cuts, t1]
        return sum((b - a) / self.slowdown((a, b)) for a, b in zip(edges, edges[1:]))

    def slowdowns(self) -> List[float]:
        return [c / REFERENCE_S for c in self._costs]
