"""Host-speed normalisation of the end-to-end times.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
the same pure-Python loop, timed back to back in one process, can take
twice as long a few seconds later, while CPU time still equals wall
time.  Raw wall times of runs made minutes apart then differ by more
than any bound a regression check could use.

A :class:`HostSpeed` runs a fixed probe every ``EVERY_S`` seconds,
between the timed operations, never inside one.  The probe is plain
Python (integer and table arithmetic, dict and string building, small
objects and bytes) and calls nothing in the program, so a change to the
program cannot move it.  A span of wall time is scaled by
``REFERENCE_S`` over the median probe time within ``WINDOW_S`` seconds
of it.  The result is the time the span would have taken on a host that
runs the probe in ``REFERENCE_S``: a program that got slower reads
slower, a host that got slower does not.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

#: Probe time of the reference host.  It only scales every normalised
#: time by the same constant; it must never change, or old and new
#: figures stop being comparable.
REFERENCE_S = 0.002
#: Probe interval: about 2 % of the run goes to probing.
EVERY_S = 0.1
#: The host's speed changes within a second; this many seconds on either
#: side of a span give about ten probes to take the median of.
WINDOW_S = 0.5

_TABLE = list(range(256))
random.Random(0).shuffle(_TABLE)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def probe() -> int:
    """A fixed mix of interpreter work, about 2 ms on the reference host."""
    state, acc = bytearray(range(64)), 0x12345678
    for _ in range(180):
        for j in range(0, 64, 4):
            a = state[j] ^ _TABLE[(acc >> 8) & 255]
            acc = ((acc << 5) ^ (acc >> 3) ^ a) & 0xFFFFFFFF
            state[j] = _TABLE[a]
    for _ in range(24):
        d = {(j * 7919) % 97: (j, str(j)) for j in range(60)}
        items = sorted(d.items(), key=lambda kv: kv[1][1])
        acc += len("".join(value[1] for _, value in items))
        acc ^= int.from_bytes(b"".join(bytes([k]) for k, _ in items)[:8], "big")
    pairs = [_Pair(i, 3 * i) for i in range(1200)]
    acc += sum(p.a * p.b % 7 for p in pairs)
    return acc + len(b"".join(i.to_bytes(4, "big") for i in range(1200)))


class HostSpeed:
    """Probe the host now and then; scale wall-time spans by its speed."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []
        #: Wall time spent probing, to take out of enclosing spans.
        self.spent = 0.0

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            probe()
            cost = time.perf_counter() - start
            self.starts.append(start)
            self.costs.append(cost)
            self.spent += cost

    def tick(self) -> None:
        """Probe if the last probe is at least ``EVERY_S`` seconds old."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median probe time near [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo >= hi:  # no probe that close: take the nearest one
            before, after = max(lo - 1, 0), min(lo, len(self.starts) - 1)
            near_before = start - self.starts[before] < self.starts[after] - end
            lo = before if near_before else after
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.costs[lo:hi])

    def normalise(self, start: float, end: float) -> float:
        """The span [start, end] in reference-host seconds."""
        return (end - start) * self.scale(start, end)

    def factors(self) -> list[float]:
        """Every probe's host slowness: its time over ``REFERENCE_S``."""
        return [cost / REFERENCE_S for cost in self.costs]
