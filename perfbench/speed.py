"""The host's speed, sampled inside each child, to put times on one scale.

The reference host gives the benchmark two vCPUs of a shared machine.  For
stretches of seconds to minutes every operation there runs up to 1.6-2x
slower, and CPU time rises with wall time, so no statistic over one run's
rounds removes a slow stretch that covers the whole run.  Small fixed
kernels timed in the same process, just before, during and after the work,
slow down with it.  Each kernel tracks some of the program's work better
than the rest (big-integer bit operations follow copy search, the memory
walk follows interpreter start-up), so a sample times all four and the
scale uses their geometric mean.  Over 170 rounds of three operations
(0.3 s of copy search, 1.3 s of enumeration, a 0.13 s interpreter start)
with the kernels timed around each, the operations' spreads (quartile
distance over median) were 0.22, 0.13 and 0.10, and those of their ratios to
the kernels' geometric mean 0.13, 0.09 and 0.09; medians over 15 rounds at
a time ranged over 0.68-1.08 of the overall median as timed, 0.87-1.07 as
ratios.

``Sampler`` takes a sample when a child starts, every ``interval`` seconds
from a SIGALRM handler while it works, and when it ends.  ``normalise``
turns the child's wall time into seconds at the nominal speed: the wall
time less the time the samples took, times ``NOMINAL_S`` over the geometric
mean of the kernels' mean times.  The kernels do not touch fullgraph, so a
change to the program moves the normalised time as it would move the wall
time on a host of constant speed.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# The kernels' geometric mean time on the reference host (2-vCPU Xeon guest,
# CPython 3.11.7) in a quiet stretch.  It sets the scale only.
NOMINAL_S = 0.004

# 2 MiB, more than a core's L2 cache: the walk's reads mostly miss it.
_WALK_BYTES = 1 << 21
_walk_data: bytes | None = None


def _dicts() -> int:
    d: dict[int, int] = {}
    s: set[int] = set()
    acc = 0
    for i in range(6000):
        d[i & 1023] = i
        s.add(i % 777)
        acc += len(d) + (i in s) + sum([i, i + 1, i + 2])
    return acc


def _calls() -> int:
    def f(x: int) -> int:
        return (x * 7 + 3) % 1001

    acc = 0
    for i in range(20000):
        acc += f(i) ^ (i >> 3)
    return acc


def _bits() -> int:
    words = [(0x9E3779B97F4A7C15 * (i + 1)) ** 17 & ((1 << 1100) - 1) for i in range(64)]
    acc = 0
    for i in range(6000):
        a, b = words[i & 63], words[(i * 7) & 63]
        acc += (a & ~b).bit_count() + ((a | b) >> (i % 900)).bit_length()
    return acc


def _walk() -> int:
    global _walk_data
    if _walk_data is None:
        _walk_data = bytes(range(256)) * (_WALK_BYTES // 256)
    data, mask = _walk_data, _WALK_BYTES - 1
    j = acc = 0
    for _ in range(12000):
        j = (j * 1103515245 + 12345) & mask
        acc += data[j]
    return acc


KERNELS = (_dicts, _calls, _bits, _walk)


class Sampler:
    """Times every kernel at start, every ``interval`` s, and at stop."""

    def __init__(self, interval: float | None):
        self.interval = interval
        self.samples: list[list[float]] = [[] for _ in KERNELS]
        self.spent_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        for times, kernel in zip(self.samples, KERNELS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.spent_s += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self.sample()
        if self.interval:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def summary(self) -> dict:
        return {"samples": self.samples, "spent_s": self.spent_s}


def scale(speed: dict) -> float:
    """Nominal seconds per second of a child that reported ``speed``."""
    means = [statistics.fmean(times) for times in speed["samples"]]
    return NOMINAL_S / math.exp(statistics.fmean(math.log(m) for m in means))


def normalise(wall_s: float, speed: dict) -> float:
    """Seconds at the nominal speed for a child that reported ``speed``."""
    return (wall_s - speed["spent_s"]) * scale(speed)
