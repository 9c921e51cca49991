"""Host-speed correction for timings taken on a shared, throttled machine.

On a shared virtual machine the interpreter's speed drifts by up to 2x
in phases lasting seconds, the same for every process on the box, so a
20-second run's median is set more by the host's mood than by the
program.  Alongside every timing the benchmark runs a fixed pure-Python
kernel that never touches the program, and divides the timing by the
kernel's *slowness*: its duration over ``REF_KERNEL_S``.  A corrected
time reads as if the host ran at the reference speed, so runs taken in
fast and slow phases agree; raw wall-clock figures are still printed on
each run's ``detail`` line.

``REF_KERNEL_S`` is the kernel's fifth-percentile duration on the
machine the baseline was recorded on (see ``BASELINE.json``); on a
faster or slower machine corrected figures scale with it.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

KERNEL_N = 10_000
REF_KERNEL_S = 650e-6
#: Kernel samples (centred) each step's slowness is the median of.
SMOOTH = 11


def kernel() -> int:
    """Integer arithmetic in an interpreted loop, about a millisecond.

    It allocates no object the cyclic garbage collector tracks, so it
    never shifts when the program's own collections run.  In side-by-
    side tests it tracked the simulator's slow phases more closely than
    an allocating event-heap kernel did."""
    total = 0
    for i in range(KERNEL_N):
        total += i * i % 7
    return total


def slowness() -> float:
    """Run the kernel once; its duration over the reference duration."""
    began = time.perf_counter()
    kernel()
    return (time.perf_counter() - began) / REF_KERNEL_S


def smoothed(samples: list[float]) -> list[float]:
    """Each sample replaced by the median of the ``SMOOTH`` around it, so
    one interrupted kernel run does not skew its step."""
    n, half = len(samples), SMOOTH // 2
    return [statistics.median(samples[max(0, i - half):min(n, i + half + 1)])
            for i in range(n)]


class Sampler:
    """Samples host slowness every ``every`` seconds on a thread, for
    timings taken in another process or across ``await`` points."""

    def __init__(self, every: float = 0.05) -> None:
        self.every = every
        self.times: list[float] = []
        self.values: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            value = slowness()
            # Value first: a reader indexing by ``times`` then always
            # finds the matching value.
            self.values.append(value)
            self.times.append(time.perf_counter())
            self._stop.wait(self.every)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def over(self, t0: float, t1: float) -> float:
        """Median slowness sampled in ``[t0, t1]`` (nearest if none)."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return statistics.median(self.values[lo:hi])
        if not self.values:
            return 1.0
        near = min(lo, len(self.values) - 1)
        if lo > 0 and (lo == len(self.times)
                       or t0 - self.times[lo - 1] < self.times[lo] - t1):
            near = lo - 1
        return self.values[near]
