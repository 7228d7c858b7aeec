"""Machine-speed reference that the benchmark's times are normalized by.

On a shared two-vCPU x86-64 virtual machine (CPython 3.11), the speed each
vCPU delivers drifted by up to 1.7x within seconds, independently per vCPU,
and moved the median wall time of whole 30-second runs by more than 30%.  A
fixed pure-Python block timed on the same CPU at the same time as the
measured work tracks that drift, so every time the benchmark reports is

    raw seconds * NOMINAL_BLOCK_S / (median block time around the work)

that is, seconds on a machine where one block takes NOMINAL_BLOCK_S.  Raw
seconds are kept in the result files.

A job samples the block itself (``Sampler``): once before its work, every
TICK_S of wall time during it (SIGALRM), and once after.  In a job a block
takes about 1.5 ms, so sampling adds about 3% to the job's time; the
reported times include it.
"""

from __future__ import annotations

import signal
import statistics
import time

BLOCK_N = 2000
NOMINAL_BLOCK_S = 0.001
TICK_S = 0.05


def block_s() -> float:
    """Time one reference block: build and fill a small dict of tuples."""
    t0 = time.perf_counter()
    seen = {}
    row = tuple(range(16))
    for i in range(BLOCK_N):
        key = row[i % 8:] + (i,)
        seen[key] = sum(key)
    return time.perf_counter() - t0


def reference_s() -> float:
    """Median time of 50 consecutive blocks, for work too short to sample itself."""
    return statistics.median(block_s() for _ in range(50))


def normalized(raw_s: float, ref_s: float) -> float:
    """``raw_s`` in seconds of the nominal machine, given the block time."""
    return raw_s * NOMINAL_BLOCK_S / ref_s


class Sampler:
    """Times the block before, periodically during, and after some work."""

    def __init__(self):
        self.blocks: list[float] = []

    def _tick(self, signum, frame):
        self.blocks.append(block_s())

    def __enter__(self) -> "Sampler":
        self.blocks.append(block_s())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.blocks.append(block_s())

    def ref_s(self) -> float:
        return statistics.median(self.blocks)
