"""The host's speed, sampled by the measuring process itself.

Shared hosts drift by tens of percent within minutes, and every timing
of a run drifts with them. The process that measures a workload also
times a fixed pure-Python loop at regular points outside its timed
regions, and the run reports its set-up times, rates and layer times
scaled to a host on which that loop takes ``REFERENCE_S``, using the
median sample. The
loop is the benchmark's own code, so a change to the program cannot
move it. A side process would not do: it runs on another CPU, whose
speed does not follow the measuring one. Only the table3 workloads
take samples; ``serve`` explains why its figures stay as measured.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.020


def _reference_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(60000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        total += key % 7
    return total + len(table)


class MachineClock:
    """Samples of the reference loop taken during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, repeats: int = 1) -> float:
        """Time the loop ``repeats`` times; returns the seconds spent."""
        started = time.perf_counter()
        for _ in range(repeats):
            begin = time.perf_counter()
            _reference_loop()
            self.samples.append(time.perf_counter() - begin)
        return time.perf_counter() - started

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host this run was (1.0
        when the workload took no samples)."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_S

    def normalize(self, value: float, unit: str) -> float:
        """A time or a rate as the reference host would have read it."""
        if unit in ("s", "ms"):
            return value / self.slowdown
        if unit.endswith("/s"):
            return value * self.slowdown
        return value
