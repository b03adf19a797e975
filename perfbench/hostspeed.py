"""How fast the host core runs right now, relative to a fixed reference.

The benchmark runs on shared virtual machines whose core speed drifts. On a
2-CPU Intel Xeon VM at 2.0 GHz, one workload's throughput moved between 25k
and 54k requests/s over a few minutes, in steady stretches of tens of
seconds. Stolen time stayed near zero and CPU time tracked wall time, so
other tenants slowed the core itself. Single-process simulation slowed by
about the same factor as a fixed loop of the same kind of work. Timing that
loop next to each unit measures the factor. Dividing a unit's rate by it cut
the spread of 20-second medians on one seed from 48% to 5%.

``speed()`` is 1.0 when the loop takes :data:`REFERENCE_S` and 0.5 when it
takes twice as long. The loop is the benchmark's own code, never the
program's, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_S", "speed"]

#: Seconds the loop takes on this benchmark's reference machine at full speed.
REFERENCE_S = 0.025

_VALUES = np.random.default_rng(0).random(4096)


class _Item:
    __slots__ = ("key", "group", "label")

    def __init__(self, key: float, group: int, label: str) -> None:
        self.key = key
        self.group = group
        self.label = label


def _loop_s() -> float:
    """Time a fixed mix of object churn, heap, dict and small numpy work."""
    started = perf_counter()
    heap: list = []
    counts: dict = {}
    for i in range(20000):
        item = _Item(i * 0.5, i & 63, str(i & 255))
        heapq.heappush(heap, (item.key % 97.0, i, item))
        counts[item.label] = counts.get(item.label, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    values = _VALUES
    for _ in range(40):
        values = np.sort(values * 1.0001)[::-1].copy()
    return perf_counter() - started


def speed() -> float:
    """Host speed now: :data:`REFERENCE_S` over the loop's time."""
    return REFERENCE_S / _loop_s()
