"""Host-speed reference for the benchmark's end-to-end timings.

The benchmark runs on shared hosts whose speed moves by tens of percent
within seconds and drifts by as much over minutes: a fixed pure-Python
loop timed in 20-second windows spread its median by 15 % (interquartile
range over median) and by 1.58x from the slowest window to the fastest.
Run to run, that drift swamps what a change to the program does.

So every workload times a fixed piece of pure-Python work, the *probe*,
at its quiet moments: between the operations of a closed loop, and while
the gateway has no request in flight.  The probe uses no code of the
library, so a change to the program cannot change it.  A timing of the
program over ``[start, end]`` is then *scaled* by
``REFERENCE_S / median(probes near it)``: it becomes the seconds the
same work would take on a host where one probe takes ``REFERENCE_S``.
On ``explain_cold``, which serves the same requests in every window,
scaling cut the window-to-window spread of the median latency from 21 %
to 6 %.

The raw timings are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

#: Seconds one probe takes on the reference host (about the median of a
#: 2-core Xeon VM); scaled timings are seconds at that speed.
REFERENCE_S = 0.0025
#: Probes within this many seconds of a timed interval scale it.
WINDOW_S = 1.0


def _work() -> int:
    total = 0
    for index in range(30_000):
        total += index * index % 7
    return total


class HostClock:
    """Probe durations in time order, and the scale they give an interval."""

    def __init__(self):
        self.times: List[float] = []
        self.durations: List[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            began = time.perf_counter()
            _work()
            ended = time.perf_counter()
            self.times.append((began + ended) / 2)
            self.durations.append(ended - began)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median probe within ``WINDOW_S`` of ``[start, end]``.

        With no probe that near, the nearest probe on either side is used.
        """
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.durations[low:high]
        if not near:
            near = self.durations[max(0, low - 1): low + 1]
        return REFERENCE_S / statistics.median(near)

    def scale(self, intervals: List[Tuple[float, float]]) -> List[float]:
        """Each ``(start, end)``'s duration in reference seconds."""
        return [(end - start) * self.factor(start, end) for start, end in intervals]
