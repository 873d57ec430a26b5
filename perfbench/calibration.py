"""Host-speed calibration: wall seconds to reference seconds.

The speed of a shared host drifts by tens of percent within seconds, and
pure-Python work of every kind slows down and speeds up together.  The
benchmark therefore times a fixed pure-Python kernel between requests
(and between the peers of a set-up), outside every timed region, at least
every ``INTERVAL_S`` of work.  A timed interval is cut at the kernel runs
inside it; each piece is divided by the median kernel time within
``WINDOW_S`` of it and multiplied by ``KERNEL_REFERENCE_S``.  The result is
*reference seconds*: the time the work would have taken on a host where
the kernel takes ``KERNEL_REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Median time of :func:`reference_kernel` on the host the benchmark's
#: bounds were set on (2-vCPU x86-64 VM, CPython 3.11).
KERNEL_REFERENCE_S = 0.0018
#: Work between two kernel runs, at most (where the workload lets the
#: benchmark in).
INTERVAL_S = 0.04
#: Most kernel runs taken at once, after a long request.
BURST = 5
#: Kernel runs within this many seconds of a piece of work calibrate it.
WINDOW_S = 0.3
#: Fewest kernel runs one calibration uses (the nearest ones, if the
#: window holds fewer).
MIN_SAMPLES = 5


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the engines' row loops."""
    rows = [(i, i * 7919 % 1000, f"k{i % 97}", i * 0.5) for i in range(2000)]
    groups = {}
    for _key, value, name, weight in rows:
        if value > 100:
            bucket = groups.get(name)
            if bucket is None:
                groups[name] = bucket = [0, 0.0]
            bucket[0] += 1
            bucket[1] += weight
    ordered = sorted(rows, key=lambda row: (row[2], row[1]))
    return len(ordered) + sum(bucket[0] for bucket in groups.values())


class Calibrator:
    """Kernel runs on the ``time.perf_counter`` timeline."""

    def __init__(self) -> None:
        self.starts = []
        self.ends = []
        self.samples = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            reference_kernel()
            ended = time.perf_counter()
            self.starts.append(started)
            self.ends.append(ended)
            self.samples.append(ended - started)

    def __call__(self) -> None:
        """Run the kernel once per ``INTERVAL_S`` of work since the last run."""
        last = self.ends[-1] if self.ends else 0.0
        due = int((time.perf_counter() - last) / INTERVAL_S)
        if due:
            self.sample(min(due, BURST))

    def _factor(self, start: float, end: float) -> float:
        middles = self.starts
        low = bisect.bisect_left(middles, start - WINDOW_S)
        high = bisect.bisect_right(middles, end + WINDOW_S)
        if high - low < MIN_SAMPLES:
            centre = bisect.bisect_left(middles, (start + end) / 2.0)
            low = max(0, min(low, centre - MIN_SAMPLES // 2))
            high = min(len(middles), max(high, low + MIN_SAMPLES))
            low = max(0, min(low, high - MIN_SAMPLES))
        return KERNEL_REFERENCE_S / statistics.median(self.samples[low:high])

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the work done in [start, end].

        Kernel runs inside the interval are cut out; each piece of work
        between them is calibrated by the kernel runs around it.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        total = 0.0
        cursor = start
        for index in range(first, last):
            total += self._piece(cursor, self.starts[index])
            cursor = self.ends[index]
        return total + self._piece(cursor, end)

    def raw_s(self, start: float, end: float) -> float:
        """Seconds of work in [start, end], kernel runs cut out."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.samples[first:last])

    def _piece(self, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        return (end - start) * self._factor(start, end)
