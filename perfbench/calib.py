"""Drift correction and the statistics every workload reports.

The host this benchmark was written on is a shared 2-core VM whose speed
drifts by up to 2x within seconds.  Every timed operation is therefore
converted to *reference milliseconds*: its wall time, scaled by how long
a fixed stdlib-only reference kernel took on the same thread just before
it, relative to a nominal constant::

    ref_ms = wall_ms * NOMINAL_KERNEL_MS / rolling_median(kernel thread-CPU ms)

The kernel is only ever run while the program under test is quiescent
(between in-process operations, or at pool round boundaries once every
ack is in), so it measures the machine, not contention with the program.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from collections import deque
from typing import Iterable, Sequence

#: Median thread-CPU time of :func:`reference_kernel` on the 2-core
#: 2.1 GHz VM the benchmark was written on, in a quiet phase.  A
#: reference millisecond is a millisecond on that machine at that speed.
NOMINAL_KERNEL_MS = 2.3

#: How many recent kernel samples the rolling median spans.
ROLLING_WINDOW = 7

_KERNEL_ROWS = [
    {
        "id": i,
        "name": "row-%05d" % ((i * 7919) % 2000),
        "vals": [i, i * 2, i * 3],
        "f": i / 7.0,
    }
    for i in range(400)
]


def reference_kernel() -> float:
    """Run the fixed reference work once; return its thread-CPU time in ms.

    JSON encode/decode, a keyed sort and a dict build: the same mix of
    allocation, string and dict work the program does.  The collector is
    paused so a collection triggered by earlier garbage does not land in
    the sample.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        decoded = json.loads(json.dumps(_KERNEL_ROWS))
        ordered = sorted(decoded, key=lambda row: row["name"])
        index = {row["name"]: row["id"] for row in ordered}
        elapsed = time.thread_time() - started
    finally:
        if was_enabled:
            gc.enable()
    if len(index) == 0:  # keeps the result live; never true
        raise RuntimeError("reference kernel produced nothing")
    return elapsed * 1e3


def to_reference(wall_s: float, recent_kernel_ms: Sequence[float], nominal_ms: float) -> float:
    """Convert one wall time (seconds) to reference seconds, given the
    kernel samples of the rolling window that precedes it."""
    if not recent_kernel_ms:
        raise ValueError("no kernel samples to normalise against")
    return wall_s * nominal_ms / statistics.median(recent_kernel_ms)


class Calibrator:
    """Rolling drift correction for one thread of timed operations.

    Call :meth:`sample` while the program is quiescent, right before an
    operation; then :meth:`reference` converts that operation's wall
    time with the median of the last ``window`` samples.
    """

    def __init__(
        self,
        nominal_ms: float = NOMINAL_KERNEL_MS,
        window: int = ROLLING_WINDOW,
        kernel=reference_kernel,
    ) -> None:
        self.nominal_ms = nominal_ms
        self._kernel = kernel
        self._recent: deque[float] = deque(maxlen=window)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once and add it to the rolling window."""
        value = self._kernel()
        self._recent.append(value)
        self.samples.append(value)
        return value

    def factor(self) -> float:
        """Reference seconds per wall second at the current window."""
        return to_reference(1.0, self._recent, self.nominal_ms)

    def reference(self, wall_s: float) -> float:
        """``wall_s`` in reference seconds at the current window."""
        return to_reference(wall_s, self._recent, self.nominal_ms)

    def median_ms(self) -> float:
        """Median kernel time over the whole run (the ``calib.ms`` figure)."""
        return statistics.median(self.samples)


def percentile(values: Sequence[float], failed: Sequence[bool], q: float) -> float:
    """Nearest-rank ``q``-th percentile with failed operations on top.

    A failed operation counts as missing every latency limit, so all
    failures rank above every success; among themselves they keep their
    own order.  A percentile that lands on a failure reports that
    failure's own latency, which keeps the figure a quantile of measured
    times rather than the single slowest success.
    """
    if len(values) != len(failed):
        raise ValueError("values and failed flags differ in length")
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    successes = sorted(v for v, bad in zip(values, failed) if not bad)
    failures = sorted(v for v, bad in zip(values, failed) if bad)
    ranked = successes + failures
    rank = math.ceil(q / 100.0 * len(ranked))
    return ranked[max(rank, 1) - 1]


def slope(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Least-squares slope of ``ys`` against ``xs`` (0 when ``xs`` does
    not vary)."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError("xs and ys differ in length")
    if len(xs) < 2:
        return 0.0
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx

