"""Host-speed calibration for the end-to-end times.

On a shared 2-vCPU Intel Xeon KVM guest the host's speed drifts by up to
1.6x, in phases lasting from seconds to minutes: the same pure-Python loop
takes 65 ms in one phase and 108 ms in the next, and the raw median unit
time of a 25-second run moved by 25-30% from one run to the next.  No
estimator over one run's units removes a drift that outlasts the run, so
each timed interval is also expressed in reference-speed seconds: it is
scaled by ``REFERENCE_S`` over the time of a fixed loop measured just
before and just after it.

The loop mixes integer arithmetic with a heap of tuples, the two kinds of
work the engines' event loops do.  Over 220-300 second stretches on that
guest, scaling by the two parts cut the spread of 10-unit medians (distance
between quartiles over the median) from 13% to 3% on ``sweep`` and from 7%
to 5% on ``oracle``; arithmetic alone left 8% on ``sweep``, and a
memory-bound NumPy gather or sort did worse.  Raw times are reported next
to the scaled ones.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter

# A typical time of ``_loop`` on that guest (it ranges over 23-40 ms); scaled
# times are seconds at that speed.
REFERENCE_S = 0.030

# Fixed pseudo-random heap keys, so every run does the same work.
_KEYS = [(k * 7919) % 10007 / 10007 for k in range(20_000)]


def _loop() -> None:
    """Integer arithmetic, then a heap of tuples as in an event loop."""
    s = 0
    for i in range(150_000):
        s += i * i
    heap: list[tuple[float, int]] = []
    for k, key in enumerate(_KEYS):
        heappush(heap, (key, k))
        if len(heap) > 256:
            heappop(heap)


def loop_time() -> float:
    """Mean of four timings of ``_loop``."""
    total = 0.0
    for _ in range(4):
        t0 = perf_counter()
        _loop()
        total += perf_counter() - t0
    return total / 4


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from loop times around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
