"""Machine-speed probe: a fixed pure-Python loop that shares no code with repwords.

The shared 2-vCPU hosts this benchmark was written on run everything up
to about 1.5x slower for minutes at a time (CPU time moves with wall
time, so it is not waiting).  A 30-second run falls wholly inside such a
phase, and raw medians of two runs of the same code then differ by more
than the regression bounds.  Every measured interpreter therefore times
this probe before and after its passes, and run.py reports each time
metric as ``measured * REF_S / probe``: seconds at the speed the
reference host had when the probe took REF_S.  The raw medians are
printed next to them.  A change to repwords cannot move the probe.
"""

from __future__ import annotations

import time

REF_S = 0.014  # probe time on the reference host (2-vCPU Xeon VM, Python 3.11.7)
REPS = 3


def _loop() -> int:
    x, d = 3, {}
    for i in range(30_000):  # interpreter dispatch, small ints, dict stores
        d[i & 1023] = (i * i) % 1_000_003
        x = (x * x + i) % 1_000_000_007
    v, w = 7**6000, 3**4500  # big-integer multiply and divide
    for i in range(20):
        v = (v * w) // (w + i)
    return x ^ (v & 0xFFFF)


def probe() -> float:
    """Median of REPS timings of the fixed loop, in seconds."""
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t)
    return sorted(times)[REPS // 2]
