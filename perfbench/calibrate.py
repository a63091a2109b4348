"""Machine-speed calibration: a fixed pure-Python loop, timed next to the solves.

On a shared machine the speed of the interpreter changes in waves that last
seconds to minutes, as other tenants load the same cores. A solve and a run
of this loop made back to back are slowed alike, so their ratio stays put
while the machine's speed moves. The benchmark divides each solve's time by
the mean time of the loop run just before and just after it, and reports the
ratio in reference seconds: seconds on a machine that runs the loop in
``REFERENCE_S``.

The loop uses nothing from cutkit, so no change to cutkit moves it.
"""

import time

REFERENCE_S = 0.01


def _loop() -> int:
    counts: dict[int, int] = {}
    for i in range(40000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    return len(sorted(counts.items()))


def calibration_s() -> float:
    """Seconds one run of the calibration loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def reference_s(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds, given the loop's time around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
