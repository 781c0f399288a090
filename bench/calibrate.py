"""Machine-speed calibration for the benchmark's timings.

The machines the benchmark runs on are shared: another tenant can make
every instruction slower for minutes at a time, by half or more, which no
amount of repetition inside one run averages away.  So each operation is
timed together with a fixed pure-Python kernel run just before it, and
the benchmark reports the operation's time in units of the kernel's time,
converted back to seconds with ``REFERENCE_SECONDS``.  A slowdown of the
machine slows both and cancels; a slowdown of torikit does not.

The kernel does the kind of work torikit does (``Fraction`` arithmetic,
small tuples, dict lookups) and does not depend on torikit.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: The kernel's fastest time on the 2-core x86-64 VM (Python 3.11.7) where
#: the baseline was recorded; it only sets the scale of reported times.
REFERENCE_SECONDS = 0.00115


def kernel() -> tuple[Fraction, int]:
    acc = Fraction(0)
    seen: dict[tuple[int, int, int], int] = {}
    for k in range(1, 400):
        acc += Fraction(k % 7, k % 11 + 1)
        v = (k, k * k % 13, -k)
        seen[v] = sum(a * b for a, b in zip(v, (3, 5, 7)))
    return acc, len(seen)


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
