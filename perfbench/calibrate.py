"""The calibration loop that measures how fast the machine runs right now.

``run.py`` divides the machine's speed out of every time it reports (see
its docstring); ``setup_probe.py`` samples the speed in the fresh
interpreter it times.  Nothing here imports ``posetdet``, so a change to
the program cannot change the yardstick.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

CAL_REPEATS = 5
# The loop's median time on the machine the benchmark was made on (2 vCPU
# Intel Xeon virtual machine, Python 3.11.7).
CAL_REFERENCE_S = 2.0e-4
CAL_TERMS = 30


def calibration_loop() -> Fraction:
    """Fixed work that does not touch ``posetdet``: an exact sum of
    ``Fraction`` products, pure-Python code on growing ints as in the
    program.  Of the loops tried, this one slowed most nearly in step with
    every workload when the machine did."""
    total = Fraction(0)
    for k in range(1, CAL_TERMS):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
    return total


def machine_speed(repeats: int = CAL_REPEATS) -> float:
    """How many times faster than at its reference speed the machine runs
    now: CAL_REFERENCE_S over the median of ``repeats`` timings of the
    calibration loop.  The median ignores a timing cut by preemption."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return CAL_REFERENCE_S / statistics.median(times)
