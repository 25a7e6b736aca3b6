"""A fixed calibration kernel that tracks how fast this machine runs right now.

On a shared host the same code can run 1.5-2x slower for tens of seconds
while neighbours are busy, which swamps any change worth measuring.  The
benchmark therefore times this kernel right before and after every timed
call and reports the call's time in *calibrated seconds*:

    t_calibrated = t_measured * REFERENCE_S / t_kernel

i.e. the time the call would take on a machine where the kernel takes
``REFERENCE_S``.  The kernel uses none of skybell's code.  It mixes the
kinds of work the workloads do: interpreted Python arithmetic, small
numpy array calls, Philox multinomial draws, and float formatting and
parsing.  Raw times are printed next to the calibrated ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel time that maps to one calibrated second per measured second.
REFERENCE_S = 0.04


def _python_loop() -> float:
    s = 0.0
    for i in range(30000):
        s += math.sqrt(i) * 1.5
    return s


def _small_arrays() -> complex:
    m = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    s = 0j
    for _ in range(1500):
        s += np.trace(m @ m)
    return s


def _philox() -> int:
    total = 0
    for key in range(40):
        rng = np.random.Generator(np.random.Philox(key=key))
        n = int(rng.binomial(1 << 18, 0.3))
        total += int(rng.multinomial(n, [0.1, 0.2, 0.3, 0.4])[0])
        total += int(rng.multinomial((1 << 18) - n, [0.25] * 4)[0])
    return total


def _text() -> float:
    text = ",".join(repr(i / 7.0) for i in range(10000))
    return math.fsum(float(v) for v in text.split(","))


def kernel() -> tuple[float, float]:
    """Run the kernel once; returns its (wall, cpu) seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    _python_loop()
    _small_arrays()
    _philox()
    _text()
    return time.perf_counter() - t0, time.process_time() - c0
