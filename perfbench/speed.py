"""Host-speed reference that the benchmark's timings are scaled by.

The benchmark shares a few cores of a host whose speed drifts: plain
CPU-bound Python runs up to 1.7x slower for seconds at a time, in CPU
time as much as in wall time.  A run that lands in a slow spell would
read as a regression of the program.

So the benchmark times a fixed piece of pure-Python work (sparse
products of dicts keyed by exponent tuples with Fraction values, the
kind of work gradedq does, but no gradedq code) right before and right
after every timed interval, and reports the interval at the reference
speed:

    scaled = elapsed * NOMINAL_S / mean(reference before, reference after)

NOMINAL_S is the reference's time on the 2-core machine the benchmark
was built on, at that machine's full speed, so a scaled time is about
the time the interval takes there when nothing slows it.  A change to
gradedq moves the interval but not the reference, so it shows in full.
The run prints the unscaled wall times next to the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 2.5e-3
WARMUP = 5

_TERMS = {(i, j, (i * j) % 3): Fraction(i - j, 1 + i % 3)
          for i in range(6) for j in range(5)}


def _reference_work() -> dict:
    out: dict = {}
    for ka, ca in _TERMS.items():
        for kb, cb in _TERMS.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, 0) + ca * cb
    return out


def reference_s() -> float:
    """Seconds one pass of the reference work takes now."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def warm_up() -> None:
    for _ in range(WARMUP):
        reference_s()


def scale(elapsed_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """`elapsed_s` at the reference speed."""
    return elapsed_s * NOMINAL_S * 2 / (ref_before_s + ref_after_s)
