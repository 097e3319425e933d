"""The machine-speed probe that the benchmark's times are scaled by.

The machine's speed swings by up to 2x within seconds under other tenants'
load.  A time divided by the probe's time around it, times PROBE_REF_S, is
that time at the speed at which the probe takes PROBE_REF_S: the program's
own cost, with the swing divided out.  The probe is Python-level work on
tiny arrays, as the program's is, and does not touch the program.
"""

import statistics
import time

import numpy as np

PROBE_ROOTS = np.arange(8, dtype=complex)
PROBE_REF_S = 1.0e-3
# a job's speed is the median over this many jobs on either side of it
PROBE_SPAN = 2


def probe() -> float:
    """Seconds for a fixed burst of small NumPy calls, about 1 ms."""
    t0 = time.perf_counter()
    for _ in range(20):
        np.poly(PROBE_ROOTS)
    return time.perf_counter() - t0


def scale(times: list[float], probes: list[float]) -> list[float]:
    """Times of consecutive jobs at the reference speed.

    probes[i] and probes[i + 1] were taken just before and just after job
    i.  The speed at job i is the median, over jobs i - PROBE_SPAN to
    i + PROBE_SPAN, of the mean of those two probes: a single probe is
    noisier than the machine's speed changes from one job to the next."""
    around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    return [t * PROBE_REF_S / statistics.median(around[max(0, i - PROBE_SPAN):i + PROBE_SPAN + 1])
            for i, t in enumerate(times)]


def settled_probe(repeats: int = 5) -> float:
    """Median of several probes after one untimed call, for a fresh process."""
    np.poly(PROBE_ROOTS)
    return statistics.median(probe() for _ in range(repeats))
