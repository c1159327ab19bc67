"""Fixed reference work that measures how fast the machine runs right now.

The benchmark's host (a few vCPUs of a shared machine) changes speed: within
a fraction of a second every CPU-bound step can get about 1.6x slower or
faster again, in phases that last from seconds to minutes, with CPU time
tracking wall time. A run that falls in a slow phase reads slow whatever the
program does. So the benchmark times fixed work of the kind quadriclab does
(Python float arithmetic, chart-like closures that build small numpy arrays)
alongside the program, and scales each measured time to the speed at which
that work takes its reference time:

- ``Speedometer`` times ``probe()`` from a SIGALRM handler every
  ``INTERVAL_S`` of wall time while the worker runs operations. An
  operation's scaled time is its wall time minus the probes inside it, times
  the mean of ``PROBE_REFERENCE_S / probe time`` over those probes: the work
  done, in seconds of a machine at the reference speed.
- ``kernel_seconds()`` times ``KERNEL_PROBES`` probes in a row, for the
  set-up probes, which run in processes of their own.

The reference work is part of the benchmark, never of the program, so it is
the same on every commit; the two reference times only fix the unit (their
medians on the machine of the reference figures in README.md: 2 vCPUs,
x86_64, Python 3.11.7, numpy 2.4.6, one BLAS thread).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.005
PROBE_REFERENCE_S = 1.7e-4  # median probe time inside the SIGALRM handler
KERNEL_PROBES = 100
KERNEL_REFERENCE_S = 0.014  # median kernel_seconds()


def _rhs(n, a, p):
    return (1.0 - p * p) * math.cos(n * a) / math.sin(n * a)


def _embed(x, t=0.35):
    c0, s0, c1, s1 = math.cos(x[0]), math.sin(x[0]), math.cos(x[1]), math.sin(x[1])
    return np.array([c0 * c1, s0 * c1, s1 * math.cos(t), s1 * math.sin(t), c0 * s0 * math.cos(x[2])])


def probe() -> float:
    """About 0.2 ms of the reference work; returns a number so none is skipped.

    Python float steps like the profile ODE's, then chart-like evaluations
    that build small arrays from Python floats.
    """
    a, p, h = 0.26, 0.0, 1e-3
    for _ in range(60):
        k1 = _rhs(3, a, p)
        k2 = _rhs(3, a + 0.5 * h * p, p + 0.5 * h * k1)
        a, p = a + h * p, p + 0.5 * h * (k1 + k2)
    acc = a + p
    for k in range(6):
        v = _embed(np.array([0.1 * k, 0.2, 0.3]))
        acc += float(np.stack([v, 2.0 * v]).sum()) + float(np.linalg.norm(v))
    return acc


def kernel_seconds() -> float:
    """Time of KERNEL_PROBES probes in a row."""
    start = time.perf_counter()
    for _ in range(KERNEL_PROBES):
        probe()
    return time.perf_counter() - start


class Speedometer:
    """Times probe() every INTERVAL_S of wall time while it is started.

    The probes run in the main thread between bytecodes of whatever runs
    there; no thread or process is added.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last_speed = 1.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, seconds: float, mark: int) -> float:
        """Seconds measured since mark(), less the probes, at the reference speed.

        An operation too short to hold a probe takes the speed of the last
        probes before it.
        """
        probes = self.samples[mark:]
        if probes:
            self._last_speed = statistics.fmean(PROBE_REFERENCE_S / p for p in probes)
        return (seconds - sum(probes)) * self._last_speed


def scaled_by_kernel(seconds: float, kernel_s: float) -> float:
    """Wall seconds measured while the kernel took kernel_s, at the reference speed."""
    return seconds * KERNEL_REFERENCE_S / kernel_s
