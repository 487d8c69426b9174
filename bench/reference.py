"""A fixed reference computation that gauges the machine's current speed.

The benchmark shares a few cores of a host with other tenants.  Their load
switches this machine between a fast and a slow state, about 1.5x apart,
for seconds to minutes at a time, so one run can land in either.  A timed
run therefore keeps a ``Gauge`` running: a timer signal interrupts the
benchmark every PERIOD seconds and times one short reference call, so the
reference is sampled evenly over the same seconds as the work it gauges.
Times are reported in reference seconds, on a machine on which one
reference call takes REF_S seconds:

    reported = (measured - time in the gauge) * REF_S / mean(gauge samples)

The mean, not the median, because the work's time is the sum over both
states and the mean of evenly spaced samples weighs them the same way.

The reference does the kind of work egdeg's hot loops do (damped Newton on a
small batch of points in R^3: polynomial evaluation, a finite-difference
Jacobian, per-row pseudo-inverses and a dict of rounded points), in numpy
and the interpreter, and nothing in it depends on egdeg, so a change to
egdeg moves the reported times and a change in the machine's speed does not.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Seconds one reference call takes on the 2-core x86-64 VM the benchmark was
# written on, in its slow state; it only sets the scale of reported times.
REF_S = 0.006
PERIOD = 0.05
MIN_SAMPLES = 40

_COEF = np.random.default_rng(12345).normal(size=(3, 10)) * 0.5


def _field(p: np.ndarray) -> np.ndarray:
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    mons = np.stack([np.ones_like(x), x, y, z, x * y, y * z, x * z,
                     x * x * y, y * y * z, z * z * x], axis=1)
    return mons @ _COEF.T + p ** 3


def reference_call() -> float:
    """One reference computation; returns a checksum so it cannot be skipped."""
    pts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(64, 3))
    for _ in range(10):
        f = _field(pts)
        jac = np.empty((len(pts), 3, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = 1e-6
            jac[:, :, j] = (_field(pts + step) - f) / 1e-6
        for k in range(0, len(pts), 8):
            pts[k] -= np.linalg.pinv(jac[k]) @ f[k]
        seen: dict = {}
        for q in np.round(pts[:16], 3):
            seen[tuple(q)] = seen.get(tuple(q), 0) + 1
    return float(np.abs(f).sum())


class Gauge:
    """Reference calls timed every PERIOD seconds while ``running``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0      # wall seconds spent inside the gauge
        self._busy = False

    def _sample(self, *_):
        if self._busy:        # a tick that lands inside a sample is skipped,
            return            # so no second counts its time twice
        self._busy = True
        start = time.perf_counter()
        reference_call()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def top_up(self):
        """Sample back to back up to MIN_SAMPLES, after a phase too short
        to collect them."""
        while len(self.samples) < MIN_SAMPLES:
            self._sample()

    def scale(self) -> float:
        """Factor that turns this machine's seconds into reference seconds."""
        return REF_S / statistics.fmean(self.samples)
