"""Host-speed reference: wall times scaled to a host of fixed speed.

On a shared 2-core x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) the
same 3,000-step solve took anywhere from 0.044 s to 0.197 s within five
minutes.  The host runs fast or slow for tens of seconds at a time and CPU
time tracks wall time, so neither more ops per run nor CPU time removes it:
medians of 25 s runs of one solve came out bimodal, 0.35 s or 0.57 s.

A fixed reference kernel that does not use pdflow slows down with the host.
:meth:`HostSpeed.measure` runs it three times before and three times after
the measured call, and every 50 ms during the call from a ``SIGALRM``
handler, and returns the call's time two ways, both without the kernel's
own time:

* the raw wall time;
* the *host-adjusted* time: raw x ``REFERENCE_S`` / mean kernel time, that
  is, the time the call would take on a host where the kernel takes exactly
  ``REFERENCE_S``.

The samples are spread evenly over the call, so their mean follows the
host's average speed during it, stalls included.  :meth:`HostSpeed.clock`
is a clock that stops while the kernel runs; timing spans inside the call
with it keeps the kernel's time out of every span.  The kernel mixes the
kinds of work the workloads do; in 10 s windows the ratio of a workload's
time to the kernel's varied by 2-5% (CV) while raw times moved by
10-12%.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1e-3
SAMPLE_INTERVAL_S = 0.05
BRACKET_SAMPLES = 3

_rng = np.random.default_rng(20170126)
_A = _rng.standard_normal((3, 5))
_S = _rng.standard_normal((40, 40))
_S = _S + _S.T
_M = _rng.standard_normal((600, 600))
_u = _rng.standard_normal(600)


def reference_kernel() -> float:
    """About 1 ms of the kinds of work the workloads do, in roughly these
    shares of time: an interpreted loop (35%), numpy calls on tiny vectors
    (30%), a 40x40 ``eigh`` (25%) and a 600x600 matvec (10%)."""
    acc = 0
    for i in range(5_000):
        acc += i * i
    x = np.ones(5)
    for _ in range(50):
        x = np.maximum(x - 1e-3 * (_A.T @ (_A @ x - 1.0)), 0.0)
    w = np.linalg.eigh(_S)[0]
    return float(acc + x.sum() + w[0] + (_M @ _u)[0])


class HostSpeed:
    def __init__(self):
        self._samples = []
        self._kernel_s = 0.0  # time spent in every sample so far
        self._busy = False

    def clock(self) -> float:
        """Seconds, like ``perf_counter``, without the time spent sampling."""
        return perf_counter() - self._kernel_s

    def _sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired while the kernel was running
            return
        self._busy = True
        start = perf_counter()
        reference_kernel()
        elapsed = perf_counter() - start
        self._samples.append(elapsed)
        self._kernel_s += elapsed
        self._busy = False

    def measure(self, fn, *args):
        """Call ``fn(*args)``; return ``(result, raw_s, adjusted_s)``."""
        self._samples = []
        for _ in range(BRACKET_SAMPLES):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = self.clock()
        try:
            result = fn(*args)
        finally:
            raw = self.clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(BRACKET_SAMPLES):
            self._sample()
        return result, raw, raw * REFERENCE_S / statistics.fmean(self._samples)
