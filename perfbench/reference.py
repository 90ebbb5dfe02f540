"""A fixed reference computation that measures the host's current speed.

The benchmark's shared host changes speed by tens of percent within
seconds and from minute to minute, for every process alike.  While a
worker sets up and while each job runs, a ``Sampler`` therefore interrupts
it every ``INTERVAL_S`` of wall time (``SIGALRM``) and times one short
slice of fixed work.  The slice does not use weavelab, so no change to the
program moves it: its time tracks only the host, at the moments the
program ran.  A time less its slices, scaled by ``NOMINAL_S`` over the
mean slice time, is that time at the speed the host had when
``NOMINAL_S`` was measured.

The slice mixes the kinds of work weavelab's kernels do: Python loops
over small numpy matrices (products, absolute sums, maxima, solves) and
plain Python arithmetic.
"""

from __future__ import annotations

import signal
import time

import numpy as np

DIM = 12
VECTORS = 48
ROUNDS = 4
INTERVAL_S = 0.05
# median slice time on a quiet moment of the 2-vCPU Xeon VM the benchmark
# was built on (Python 3.11.7, numpy 2.4.6); only a constant scale factor
NOMINAL_S = 0.0016

_rng = np.random.default_rng(20151119)
_MATRIX = _rng.standard_normal((DIM, DIM)) + DIM * np.eye(DIM)
_XS = list(_rng.standard_normal((VECTORS, DIM)))
_SIGNS = [np.where(_rng.random(DIM) < 0.5, -1.0, 1.0) for _ in range(VECTORS)]


def reference_slice() -> float:
    """Run one slice of the fixed work and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(ROUNDS):
        for x, s in zip(_XS, _SIGNS):
            y = _MATRIX @ (x * s)
            acc += float(np.abs(y).sum()) - float(np.max(y))
        acc += float(np.linalg.solve(_MATRIX, _XS[0]).sum())
        acc += sum(i * 0.5 for i in range(400))
    seconds = time.perf_counter() - t0
    if acc != acc:  # pragma: no cover - the work is fixed and finite
        raise RuntimeError("reference slice produced NaN")
    return seconds


class Sampler:
    """Times a reference slice every ``INTERVAL_S`` while it is running.

    Python runs the handler in the main thread between byte codes, so the
    slices fall between the sampled code's own steps.  ``stop`` returns the
    slice times taken since ``start`` and the wall time the slices took in
    all, which the benchmark takes off the sampled time.
    """

    def __init__(self):
        self._slices: list[float] = []
        self._busy = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self._slices.append(reference_slice())
        self._busy += time.perf_counter() - t0

    def start(self):
        self._slices, self._busy = [], 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[list[float], float]:
        """The slices and the time they took, with one more slice taken
        here so that there is at least one."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._handler(signal.SIGALRM, None)
        return self._slices, self._busy
