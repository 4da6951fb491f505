"""Host speed, measured with a fixed reference kernel interleaved with the work.

The benchmark runs on shared machines whose speed changes by a third or
more from one second to the next, for wall and CPU time alike.  A run
therefore times a fixed kernel, made of the same kinds of work as the
package (interpreted loops, small numpy calls, a sort, a few scipy L-BFGS-B
steps), in short slices spread over the work, and reports every time scaled
to a host on which that kernel takes ``REFERENCE_S`` seconds.  A change to
the package does not change the kernel, so it still moves the scaled times;
a host that slows down for a while slows both and cancels out.

While ``Meter.running`` is active, a ``SIGALRM`` timer runs the kernel every
``INTERVAL_S`` seconds of wall time, inside the work itself (Python runs the
handler between bytecodes, so a long numpy call delays it).  ``Meter.clock``
is a clock that leaves the kernel's own time out; the work is timed with it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy import optimize

REFERENCE_S = 0.003  # seconds the kernel takes at the reference speed
INTERVAL_S = 0.06  # wall time between kernel runs while the work runs (about 5%)

_X = np.linspace(0.0, 1.0, 50)
_A = np.random.default_rng(1).normal(size=(150, 1))


def reference() -> float:
    """The fixed kernel; returns a checksum so none of it is skipped."""
    acc = 0.0
    for i in range(6000):
        acc += (i % 7) * 0.5
    for _ in range(100):
        acc += float(np.dot(_X, _X) + np.abs(_X - 0.3).max())
    order = np.argsort(np.abs(_A - _A.T), axis=1)
    res = optimize.minimize(optimize.rosen, np.full(3, 1.3), method="L-BFGS-B", options={"maxiter": 3})
    return acc + float(order[0, -1]) + float(res.fun)


class Meter:
    """Kernel timings taken in step with the work they scale."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0  # wall seconds spent in the kernel
        self._busy = False
        reference()  # first call pays for lazy imports inside scipy

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.stolen += took

    def burst(self, seconds: float) -> None:
        """Run the kernel for about ``seconds`` (at least once), between pieces of work."""
        end = self.stolen + seconds
        self.sample()
        while self.stolen < end:
            self.sample()

    def clock(self) -> float:
        """Wall seconds, less the time spent in the kernel."""
        return time.perf_counter() - self.stolen

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # an alarm that lands while the kernel runs is dropped
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample the kernel every ``INTERVAL_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: int = 0, end: int | None = None) -> float:
        """Multiplier from this host's seconds to seconds at the reference
        speed, from the kernel timings ``samples[start:end]``."""
        return REFERENCE_S / statistics.fmean(self.samples[start:end])
