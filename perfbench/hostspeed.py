"""Times in reference seconds, for a shared host whose speed drifts.

On a shared virtual machine the same code can run half again as long in
one minute as in the next, and process CPU time moves with wall time
(NOTES.md, "Host noise").  So while a stage runs, a ``SIGALRM`` every
``period`` seconds runs a fixed reference workload and times it: pure
Python loops (integer, dict and complex arithmetic) and small numpy calls,
nothing from fcqw.  A stage's time in reference seconds is its wall time,
the sampler's own time taken out, scaled by ``NOMINAL_S`` over the
reference's time, averaged over the samples taken while it ran: the time
the stage would take on a host that runs the reference in ``NOMINAL_S``.
Since fcqw is not in the reference, a change to fcqw moves a stage's
reference time by the same share as its wall time.

Use one ``HostClock`` per process, from the main thread only.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: the reference's time on the host these figures are scaled to
NOMINAL_S = 1.2e-3
_MATRIX = np.random.default_rng(0).standard_normal((24, 24))


def reference() -> float:
    """Seconds for one run of the fixed reference workload."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    table: dict[int, float] = {}
    z = 0.0
    for i in range(1500):
        k = i & 63
        table[k] = table.get(k, 0.0) + i * 0.5
        z += abs(complex(i, k))
    a = _MATRIX
    for _ in range(40):
        a = np.tanh(a @ _MATRIX * 0.01)
    return time.perf_counter() - t0


@dataclass
class Timed:
    """One timed block: ``raw_s`` is its wall time without the sampler's,
    ``ref_s`` the same in reference seconds."""

    raw_s: float = 0.0
    ref_s: float = 0.0


class HostClock:
    """Times blocks of code while sampling the host's speed."""

    def __init__(self, period: float):
        self.period = period
        self._refs: list[float] | None = None
        self._overhead = 0.0
        # installed once and left in place: a SIGALRM still pending when a
        # block ends finds this handler, which then does nothing
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum=None, _frame=None) -> None:
        refs = self._refs
        if refs is None:
            return
        t0 = time.perf_counter()
        refs.append(reference())
        self._overhead += time.perf_counter() - t0

    @contextlib.contextmanager
    def timed(self):
        """Time the block; the result is filled in when it ends."""
        out = Timed()
        refs = [reference()]  # a block shorter than the period still has a sample
        self._refs, self._overhead = refs, 0.0
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._refs = None  # a sample taken before this line is inside elapsed
            elapsed = time.perf_counter() - t0
            out.raw_s = elapsed - self._overhead
            out.ref_s = out.raw_s * statistics.fmean(NOMINAL_S / r for r in refs)
