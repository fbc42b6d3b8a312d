"""Machine-speed calibration: a fixed reference block, sampled through a run.

The measuring host is a small VM on a shared machine, and its speed drifts
by up to 1.5x over minutes, which moves every wall time by the same factor.
A fixed block of work that does not use benpde, with a mix like the
program's (an interpreter loop, numpy ops on a 128x65 array, small sparse LU
solves), is timed many times through a run.  The shares of the three parts,
about 60/20/20% of the block, were chosen as the mix whose time tracked the
time of heat solves and verify jobs most closely over minutes of drift.  Dividing a measured time by the run's
median block time, and multiplying by ``REFERENCE_BLOCK_S``, gives the time
in *reference seconds*: what it would have taken at the speed where the
block takes ``REFERENCE_BLOCK_S``.

During the measured passes a ``SIGALRM`` interval timer runs one block every
``INTERVAL_S`` seconds in the main thread, between bytecodes of the program,
so long jobs are sampled inside and not only at their ends.  The time spent
in blocks is subtracted from the pass times.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Median block time on the reference machine (2-vCPU Xeon VM, Python
#: 3.11, numpy 2.4, scipy 1.17); sets the scale of reference seconds.
REFERENCE_BLOCK_S = 0.009

#: Seconds between two timer-driven blocks.
INTERVAL_S = 0.2

_GRID = np.linspace(0.0, 1.0, 128 * 65).reshape(128, 65)
_MATRICES = [sp.csc_matrix(sp.diags([-1.0, 2.0 + 0.01 * k, -1.0], [-1, 0, 1],
                                    shape=(33, 33))) for k in range(35)]
_RHS = np.linspace(0.0, 1.0, 33)


def block() -> float:
    """Run the reference block once; return its seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i % 7
    v = _GRID
    for _ in range(40):
        v = np.sqrt(v * v + 1.0) - 0.5 * v
        v.sum(axis=1)
    for matrix in _MATRICES:
        spla.splu(matrix).solve(_RHS)
    return time.perf_counter() - start


class Sampler:
    """Collects block times, synchronously or from an interval timer."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in timer-driven blocks
        self.marks = []  # (start, end, block seconds) of timer-driven blocks

    def run(self, count: int) -> None:
        """Run ``count`` blocks now."""
        self.samples.extend(block() for _ in range(count))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = block()
        end = time.perf_counter()
        self.samples.append(seconds)
        self.marks.append((start, end, seconds))
        self.spent += end - start

    def start(self) -> None:
        """Sample every ``INTERVAL_S`` seconds until ``stop``."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Reference seconds per measured second, from the median block."""
        return REFERENCE_BLOCK_S / statistics.median(self.samples)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the time from ``start`` to ``end`` outside the
        timer-driven blocks.  Each stretch is scaled by the block that ends
        it, and the last stretch by the last block, so the speed is tracked
        through the interval; without a block inside, ``factor`` is used."""
        marks = [m for m in self.marks if start <= m[0] < end]
        if not marks:
            return (end - start) * self.factor()
        total, prev = 0.0, start
        for mark_start, mark_end, seconds in marks:
            total += (mark_start - prev) * REFERENCE_BLOCK_S / seconds
            prev = mark_end
        return total + (end - prev) * REFERENCE_BLOCK_S / marks[-1][2]
