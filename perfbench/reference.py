"""The speed of the core the repetitions run on, measured while they run.

On a shared machine a core's throughput moves by 20-40 % over tens of
seconds as neighbours load the host: the same repetition of the same inputs
has taken 6.3 s and 10.4 s of CPU time a minute apart.  CPU time does not
remove that, because the repetition is not paused but runs slower.

:class:`SpeedReference` pins the calling thread, and so the child
interpreters it starts, to one core.  On that core a thread at the lowest
priority runs a fixed numpy loop that uses nothing from ``adaptive_em``;
it gets about 2 % of the core while a repetition runs.  Each block of the
loop records its start, end and CPU time.  A repetition's CPU time scaled by
``NOMINAL_BLOCK_S`` over the median block time during the repetition is its
CPU time at the reference speed.  A slow stretch of the core slows the
repetition and the blocks alike and cancels out; a change to the package
moves this figure as much as it moves the raw CPU time.  On a 2-core virtual
machine, nine repetitions of one seed spread by 30 % in CPU time and by 7 %
at the reference speed (quartile distance over median).
"""

from __future__ import annotations

import os
import statistics
import threading
from time import monotonic, thread_time

import numpy as np

# Median CPU time of one block beside a repetition, on the 2-core machine the
# benchmark was sized on.  Any fixed value works: parent and change are
# scaled by the same one.
NOMINAL_BLOCK_S = 0.015
_X = np.random.default_rng(12345).normal(size=512)


def block():
    """One block of the reference loop: small-array numpy calls, as a lockstep iteration makes."""
    for _ in range(2000):
        np.where(_X > 0.0, np.sqrt(np.abs(_X)), _X * _X).sum()


class SpeedReference:
    """Pins this thread to one core and times :func:`block` beside it, at the lowest priority."""

    def __init__(self):
        self.blocks = []  # (start, end, CPU seconds) per block
        self.core = max(os.sched_getaffinity(0))
        self._saved = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        os.sched_setaffinity(0, {self.core})  # this thread only
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
        while not self._stop.is_set():
            t0, c0 = monotonic(), thread_time()
            block()
            self.blocks.append((t0, monotonic(), thread_time() - c0))

    def __enter__(self):
        self._saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.core})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._saved)

    def scale(self, start, end):
        """``NOMINAL_BLOCK_S`` over the median CPU time of the blocks overlapping [start, end]."""
        during = [cpu for t0, t1, cpu in self.blocks if t1 > start and t0 < end]
        if not during:
            raise RuntimeError("no reference block ran during the repetition")
        return NOMINAL_BLOCK_S / statistics.median(during)
