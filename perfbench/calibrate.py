"""Machine-speed calibration ticks, interleaved with the timed work.

On a shared virtual machine the same repetition runs anywhere from 1x to
2x its quiet time, and the slowdown drifts over minutes: other tenants
contend for the physical cores under the virtual CPUs, which inflates
CPU time as much as wall time, so no choice of repetitions or medians
inside a run of tens of seconds averages it away.  What does cancel it
is a fixed piece of work timed at the same moments as the workload.

A :class:`Calibrator` runs ``TICK_KERNELS`` calls of a small fixed
kernel (a Python dict loop plus small NumPy sorts and sums, the mix the
workloads' hot paths are made of) from a ``SIGALRM`` handler every
``PERIOD_S`` seconds of a timed step.  The handler runs between byte
codes of the main thread, so the ticks sample the machine's speed
throughout the step.  Their wall and CPU time is taken out of the
step's; their mean time gives the step's speed factor.  The kernel uses
no code of the program, so a change to the program cannot change it.

:func:`adjust` scales a host time by ``REF_TICK_S / tick``: the time the
work would have taken had the ticks run at ``REF_TICK_S``, which is
about their time on an idle 2.1 GHz Xeon (2 vCPU), so adjusted times
read close to that machine's quiet wall times.  Measured on that
machine, the spread of raw wall time over repetitions of one workload
fell from 8-12 % to about 3 % adjusted.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: Seconds between ticks during a timed step.
PERIOD_S = 0.1
#: Kernel calls per tick (about 2 ms on the reference machine).
TICK_KERNELS = 30
#: Ticks run back to back right after set-up, to scale ``setup_s``.
BURST_TICKS = 12
#: A tick's time on the reference machine, the unit of adjusted times.
REF_TICK_S = 0.002


def adjust(seconds: float, tick_s: float) -> float:
    """``seconds`` measured while ticks took ``tick_s``, at the
    reference speed."""
    return seconds * REF_TICK_S / tick_s


class Calibrator:
    """Times the calibration kernel during timed steps."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._x = rng.random(256)
        self._keys = [int(k) for k in rng.integers(0, 97, 600)]
        self.ticks: List[float] = []
        #: Wall and CPU time spent in ticks, to take out of the steps'.
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._kernel()

    def _kernel(self) -> float:
        x, total = self._x, 0.0
        for _ in range(6):
            total += float(np.cumsum(x[np.argsort(x)])[-1]) + float(x @ x)
        counts = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1
        for i in range(0, 256, 4):
            total += x[i] * 0.5
        return total + len(counts)

    def _timed_tick(self):
        start, cpu = time.perf_counter(), time.process_time()
        for _ in range(TICK_KERNELS):
            self._kernel()
        return time.perf_counter() - start, time.process_time() - cpu

    def tick(self, *_signal_args) -> None:
        seconds, cpu_s = self._timed_tick()
        self.ticks.append(seconds)
        self.wall_s += seconds
        self.cpu_s += cpu_s

    def burst(self) -> float:
        """Median time of ``BURST_TICKS`` back-to-back ticks, which are
        not counted in ``ticks``, ``wall_s`` or ``cpu_s``."""
        return statistics.median(self._timed_tick()[0]
                                 for _ in range(BURST_TICKS))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # Ignored, not the default action (which ends the process), in
        # case a last signal is still pending.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
