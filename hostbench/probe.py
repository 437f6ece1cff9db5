"""Machine-speed probe: host times in reference-speed seconds.

The benchmark's host shares its cores with other tenants, and its speed
drifts by tens of percent within seconds and between minutes.  A timer
signal interrupts the measured process every ``PERIOD_S`` and runs a
fixed pure-Python kernel (independent of the program under test),
timing it.  Probe time is subtracted from every measured interval, and
the interval is scaled by ``(REFERENCE_KERNEL_S / median kernel time)
** SENSITIVITY`` over the probes that fired inside it (or, for
intervals too short to hold ``MIN_PROBES`` probes, over a longer
enclosing one), so a slow phase of the machine, which stretches the
kernel and the program alike, cancels out.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.04
#: Probes an interval needs before its own speed is used.
MIN_PROBES = 5
#: The program's times move less with host contention than the
#: kernel's: over rounds of all four workloads on a shared 2-vCPU host,
#: the program's log-slowdown was about 0.7 of the kernel's, so the
#: kernel's speed ratio is raised to this power.
SENSITIVITY = 0.7
#: Time of one kernel call, run from the timer signal, at reference
#: speed.  It was set so that a reference second is close to a raw
#: second of a shared 2.1 GHz x86-64 host running CPython 3.11 at its
#: usual speed.
REFERENCE_KERNEL_S = 0.00015

clock = time.perf_counter


def kernel() -> float:
    """Fixed interpreter work like the program's: calls, dict access,
    list sort, float math."""
    table = {}
    items = []
    acc = 0.0
    for i in range(300):
        key = i % 31
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append((math.sqrt(i + 1.0), key))
    items.sort()
    for value, key in items:
        acc += value * table[key]
    return acc


class SpeedProbe:
    """Runs :func:`kernel` on a timer signal and accumulates its time."""

    def __init__(self) -> None:
        self.spent = 0.0   # all probe time, to subtract from intervals
        self.samples: List[float] = []   # seconds per kernel call
        self._previous = None

    def _fire(self, signum, frame) -> None:
        start = clock()
        kernel()  # warms the kernel's code and data after the program's
        timed = clock()
        kernel()
        kernel()
        end = clock()
        self.spent += end - start
        self.samples.append((end - timed) / 2)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def mark(self) -> Tuple[float, int]:
        """Probe state, to difference at the ends of an interval."""
        return self.spent, len(self.samples)


class Interval:
    """A measured interval: raw seconds, probe seconds and probe count."""

    def __init__(self, probe: SpeedProbe, start: float = None) -> None:
        self.probe = probe
        self.start = clock() if start is None else start
        self.mark = probe.mark()
        self.raw = self.spent = 0.0
        self.samples: List[float] = []

    def close(self) -> "Interval":
        spent, count = self.probe.mark()
        self.raw = clock() - self.start
        self.spent = spent - self.mark[0]
        self.samples = self.probe.samples[self.mark[1]:count]
        return self

    @property
    def count(self) -> int:
        """Probes that fired inside the interval."""
        return len(self.samples)

    @property
    def seconds(self) -> float:
        """Interval time without the probes' own time."""
        return self.raw - self.spent

    def speed(self) -> float:
        """Reference kernel time over the median kernel time measured
        inside the interval, to the power ``SENSITIVITY`` (1 when no
        probe fired there)."""
        if not self.samples:
            return 1.0
        ratio = REFERENCE_KERNEL_S / statistics.median(self.samples)
        return ratio ** SENSITIVITY

    def scaled(self, fallback: float) -> float:
        """Reference-speed seconds: at the interval's own speed when
        ``MIN_PROBES`` probes fired inside it, else at ``fallback``."""
        speed = self.speed() if self.count >= MIN_PROBES else fallback
        return self.seconds * speed
