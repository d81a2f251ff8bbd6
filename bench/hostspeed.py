"""Host speed sampled while the program runs, and times scaled to a fixed
reference speed.

The benchmark's host is a shared VM whose vCPUs run at one of two speeds, the
slow one about half the fast one, in stretches from tens of milliseconds to
minutes (other tenants' load on the same physical cores).  CPU time does not
help: the VM's own accounting sees no steal.  So the benchmark samples the
speed: an interval timer interrupts the process every ``INTERVAL_S`` and runs
a fixed piece of pure-Python integer and method-call work (the probe) in the
signal handler.  The probe is the benchmark's own code and never changes with
the program, so a change that makes the program faster still reads faster.

A span's *reference seconds* are its seconds with the probes taken out, each
stretch between two probes scaled by ``REF_PROBE_S / (the last probe's
seconds)``: the time the span would take if every probe read
``REF_PROBE_S``, about the fast speed of the host in ``baseline.json``.

Interval timers are not inherited across fork, so a forked pool worker calls
``start()`` itself (``tracer.py`` does, on the worker's first prime).
"""

from __future__ import annotations

import os
import signal
from bisect import bisect_right
from time import perf_counter as clock

INTERVAL_S = 0.02
PROBE_STEPS = 1200
REF_PROBE_S = 0.0005  # a probe at the host's fast speed, rounded


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def mul(self, other, m):
        return _Cell(self.v * other.v % m)


def probe_work(steps: int = PROBE_STEPS) -> int:
    """Fixed work shaped like the program's: objects, method calls and
    products reduced modulo a 72-bit prime power."""
    m = 4001**6
    a, b = _Cell(1), _Cell(4001**3 + 7)
    acc = []
    for _ in range(steps):
        a = a.mul(b, m)
        acc.append(a.v & 255)
    return sum(acc)


class Sampler:
    """Probes of this process: ``ends[i]`` and ``secs[i]`` are the end and
    the duration of the i-th probe, in ``perf_counter`` time."""

    def __init__(self):
        self.pid = None
        self.ends: list[float] = []
        self.secs: list[float] = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = clock()
        probe_work()
        t1 = clock()
        self.ends.append(t1)
        self.secs.append(t1 - t0)

    def start(self) -> None:
        """Sample in this process from now on (again after a fork)."""
        if self.pid == os.getpid():
            return
        self.pid = os.getpid()
        self.ends, self.secs = [], []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        probe_work()  # a first sample before any span starts
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self.pid != os.getpid():
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.pid = None

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds of the span [a, b] of this process."""
        ends, secs = self.ends, self.secs
        i = bisect_right(ends, a)  # probes ending after a
        total, t = 0.0, a
        while i < len(ends) and ends[i] <= b:
            # [t, start of probe i] ran at the speed of probe i - 1
            start = ends[i] - secs[i]
            if start > t:
                total += (start - t) * REF_PROBE_S / secs[max(i - 1, 0)]
            t = ends[i]
            i += 1
        if b > t:
            total += (b - t) * REF_PROBE_S / secs[max(i - 1, 0)]
        return total


SAMPLER = Sampler()
