"""Host-speed probe: converts measured host time to reference seconds.

On a shared host the CPU a process runs on slows and speeds up by a
quarter or more within seconds, as co-tenants come and go, and most code
slows with it. A run's raw time therefore measures the host as much as
the program. :class:`HostSpeed` measures the host during the run: a profiling
timer fires every :data:`PROBE_EVERY` seconds of process CPU time and
its handler times a fixed probe loop of dictionary lookups and method
calls, which slows with the host much as the interpreter-bound,
cache-hungry workloads do (its table adds about 6 MB to a process's
peak RSS, the same in every run). The mean probe time over an
interval, against :data:`REFERENCE_PROBE_S`, is the host's slowdown over
that interval; the interval's time less its probes, divided by the
slowdown, is its time in *reference seconds* — what it would have taken
on a host where the probe takes :data:`REFERENCE_PROBE_S`.

On the benchmark's workloads this cut the spread of single timed runs
(interquartile range over median) from 8-22% in host seconds to 3-8% in
reference seconds. A pure arithmetic probe tracked them less well, and
probes that allocate were noisier still (their garbage collections).
"""

from __future__ import annotations

import random
import signal
import statistics
import time

#: Process CPU seconds between probes.
PROBE_EVERY = 0.005
#: The probe's time on the reference host: a typical reading on a 2-vCPU
#: x86-64 cloud VM running CPython 3, so reference seconds stay close to
#: that host's seconds.
REFERENCE_PROBE_S = 2.5e-4

_STRIDE = 7919
#: A table larger than the core's private caches, and the keys probed.
_TABLE = dict.fromkeys(range(0, 65536 * _STRIDE, _STRIDE))
_KEYS = [random.Random(0).randrange(65536) * _STRIDE for _ in range(1500)]


class _Counter:
    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1


class HostSpeed:
    """Probes host speed while started; converts intervals afterwards."""

    def __init__(self) -> None:
        #: (probe start, probe seconds) in ``time.perf_counter`` time.
        self.probes: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        # Restart system calls the probe interrupts (file and SQLite I/O).
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY, PROBE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # Not SIG_DFL: that kills the process if a probe signal is
        # still pending.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _probe(self, signum, frame) -> None:
        clock = time.perf_counter
        begin = clock()
        lookup, counter = _TABLE.get, _Counter()
        for key in _KEYS:
            lookup(key)
            counter.bump()
        self.probes.append((begin, clock() - begin))

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the ``perf_counter`` interval [start, end].

        Uses the probes inside the interval, or every probe when the
        interval is too short to hold one.
        """
        inside = [d for t, d in self.probes if start <= t < end]
        probes = inside or [d for _, d in self.probes]
        busy = end - start - sum(inside)
        return busy * REFERENCE_PROBE_S / statistics.fmean(probes)
