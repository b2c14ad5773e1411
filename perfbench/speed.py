"""Host-speed monitor.

Shared hosts change speed under a benchmark: on a shared 2-vCPU Xeon VM a
fixed Python loop runs about 1.4 times slower for episodes of seconds to
tens of seconds, set by other tenants.  Raw op times then depend mostly
on when a run happened.

The monitor times a fixed reference kernel (small numpy calls, Generator
construction, frozen-dataclass updates and ``math.exp``: the mix saradc's
per-sample path spends its time on, but none of saradc's code).  A probe
runs the kernel ``REPEATS`` times back to back and keeps the fastest, so
the cache state the program left behind does not enter the reading.
Probes run every ``INTERVAL_S`` of CPU time from a SIGPROF handler and in
explicit bursts between measured stretches.  A span's scaled time is its
wall time, minus the probes that ran inside it, times ``REFERENCE_S`` over
the mean probe reading around it: the time the span would take on a host
where the kernel takes ``REFERENCE_S``.  The kernel is part of the
benchmark, so it is the same for every commit compared.
"""

import math
import signal
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 1e-3   # kernel duration that defines the reference host speed
INTERVAL_S = 0.1     # CPU seconds between probes while the monitor runs
REPEATS = 3          # kernel runs per probe; the fastest is the reading
WINDOW_S = 0.25      # probes this close to a span still describe its speed

clock = time.perf_counter
_TEN = np.arange(10.0)


@dataclass(frozen=True)
class _State:
    a: float
    b: float
    tail: tuple


def kernel() -> float:
    """The fixed reference work: about 1 ms on the reference host."""
    st = _State(0.0, 1.0, ())
    acc = 0.0
    for i in range(40):
        acc += float(np.sum(_TEN * 0.5))
        acc += np.random.default_rng(i).standard_normal()
        for j in range(8):
            g = math.exp(-j / 10.0)
            st = _State(st.a * g + 0.1, st.b - g, st.tail[-3:] + (j,))
    return acc + st.a


class SpeedMonitor:
    """Probe start times, readings and costs, kept in memory for one run."""

    def __init__(self):
        self.starts = array("d")
        self.readings = array("d")   # fastest kernel run of each probe [s]
        self.costs = array("d")      # wall time each probe took [s]
        self.spent = 0.0             # total probe cost so far [s]
        self._busy = False
        self._previous = None
        for _ in range(REPEATS):
            kernel()

    def probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = clock()
            best = math.inf
            for _ in range(REPEATS):
                t0 = clock()
                kernel()
                best = min(best, clock() - t0)
            cost = clock() - start
            self.costs.append(cost)
            self.spent += cost
            self.readings.append(best)
            self.starts.append(start)
        finally:
            self._busy = False

    def probe_free_clock(self) -> float:
        """perf_counter minus the time probes have taken: spans timed with it
        exclude any probe that fired inside them."""
        return clock() - self.spent

    def burst(self, n: int) -> None:
        for _ in range(n):
            self.probe()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed, probes excluded.

        Uses the probes that started within WINDOW_S of the span; call it
        once the probes after the span have run.
        """
        lo = bisect_left(self.starts, t0 - WINDOW_S)
        first_inside = bisect_left(self.starts, t0)
        last_inside = bisect_left(self.starts, t1)
        hi = bisect_left(self.starts, t1 + WINDOW_S)
        window = self.readings[lo:hi]
        if not window:
            raise RuntimeError("speed monitor: no probe near the span")
        inside = sum(self.costs[first_inside:last_inside])
        return (t1 - t0 - inside) * REFERENCE_S * len(window) / sum(window)
