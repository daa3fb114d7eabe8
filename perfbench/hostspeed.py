"""Host-speed probe: a fixed loop timed again and again through a run.

The benchmark runs on shared virtual machines whose CPU speed drifts by
up to a third between runs a minute apart, and by a tenth between one
op and the next, as neighbours on the same physical cores come and go.
While an op runs, :class:`HostProbe` interrupts it every ``INTERVAL_S``
(``SIGALRM``; a CPU-time timer would coarsen the process CPU clock to
scheduler ticks) to time a fixed loop of dict, heap and small numpy
work, and the runner takes that time back out of the op's.
Op times are then scaled by ``NOMINAL_S / median(probe time)`` over a
window of consecutive ops (:func:`nominal_times`), set-up time by the
same ratio over the whole run: they read as seconds on a host where the
probe takes ``NOMINAL_S``.  The probe uses no ``repro`` code and
allocates no objects the garbage collector tracks, so a change to the
program cannot move it.
"""

from __future__ import annotations

import heapq
import signal
import statistics

import numpy as np

#: Median probe CPU time on the 2-vCPU Intel Xeon host the benchmark was
#: built on.
NOMINAL_S = 0.0024
#: Time between probes while an op runs.
INTERVAL_S = 0.05
#: Probe samples a window of consecutive ops holds at least.  The host's
#: speed drifts over seconds, so a window scaled by its own median tracks
#: it better than one factor for the run (on engine_scale- and
#: service_sweep-like ops, it halved the spread of the scaled times).
WINDOW_SAMPLES = 8


class HostProbe:
    """Probe samples for one run; :meth:`factor` is how much slower than
    nominal the host ran."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.samples: list = []
        #: Total CPU seconds the probes took; an op's time excludes its share.
        self.probe_s = 0.0
        self._table = dict.fromkeys(range(613), 0)
        self._heap: list = []
        self._lanes = np.arange(2048.0)
        self._remaining = INTERVAL_S
        self._probing = False

    def probe_once(self) -> float:
        """Time one fixed mix of the kinds of work ``repro`` does."""
        t0 = self.clock()
        table, heap = self._table, self._heap
        for i in range(2000):
            key = i % 613
            table[key] = (table[key] + i) & 0xFFFF
            heapq.heappush(heap, i * 7919 % 1009)
        while heap:
            heapq.heappop(heap)
        lanes = self._lanes
        for _ in range(40):
            lanes = np.roll(lanes, 1) * 0.5 + 1.0
        sample = self.clock() - t0
        self.samples.append(sample)
        self.probe_s += sample
        return sample

    def _on_signal(self, signum, frame) -> None:
        # Python runs a handler again if the timer fires while it runs (a
        # probe descheduled on a busy host): the nested probe would empty
        # the shared heap under the outer one's pop loop.  Skip it.
        if self._probing:
            return
        self._probing = True
        try:
            self.probe_once()
        finally:
            self._probing = False

    def __enter__(self) -> "HostProbe":
        """Probe every ``INTERVAL_S`` spent inside such blocks;
        the countdown carries over from one block to the next, so ops
        shorter than the interval are probed too."""
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, self._remaining, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._remaining = remaining or INTERVAL_S
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        if not self.samples:
            self.probe_once()
        return statistics.median(self.samples) / NOMINAL_S


def nominal_times(times: list, samples: list, fallback_factor: float) -> list:
    """``times`` (one per op, in run order) on the nominal host.

    ``samples[i]`` holds the probe samples taken during op ``i``.  Ops are
    cut into windows of consecutive ops holding at least
    ``WINDOW_SAMPLES`` samples (the ops after the last full window join
    it), and each window's times are divided by ``median / NOMINAL_S`` of
    its samples; ``fallback_factor`` serves a run with no samples at all.
    """
    cuts, count = [0], 0
    for i, taken in enumerate(samples, 1):
        count += len(taken)
        if count >= WINDOW_SAMPLES:
            cuts.append(i)
            count = 0
    if len(cuts) == 1:
        cuts.append(len(times))
    else:
        cuts[-1] = len(times)  # the ops after the last full window join it
    out = []
    for a, b in zip(cuts, cuts[1:]):
        pooled = [x for taken in samples[a:b] for x in taken]
        factor = statistics.median(pooled) / NOMINAL_S if pooled else fallback_factor
        out += [t / factor for t in times[a:b]]
    return out
