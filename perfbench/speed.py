"""The host's speed, sampled while the benchmark runs.

The benchmark was written on a shared 2-vCPU VM whose speed drifts: a
fixed loop of Python takes from 1.0x to 1.7x its fastest time, in phases
that last from a fraction of a second to minutes, with no steal time the
guest can see.  Raw wall times of whole runs then spread by more than any
useful bound, and the fastest of a run's repetitions does not help when a
whole run falls in a slow phase.  So the benchmark measures the speed at
the moment it measures the program:

* ``Speed.start`` arms a timer signal that, every PERIOD_S, runs a short
  fixed loop of plain Python (the probe) and records when it ran and how
  long it took;
* ``Speed.normalised(t0, t1)`` is the time the program spent in [t0, t1],
  the probes' own time taken out, with each stretch between two probes
  rescaled by the probe's duration at that moment: the seconds the
  stretch would have taken at the reference speed, where one probe takes
  REF_PROBE_S.

The program sees a probe only as a pause between two of its bytecodes.
This module imports nothing but the standard library's C-level modules,
so starting it in a fresh interpreter does not pre-load anything the
program would import (the CLI workload times the program's imports).
"""
import bisect
import signal
import time

PERIOD_S = 0.02
PROBE_ITERS = 1000
# The probe's duration at the reference speed: about its fastest phase on
# a 2.0 GHz Intel Xeon VM with Python 3.11.  Any fixed value would do; this
# one makes a normalised second close to a wall second there.
REF_PROBE_S = 0.00012
SMOOTH = 9              # probes in the running median of the speed


def probe() -> int:
    """The fixed loop: integer arithmetic, a dict store and the loop's own
    branch per step.  Of the loops tried (method calls and float math,
    list reads over a large list, page faults, stat calls), its speed
    followed the program's best between the host's slow and fast phases:
    both ran about 1.5x faster in a fast phase."""
    s = 0
    d = {}
    for i in range(PROBE_ITERS):
        s += (i * i) % 7
        d[i & 63] = s
    return s


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class Speed:
    """Probe times (perf_counter, which is system-wide monotonic on Linux,
    so a child's probes line up with the parent's clock)."""

    def __init__(self, starts=(), ends=()):
        self.starts: list = list(starts)
        self.ends: list = list(ends)
        self._smooth: list = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_s(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def smoothed(self) -> list:
        """Each probe's duration as the running median of SMOOTH probes
        around it (a timer tick or a page fault can land in one probe)."""
        if len(self._smooth) != len(self.starts):
            durations = self.probe_s()
            half = SMOOTH // 2
            self._smooth = [_median(durations[max(0, k - half):k + half + 1])
                            for k in range(len(durations))]
        return self._smooth

    def normalised(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the program's work in [t0, t1]."""
        if not self.starts:
            raise RuntimeError("no speed probe ran in this process")
        smooth = self.smoothed()
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)     # probes first..last-1
        total = 0.0
        cursor = t0
        for k in range(first, last):
            total += (self.starts[k] - cursor) / smooth[k]
            cursor = min(self.ends[k], t1)
        # After the last probe inside (or the whole interval, if none fell
        # in it): the speed of the next probe, else of the last one.
        k = min(last, len(smooth) - 1)
        total += max(t1 - cursor, 0.0) / smooth[k]
        return total * REF_PROBE_S
