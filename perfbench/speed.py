"""Reference probe and in-process sampler for a machine whose speed drifts.

On a shared virtual machine the same Python code can run 40 % slower for
stretches of seconds to minutes, in wall time and CPU time alike.  A fixed,
program-independent probe (exact rational arithmetic plus dict churn, the
same kind of work the verification kernel does) is timed at regular
intervals inside the measured process, on the same CPU, while the program
runs.  Dividing a measured time by the probe's slowdown against a fixed
reference gives "reference seconds": the time the work would have taken at
the speed where one probe takes REF_PROBE_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Probe duration that defines one reference second.  It is the probe's
# median wall time in a fast phase on the machine the README describes.
REF_PROBE_S = 0.002
INTERVAL_S = 0.1

_MATRIX = [[Fraction(i * 7 % 5 + 1, j % 3 + 1) for j in range(6)] for i in range(6)]


def probe() -> None:
    """A fixed amount of Fraction and dict work, independent of the program."""
    m = _MATRIX
    [[sum((m[i][k] * m[k][j] for k in range(6)), Fraction(0)) for j in range(6)] for i in range(6)]
    d = {}
    for i in range(700):
        d[(i, i % 7)] = Fraction(i, 3)


class Sampler:
    """Runs the probe on SIGALRM every INTERVAL_S seconds and keeps its timings.

    `spent_wall` and `spent_cpu` accumulate the probe's own cost, so callers
    subtract it from the spans they time.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def sample(self, *_):
        # A collection the probe's allocations would trigger belongs to the
        # program: it would run a few allocations later anyway, and its time
        # must not be subtracted with the probe's.
        collecting = gc.isenabled()
        gc.disable()
        w0 = time.perf_counter()
        c0 = time.process_time()
        probe()
        c = time.process_time() - c0
        w = time.perf_counter() - w0
        if collecting:
            gc.enable()
        self.wall.append(w)
        self.cpu.append(c)
        self.spent_wall += w
        self.spent_cpu += c

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factors(self) -> tuple[float, float]:
        """(wall, cpu) reference seconds per measured second.

        Samples are evenly spaced in time, so the mean of the probe's speed
        estimates the integral of speed over the span; on a shared 2-vCPU VM it
        tracks the program about three times better than the median probe
        time, whose value jumps between fast and slow phases.
        """
        wall = statistics.fmean(REF_PROBE_S / w for w in self.wall)
        cpu = statistics.fmean(REF_PROBE_S / c for c in self.cpu if c > 0)
        return wall, cpu
