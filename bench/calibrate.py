"""Time CLI calls at a reference core speed.

Other tenants of a shared host slow the whole core, in phases that last
from seconds to minutes, so a run's wall times drift by a quarter or
more from one run to the next.  While a call runs, an interval timer
interrupts it every INTERVAL_S seconds to time a fixed probe; the call's
wall time, less the probe time, is divided by the probe's slowdown:
the median probe time over its time on an idle 2-vCPU Xeon (numpy
2.4.6, scipy-openblas 0.3.31, one BLAS thread).  The result is about
the time the call would take on that idle core.

The probe is the benchmark's own code and numpy only, never the
program's, so a change to the program cannot move it.  It has two
parts, timed apart, that stand for the two kinds of work the program
does: scalar spline evaluation through numpy 0-d arrays, and a layer's
matrix product on the workload's batch (its dataset rows).  Which kind
of contention a co-tenant causes changes from hour to hour: at times
it slows the scalar part most, at times the matrix product, and the
program's stages lie in between.  The slowdown is the geometric mean
of the two parts' slowdowns.  Measured stage by stage on desk22 and
walk1500 (with a batch part that also ran the activation and an Adam
update), each stage's own slowdown followed this mean with a log-log
slope of 0.85 to 1.45; against either part alone the slope ranged from
0.34 to 1.75.  A slope of 1 means the scaling cancels the contention.
"""

import signal
import statistics
import time

import numpy as np

REF_SCALAR_S = 9.0e-5  # idle-core time of the scalar part
REF_BATCH_S_PER_ROW = 2.45e-7  # idle-core time of the matrix product, per batch row
INTERVAL_S = 0.008

_rng = np.random.default_rng(12345)
_KNOTS = np.linspace(0.0, 10.0, 12)
_COEFFS = _rng.standard_normal((11, 4))
_W = _rng.standard_normal((75, 75))
_X = _rng.standard_normal((75, 32))


def scalar_part():
    total = 0.0
    for k in range(4):
        t = np.asarray(k * 1.17, dtype=float)
        if np.any(t < _KNOTS[0]) or np.any(t > _KNOTS[-1]):
            raise ValueError("probe time outside the knots")
        i = np.clip(np.searchsorted(_KNOTS, t, side="right") - 1, 0, len(_KNOTS) - 2)
        d = t - _KNOTS[i]
        a, b, c, e = (_COEFFS[i, j] for j in range(4))
        total += float(a + d * (b + d * (c + d * e)))
    h = _X
    for _ in range(2):
        h = np.maximum(_W @ h, 0.01 * h) * 0.1
    return total + float(h[0, 0])


class Clock:
    """Runs calls under the sampling timer; keeps every probe time."""

    def __init__(self, batch_rows):
        self.batch = _rng.standard_normal((batch_rows, 75))
        self.ref_batch_s = REF_BATCH_S_PER_ROW * batch_rows
        self.probes = []
        self._samples = []
        self._spent = 0.0

    def probe_s(self):
        """(scalar part, matrix product) seconds of one probe."""
        t0 = time.perf_counter()
        scalar_part()
        t1 = time.perf_counter()
        self.batch @ _W
        return t1 - t0, time.perf_counter() - t1

    def slowdown(self, samples):
        """The core's slowdown against the idle reference, from probe samples."""
        scalar = statistics.median(part for part, _ in samples) / REF_SCALAR_S
        batch = statistics.median(part for _, part in samples) / self.ref_batch_s
        return (scalar * batch) ** 0.5

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(self.probe_s())
        self._spent += time.perf_counter() - start

    def call(self, fn, *args):
        """(result, wall seconds, reference seconds) of fn(*args).

        Wall seconds exclude the probes run during the call.  One more
        probe runs just before the call and one just after, so a call
        shorter than INTERVAL_S is still scaled.
        """
        self._samples, self._spent = [self.probe_s()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start - self._spent
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(self.probe_s())
        self.probes.extend(self._samples)
        return result, wall, wall / self.slowdown(self._samples)

    def around(self, fn, *args):
        """Like call, for work that runs partly in a child process: the
        probe runs five times before and five times after, not during."""
        before = [self.probe_s() for _ in range(5)]
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = [self.probe_s() for _ in range(5)]
        self.probes.extend(before + after)
        return result, wall, wall / self.slowdown(before + after)
