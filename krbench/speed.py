"""Scale CPU times to a reference speed of the host.

On a virtual CPU that shares its physical core with other tenants, a fixed
piece of interpreter work switches between two speeds about 1.5 times apart,
in episodes of a few to a few hundred milliseconds, and the share of slow
episodes changes from one minute to the next. The CPU time of a
deterministic computation follows that share.

A Sampler measures the host's speed while an operation runs: every PERIOD_S
of wall time a timer signal interrupts the operation, and the handler times a
fixed walk over a small table (after one untimed walk that brings the table
back into the cache). The speed of a sample is REFERENCE_WALK_S divided by the
walk's time. Samples are uniform in time, so their mean is the mean speed over
the operation, and the operation's CPU time times that mean estimates the CPU
time it would take at the reference speed. The walk shares no code or data
with the library, so a change to the library moves the scaled time as it
moves the raw one. Memory-heavy work can slow down more than the walk, so the
scaled time of such work still rises somewhat on a slow host.
"""

import signal
import statistics
import time

PERIOD_S = 0.02
# Fewer samples than this give a phase the mean speed of the whole round.
MIN_SAMPLES = 25
# The walk's time on an uncontended core of the machine the benchmark was
# written on (Python 3.11.7); the unit of every scaled time.
REFERENCE_WALK_S = 5.0e-5

_N = 512
_TABLE = [[(7 * i + 3 * a + 1) % _N for a in range(2)] for i in range(_N)]
_WORD = tuple((k * k) % 3 % 2 for k in range(2000))


def _walk():
    """Table lookups only: the walk allocates nothing, so its time does not
    depend on the state of the heap the library leaves behind."""
    t = _TABLE
    s = 0
    for a in _WORD:
        s = t[s][a]
    return s


def sample_speed():
    """The host's speed now, relative to the reference speed."""
    _walk()
    t0 = time.perf_counter()
    _walk()
    return REFERENCE_WALK_S / (time.perf_counter() - t0)


class Sampler:
    """Samples the speed while armed, filed under the phase the caller is in
    (None: not sampling). `spent` is the wall time the handler took, which
    the caller takes out of the CPU time it measures."""

    def __init__(self, n_phases):
        self.speeds = [[] for _ in range(n_phases)]
        self.phase = None
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        phase = self.phase
        if phase is None:
            return
        t0 = time.perf_counter()
        self.speeds[phase].append(sample_speed())
        self.spent += time.perf_counter() - t0

    def arm(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take_speeds(self):
        """Mean speed of each phase's samples since the last call, and
        forget them. A phase with fewer than MIN_SAMPLES samples gets the
        mean of all samples."""
        every = [v for speeds in self.speeds for v in speeds]
        overall = statistics.fmean(every) if every else 1.0
        means = [statistics.fmean(speeds) if len(speeds) >= MIN_SAMPLES else overall
                 for speeds in self.speeds]
        self.speeds = [[] for _ in self.speeds]
        return means
