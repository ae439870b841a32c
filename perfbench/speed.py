"""How fast the host runs, sampled all through a run, to scale times by.

The host this benchmark was sized on switches between a fast and a slow
phase every few seconds, from outside the benchmark's process; in the slow
phase everything takes about 1.7 times as long.  A 30 s run mixes the
phases by chance, so wall-clock medians of the same code differ by 25-50%
from run to run.

`Sampler` times a small pure-Python kernel every `INTERVAL` seconds from a
SIGALRM handler, also while an operation runs, with the thread's CPU clock,
so a pool thread that holds the CPU does not count.  `Sampler.scale(t0, t1)`
is ``REFERENCE_SECONDS`` over the median kernel time in [t0, t1], widened
to the `MIN_SAMPLES` samples around the interval's middle when it holds
fewer.  A wall-clock time multiplied by it is the time on a host where the
kernel takes ``REFERENCE_SECONDS``.  Sampling costs about 1% of the run.

The kernel uses neither numpy nor sourcefft, and its working set is a few
cache lines, so the state an operation leaves in the caches barely changes
its time.  Kernels that also ran numpy on 64 KiB-2 MiB arrays took 50%
longer inside the n=256 operations than inside the n=2^20 ones, and tracked
the host's speed worse.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL = 0.02
MIN_SAMPLES = 8
# Near the kernel's median CPU time over runs on the 2-core Xeon host the
# benchmark was sized on; only the unit of the scaled times depends on it.
REFERENCE_SECONDS = 0.0002


def kernel():
    total = 0
    for i in range(2000):
        total += (i * i) % 7
    return total


class Sampler:
    def __init__(self):
        # Arrays, not lists: a float object kept from inside the operations
        # would pin the allocator arena it landed in and raise peak memory.
        self.times = array("d")     # perf_counter() at each sample, increasing
        self.seconds = array("d")   # the kernel's CPU seconds at each sample
        self._previous = None

    def start(self):
        kernel()  # warm up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame):
        at = time.perf_counter()
        c0 = time.thread_time()
        kernel()
        self.seconds.append(time.thread_time() - c0)
        self.times.append(at)

    def scale(self, t0, t1):
        """REFERENCE_SECONDS over the median kernel seconds in [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        return REFERENCE_SECONDS / statistics.median(self.seconds[lo:hi])
