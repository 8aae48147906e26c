"""Host speed during a pass, for scaling its times to a fixed reference speed.

The benchmark runs on machines whose cores are shared with other tenants.
There the speed one process gets drifts by up to 1.6x over tens of seconds
to minutes: a fixed pure-Python loop took 6.5 ms in one second and 9-11 ms a
minute later, and a 25 s slice-cold pass took anywhere from 20 s to 34 s
(2-core x86 VM, Python 3.11). Such drift swamps the differences the
benchmark exists to detect.

So while a pass runs, a timer interrupts it every INTERVAL seconds and times
a fixed reference loop. A request's time is multiplied by REFERENCE_S over
the median loop time sampled from WINDOW seconds before it started to
WINDOW seconds after it ended: what it would read on a host where the loop
takes REFERENCE_S. Time spent in the handler is taken out of each request's
latency, though not out of the spans of a traced pass. A set-up is scaled
by the median loop time sampled in the set-up process from its start to its
"ready" line. The in-process workloads sample in the serving process itself;
cli-oneshot, whose requests are separate processes running latclone
unmodified, samples in the benchmark's own process while it waits for each
one, on the other core. The scaling cannot cancel contention that slows the
program's code and the loop differently.
"""

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL = 0.02
WINDOW = 1.0
REFERENCE_S = 0.0005   # the loop's time on the 2-core VM above in a quiet minute


def reference_loop():
    total = 0
    for i in range(6000):
        total += i * i
    return total


class SpeedProbe:
    """Times the reference loop on a SIGALRM timer between start() and stop().

    ``hook``, if given, is called after every sample; an exception it raises
    interrupts whatever the process was doing or waiting for.
    """

    def __init__(self, hook=None):
        self.times = []           # when each sample started
        self.samples = []         # how long the loop took
        self.spent = 0.0          # seconds the handler has run, in total
        self._hook = hook

    def sample(self):
        start = perf_counter()
        reference_loop()
        took = perf_counter() - start
        self.times.append(start)
        self.samples.append(took)
        self.spent += took

    def _tick(self, signum, frame):
        self.sample()
        if self._hook is not None:
            self._hook()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start, end):
        """REFERENCE_S over the median loop time sampled within WINDOW of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if lo == hi:
            raise RuntimeError("no speed sample near the request")
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
