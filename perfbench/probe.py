"""A speed probe that runs inside each session, so times can be reported at
a fixed machine speed.

On a shared host the same session can take 12 s one minute and 20 s a few
minutes later, on identical code; timings taken at different moments then
differ by more than any change worth measuring.  The probe measures the
host's speed at the same moments and on the same processor as the work:
every ``INTERVAL_S`` (``SETUP_INTERVAL_S`` during set-up, which is short)
a timer signal runs a fixed integer loop in the session's own thread and
records how long it took.  A duration measured
with ``clock`` (which leaves the probe's own time out) is reported in
*reference seconds*: seconds x ``REF_S`` / the median probe time over the
same span.  The loop touches no data of its own, so what the session has
in its caches barely moves it.  POSIX only (``setitimer``).
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
SETUP_INTERVAL_S = 0.002
REF_S = 180e-6  # a typical probe time on the machine the bounds were set on
_LOOPS = 2000


class Probe:
    def __init__(self):
        self.samples: list[float] = []
        self.total = 0.0  # seconds spent in the probe so far

    def _run(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        s = 0
        for i in range(_LOOPS):
            s += i * i % 7
        took = time.perf_counter() - start
        self.samples.append(took)
        self.total += took

    def start(self, interval: float = INTERVAL_S) -> None:
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def clock(self) -> float:
        """Seconds, not counting the time the probe itself took."""
        return time.perf_counter() - self.total

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int, until: int | None = None) -> float:
        """Reference seconds per measured second over samples[since:until]."""
        window = self.samples[since:until]
        if not window:  # a span shorter than one interval
            self._run()
            window = self.samples[-1:]
        return REF_S / statistics.median(window)
