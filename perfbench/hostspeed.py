"""How fast the host runs, sampled while the timed work runs.

On a shared host the same work can take twice as long a few seconds
later, because other tenants share the cores and caches.  ``Sampler``
times a short fixed pure-Python loop up to ten times a second from a
SIGALRM handler, so the loop runs in the benchmark's own thread, between
the program's bytecodes; a tick that falls in a long numpy call runs when
the call returns.  Scaling a measured wall time by the loop's mean
speed over the same interval gives the time the work would take on a
host that runs the loop in ``REFERENCE_S``.  Both the interpreter-bound
tree search and the numpy conv kernels slow down with the host by about as
much as this loop does.

The loop is timed in CPU time of the thread, so waiting for the GIL or for
a core does not read as a slow host.  The handler's own wall time is taken
out of every interval it falls in.  The module uses only the standard
library, so sampling can start before a repetition imports numpy.
"""

from __future__ import annotations

import signal
import time

#: Iterations of the reference loop, about 2 ms on a quiet 2-vCPU x86 VM.
ITERATIONS = 12_000
#: The loop's CPU time on the reference host; scaled times are in seconds
#: of that host.
REFERENCE_S = 0.002
#: Wall time between samples.
PERIOD_S = 0.1


def loop_cpu_s() -> float:
    """CPU time of this thread for one pass of the reference loop."""
    start = time.thread_time()
    acc, table = 0, {}
    for i in range(ITERATIONS):
        acc += (i * 7) % 13
        table[i & 255] = acc
    return time.thread_time() - start


class Sampler:
    """Samples of (wall start, wall duration, loop CPU time), one per tick."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = loop_cpu_s()
        self.samples.append((start, time.perf_counter() - start, cpu))

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """Wall time of ``[start, end)`` without the sampler's own ticks,
        and that time scaled to the reference host."""
        inside = [(wall, cpu) for t, wall, cpu in self.samples if start <= t < end]
        wall = end - start - sum(w for w, _ in inside)
        # Too short for a tick of its own: use the host speed of the whole run.
        speeds = [REFERENCE_S / cpu for _, cpu in inside or
                  [(w, c) for _, w, c in self.samples]]
        return wall, wall * sum(speeds) / len(speeds)
