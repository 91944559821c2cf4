"""Host-speed probe: a fixed piece of interpreter work, timed while the
benchmark runs.

On a shared 2-core virtual machine the host's speed drifts by up to 1.8x within
seconds, and it moves process CPU time with it.  The benchmark therefore
samples this probe throughout every timed pass and reports each timing also
rescaled to a host on which the probe takes ``PROBE_REF_S``
(``stats.normalized``).  The samples are taken in the main thread from a
SIGALRM interval timer, so they run between the bytecodes of the code being
timed and see the speed it sees; their own time is subtracted from the pass.
"""

from __future__ import annotations

import signal
import time

PROBE_LOOPS = 10_000
PROBE_REF_S = 0.0008  # a typical probe on a 2-core x86-64 VM, Python 3.11
INTERVAL_S = 0.1
BLOCK = 25


def probe() -> float:
    """Seconds the host takes for the fixed loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += (i * i) % 7
    return time.perf_counter() - start


def probe_block() -> float:
    """Mean of BLOCK probes back to back: the speed at one moment."""
    return sum(probe() for _ in range(BLOCK)) / BLOCK


class Sampler:
    """Collects a probe every INTERVAL_S seconds while the context is open."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
