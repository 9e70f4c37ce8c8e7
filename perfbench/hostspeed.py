"""Host-speed sampling, so op times from a shared machine can be compared.

On the shared 2-CPU reference machine the CPU speed a process gets swings
by up to ~1.8x, both within a second and over minutes (CPU time tracks wall
time, and there is no steal time), so raw op walls of identical work
spread by more than any useful regression bound. :class:`HostSpeed` measures
that speed *during* an op: every ``INTERVAL_S`` a SIGALRM handler times a
fixed, stdlib-only kernel (~50 us, ~0.3% of the op). The mean kernel time
over the op, divided by ``REFERENCE_KERNEL_S``, is the op's slowdown
factor; an op's time divided by its factor is its time at the reference
speed.

The kernel does not touch the program, so a change to the program moves
the normalized times exactly as it moves the raw ones; only the host's
share of the noise is divided out. On the reference machine this cut the
run-to-run spread of a 10-op median from 0.10 to 0.02 of the median.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List

#: Seconds between samples.
INTERVAL_S = 0.02
#: The kernel's time at the reference speed: roughly its uncontended time
#: on the reference machine, so normalized times read close to the wall
#: times of a quiet host.
REFERENCE_KERNEL_S = 40e-6


def kernel() -> int:
    """Fixed pure-Python work: int arithmetic and dict stores."""
    total = 0
    table = {}
    for i in range(300):
        table[i & 63] = total
        total += i * i % 7
    return total


class HostSpeed:
    """Context manager sampling the kernel's time while its block runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, *_: Any) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self._sample()

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran."""
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S
