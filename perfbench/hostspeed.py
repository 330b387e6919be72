"""Host-speed calibration for timings on a shared, noisy machine.

On the 2-vCPU reference machine, a fixed pure-Python loop changes speed by
up to 1.5x within seconds and drifts by +-20% over minutes, independently
on each CPU, and child CPU time tracks wall time.  So raw seconds carry
the neighbours' load.  Each measured process therefore times a fixed
reference kernel of exact-rational arithmetic and dict updates, every
SAMPLE_INTERVAL_S, from a SIGALRM handler in its main thread.
The kernel is timed in thread CPU time, so descheduling, including by the
program's own worker processes or threads, does not count as host
slowness; only a slower CPU does.  A process's speed factor is the trimmed
mean kernel time over REFERENCE_KERNEL_S, and a calibrated time is the raw
time divided by it: seconds at the reference speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.05
# median kernel time on the reference machine (2-vCPU "Intel Xeon
# Processor" VM, Python 3.11.7); a definition, like a reference machine's
# score, so calibrated seconds stay comparable between commits
REFERENCE_KERNEL_S = 3.5e-4


def kernel() -> float:
    """Thread CPU seconds of one fixed unit of interpreter work."""
    t0 = time.thread_time()
    acc, table = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 3)
        table[(i, i % 5)] = acc.numerator % 97
    return time.thread_time() - t0


class Sampler:
    """Times the kernel every `interval` seconds of wall time until stopped.
    Imports only what lops imports anyway, so that starting it before
    `import lops.cli` shifts no import cost."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    def start(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples


def speed_factor(samples) -> float:
    """Trimmed mean kernel time (10% off each end) over the reference;
    above 1 means the host ran slower than the reference."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept) / REFERENCE_KERNEL_S
