"""Host-speed reference: a fixed pure-Python kernel timed next to the ops.

On a shared host the speed of this process drifts by about +-20 % within
seconds (other tenants, frequency changes), and the share of fast and slow
phases differs from run to run, which moves a 20-second run's median latency
by up to 25 %.  The harness therefore times this kernel, which never changes,
before and after the ops (at most every REFRESH_S seconds, outside the
timed windows) and scales each op's wall time by REFERENCE_S / kernel time.  The
result is the op's time on a host where the kernel takes exactly
REFERENCE_S; a change to the package moves it, a change of host speed does
not.  Slowdowns of the whole interpreter (a global trace hook, say) slow the
kernel too and are hidden, which is why the raw wall times stay in the record.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

# Nominal kernel time; the kernel takes about this long on a 2-CPU shared
# x86-64 host, so scaled times read close to wall times there.
REFERENCE_S = 1e-3

# Seconds between kernel timings; speed phases last about a second.
REFRESH_S = 0.05


def _kernel():
    # integer, complex and Fraction arithmetic, the package's three mixes
    acc = 0
    for i in range(1, 3300):
        acc += (i * i) % 7
    z = 0.3 + 0.4j
    for _ in range(2500):
        z = z * z * 0.5 + 0.1j
    f = Fraction(0)
    for i in range(1, 90):
        f += Fraction(1, i)
    return acc, z, f


def time_kernel() -> float:
    """Kernel time, the faster of two back-to-back runs to shed interrupts."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Rolling median of the last three kernel timings."""

    def __init__(self):
        self._recent = deque(maxlen=3)
        self.samples = []
        self._last = float("-inf")

    def refresh(self) -> None:
        """Time the kernel if the last timing is older than REFRESH_S."""
        if time.perf_counter() - self._last >= REFRESH_S:
            t = time_kernel()
            self._recent.append(t)
            self.samples.append(t)
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor from wall seconds now to seconds at reference speed."""
        return REFERENCE_S / statistics.median(self._recent)
