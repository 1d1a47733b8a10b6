"""Times scaled to a fixed reference speed of the machine.

On virtual machines that share their cores with other machines, the speed
of pure-Python code moves by up to a factor of two in phases of a few
hundred milliseconds to minutes.  Raw times of the same code then spread by
up to 37 % between runs.  To take that out, a `Sampler` times a
fixed reference kernel (an exact `Fraction` determinant that does not call
the library) just before and just after each measured call and, through a
SIGALRM interval timer, every `PERIOD_S` during it.  The call's wall and
CPU time, less the time spent in the kernel, are multiplied by the mean of
`REFERENCE_S / t` over the kernel times `t` sampled in and around the call.
A scaled time reads as the time the call would take when the kernel takes
`REFERENCE_S`: the kernel's time in the fast phase of a shared 2-vCPU
Intel Xeon at 2.1 GHz.

Only the library's work moves a scaled time: a change to the library
changes the numerator and leaves the kernel alone.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0005
PERIOD_S = 0.02

_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(7)] for i in range(7)
]


def kernel() -> Fraction:
    """Determinant of a fixed 7 x 7 rational matrix by exact elimination."""
    m = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(len(m)):
        p = next(r for r in range(c, len(m)) if m[r][c])
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


class Sampler:
    """Times the reference kernel in and around measured calls."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self, *_signal_args) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        kernel()
        wall1 = time.perf_counter()
        self.samples.append(wall1 - wall0)
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def start(self) -> None:
        """Forget earlier samples, take one and start the interval timer."""
        self.samples.clear()
        self.spent_wall = self.spent_cpu = 0.0
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the interval timer and take one more sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self) -> float:
        """Scale from the machine's speed since `start` to the reference."""
        return statistics.fmean(REFERENCE_S / t for t in self.samples)

    def measure(self, fn):
        """Call fn(); return its result and its scaled wall and CPU seconds."""
        self.start()
        self.spent_wall = self.spent_cpu = 0.0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - wall0 - self.spent_wall
            cpu = time.process_time() - cpu0 - self.spent_cpu
            self.stop()
        scale = self.factor()
        return result, wall * scale, cpu * scale
