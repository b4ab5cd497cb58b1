"""Machine-speed calibration for timings on a shared host.

On a shared 2-vCPU virtual machine the same code can take anywhere from
1x to 2x its usual time. The machine flips between such states over
seconds to a minute, and no steal time shows up. Raw wall times of
separate runs therefore cannot be compared.

The benchmark runs a short fixed kernel of its own next to the measured
operations: before an operation once ``EVERY_S`` has passed since the last
sample, inside multi-step operations, and at the end. Each operation's
wall time is then rescaled by ``REFERENCE_S`` over the mean kernel time
around it. That gives the operation's time on the machine at a kernel time
of exactly ``REFERENCE_S``. The kernel uses only numpy and Python, never
the package, so a change to the package cannot move it. It mixes the
kinds of work the package does: interpreter-bound loops, many calls on
tiny arrays, and passes over a 12 800 x 11 array.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0011  # nominal kernel time; normalized timings are in these units
EVERY_S = 0.1  # sample at least this often between operations


class Calibration:
    """Kernel timings in the order taken; each sample is the median of `reps` runs."""

    def __init__(self, reps: int = 3):
        self.reps = reps
        rng = np.random.default_rng(0)
        self._plot = np.repeat(np.arange(6), 4)
        self._y = rng.random(24)
        self._m = rng.random((11, 11)) + 11 * np.eye(11)
        self._big = rng.random((12800, 11))
        self.samples: list[float] = []
        self._last = -float("inf")
        self._kernel()  # first calls pay one-off costs (lazy imports, LAPACK set-up)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            sums = np.zeros(6)
            np.add.at(sums, self._plot, self._y)
            np.linalg.slogdet(self._m @ self._m)
            sum(k * k for k in range(100))
        (self._big * 1.5).sum(axis=0)
        return time.perf_counter() - t0

    def sample(self) -> None:
        """Time the kernel (median of a few repetitions) and keep the result."""
        self.samples.append(statistics.median(self._kernel() for _ in range(self.reps)))
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= EVERY_S

    def scale(self, first: int, last: int) -> float:
        """Factor that rescales a wall time spanning samples first..last inclusive."""
        window = self.samples[first:last + 1]
        return REFERENCE_S / (sum(window) / len(window))
