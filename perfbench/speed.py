"""Machine-speed reference for timings taken on a shared, drifting machine.

On the shared 2-core machine this benchmark was built on, the speed of the
same code drifts from one second to the next and from one run to the next,
with no CPU time lost to other processes: the work runs slower, not less
often. Over ten 20-second runs, pass times spread by 14-32% (quartile
distance over median). A fixed kernel that uses no package code, timed in
short samples between the workload's calls, drifts with it. Divided by the
kernel's time, the same pass times spread by 1-5%.

Every time the benchmark reports is therefore at a reference speed. It is
the time measured, times ``REFERENCE_S`` over the median kernel time sampled
around that measurement. The raw times and the factor go into the run's
record.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# the kernel time that defines the reference speed; on the machine in NOTES.md
# the kernel took between 2.0 and 3.8 ms, depending on its load
REFERENCE_S = 3.5e-3
# a kernel sample is taken before a call when this long has passed since the last
EVERY_S = 0.05
MAX_BURST = 5
# a call's speed is the median of the samples within this of it
HALF_WINDOW_S = 0.125

_rng = np.random.default_rng(20251017)
_MATRICES = [_rng.normal(size=(6, 6)) for _ in range(20)]
_EYE = np.eye(6)
_RHS = np.ones(36)


def kernel() -> float:
    """Small dense linear algebra and interpreted arithmetic, like the package's."""
    acc = 0.0
    for m in _MATRICES:
        acc += float(np.max(np.linalg.eigvals(m).real)) + float(np.linalg.det(m))
        acc += float(np.linalg.solve(np.kron(_EYE, m) + np.kron(m, _EYE), _RHS)[0])
        acc += sum(x * 1.0001 for x in range(200))
    return acc


class SpeedProbe:
    """Kernel samples taken between the workload's calls."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds
        self.times: list[float] = []    # when each sample ended
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.times.append(t1)
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample if ``EVERY_S`` has passed; after a long call, sample up to
        ``MAX_BURST`` times so that long calls get as many samples as short ones."""
        gap = perf_counter() - self._last
        for _ in range(min(MAX_BURST, int(gap / EVERY_S))):
            self.sample()

    @staticmethod
    def factor(samples: list[float]) -> float:
        """Multiplier taking a time measured alongside ``samples`` to reference speed."""
        return REFERENCE_S / statistics.median(samples)

    def factor_during(self, start: float, end: float) -> float:
        """Multiplier for a call from ``start`` to ``end``, from the samples
        taken up to ``HALF_WINDOW_S`` before or after it."""
        lo = bisect.bisect_left(self.times, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + HALF_WINDOW_S)
        return self.factor(self.samples[lo:hi])
