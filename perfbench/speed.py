"""Machine-speed probe used to express timings at a fixed reference speed.

The benchmark shares its machine with other tenants, and the speed the
workload gets drifts by more than 10% over tens of seconds. A fixed kernel
of the same kinds of work (interpreted Python and numpy distance tensors)
is timed between pieces of the workload; its mean time over an interval,
divided by REFERENCE_S, is the interval's slowdown factor. Timings divided
by that factor are "reference seconds", which is how every gated time is
reported. The kernel never calls the measured package, so a change to the
package moves its timings and not the factor. README.md gives the spreads
with and without it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Mean duration of one kernel call at the reference speed, that of a quiet
# 2-core x86-64 VM (Python 3.11.7, numpy 2.4.6) between engine runs.
REFERENCE_S = 0.022
# Least time between two samples that ``maybe`` takes.
INTERVAL_S = 0.2

_POINTS = np.random.default_rng(0).normal(size=(4000, 8))
_CENTERS = _POINTS[:16].copy()
# The kernel writes only into these fixed buffers. When it allocated its
# arrays and table afresh, at times that depend on the machine's speed,
# how much freed memory the allocator kept, and so the workload's peak
# RSS, changed from run to run.
_DIFF = np.empty((4000, 16, 8))
_DIST = np.empty((4000, 16))
_NEAREST = np.empty(4000, dtype=np.intp)
_TABLE = dict.fromkeys(range(256), 0)


def _kernel() -> float:
    total = 0
    for i in range(12_000):
        _TABLE[i & 255] = total
        total += i * i % 7
    for _ in range(6):
        np.subtract(_POINTS[:, None, :], _CENTERS[None, :, :], out=_DIFF)
        np.einsum("nkd,nkd->nk", _DIFF, _DIFF, out=_DIST)
        np.argmin(_DIST, axis=1, out=_NEAREST)
        total += int(_NEAREST.sum())
    return total


class SpeedProbe:
    """Timed kernel calls; ``maybe`` samples at most once per INTERVAL_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            _kernel()
            self._last = perf_counter()
            self.samples.append(self._last - start)

    def maybe(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, first: int) -> float:
        """Slowdown over samples[first:] relative to the reference speed."""
        return statistics.fmean(self.samples[first:]) / REFERENCE_S
