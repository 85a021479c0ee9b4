"""The machine's speed during a run, from a fixed reference kernel.

On a shared machine the same work can take 0.8 s or 1.5 s a few seconds
apart, with CPU time tracking wall time. ``Speed.sample`` times a fixed
piece of work (small dense solves and products in a Python loop, like the
program's per-factor code) between frames, about every ``EVERY_S`` seconds.
Dividing a measured interval by the local ratio of the kernel's time to
``NOMINAL_S`` gives the interval at the machine's nominal speed; intervals
are measured without the kernel's own time.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

EVERY_S = 0.5
NOMINAL_S = 0.050   # about the kernel's median time on the reference machine (bench/README.md)
SMOOTH = 3          # samples in the running median of the speed factor

_rng = np.random.default_rng(12345)
_MATS = [_rng.standard_normal((6, 6)) + 6.0 * np.eye(6) for _ in range(50)]
_VECS = [_rng.standard_normal(6) for _ in range(50)]
_POINTS = _rng.standard_normal((300, 3))


def kernel() -> float:
    acc = {}
    for k in range(3000):
        m, v = _MATS[k % 50], _VECS[k % 50]
        x = np.linalg.solve(m, v)
        y = (_POINTS[k % 300] @ m[:3, :3]) * x[:3]
        acc[k % 97] = acc.get(k % 97, 0.0) + float(y.sum())
    return sum(acc.values())


class Speed:
    def __init__(self):
        self.samples: list = []   # (start, end) of each kernel run
        self._next = 0.0
        self._mids: list = []
        self._factors: list = []

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append((start, end))
        self._next = end + EVERY_S

    def due(self) -> None:
        if perf_counter() >= self._next:
            self.sample()

    def factor(self, t: float) -> float:
        """Speed factor at time t (above 1: slower than nominal): the running
        median of kernel time / NOMINAL_S at the sample nearest to t."""
        if len(self._factors) != len(self.samples):
            ratios = [(end - start) / NOMINAL_S for start, end in self.samples]
            half = SMOOTH // 2
            self._mids = [(start + end) / 2 for start, end in self.samples]
            self._factors = [statistics.median(ratios[max(0, i - half):i + half + 1])
                             for i in range(len(ratios))]
        i = bisect.bisect_left(self._mids, t)
        if i > 0 and (i == len(self._mids) or t - self._mids[i - 1] < self._mids[i] - t):
            i -= 1
        return self._factors[i]

    def busy(self, a: float, b: float) -> float:
        """Time in [a, b] not spent in the kernel."""
        return (b - a) - sum(min(b, end) - max(a, start) for start, end in self.samples
                             if end > a and start < b)

    def nominal(self, a: float, b: float) -> float:
        """The time in [a, b] outside the kernel, each stretch between kernel runs
        divided by its speed factor."""
        cuts = [a] + [x for start, end in self.samples if a < start and end < b
                      for x in (start, end)] + [b]
        return sum((hi - lo) / self.factor((lo + hi) / 2)
                   for lo, hi in zip(cuts[0::2], cuts[1::2]))

    def summary(self) -> dict:
        ratios = sorted((end - start) / NOMINAL_S for start, end in self.samples)
        return {"samples": len(ratios), "factor_min": ratios[0],
                "factor_median": statistics.median(ratios), "factor_max": ratios[-1]}
