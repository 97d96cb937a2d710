"""Time-weighted values and the paper's summary statistic.

:class:`TimeWeighted` is the one piecewise-constant integrator of the
repo: hardware models keep occupancy in it directly, and
:class:`repro.obs.Gauge` is a named ``TimeWeighted``.  Every other
metric lives in :mod:`repro.obs`.
"""

from __future__ import annotations

import math
from typing import List


class TimeWeighted:
    """Time-weighted average of a piecewise-constant quantity.

    Used for occupancy: ``set(t, resident_warps)`` on every change, then
    ``average(t_end)`` gives mean residency over the run.
    """

    __slots__ = ("_value", "_last", "_integral", "_start", "peak")

    def __init__(self, initial: float = 0.0, start: float = 0.0) -> None:
        self._value = initial
        self._last = start
        self._integral = 0.0
        self._start = start
        self.peak = initial

    def set(self, time: float, value: float) -> None:
        """Set the piecewise-constant value at a time point."""
        if time < self._last:
            raise ValueError("time went backwards")
        self._integral += self._value * (time - self._last)
        self._value = value
        self._last = time
        if value > self.peak:
            self.peak = value

    def add(self, time: float, delta: float) -> None:
        """Add a delta to the current value at a time point."""
        if time < self._last:
            raise ValueError("time went backwards")
        value = self._value + delta
        self._integral += self._value * (time - self._last)
        self._value = value
        self._last = time
        if value > self.peak:
            self.peak = value

    @property
    def current(self) -> float:
        """The current (latest) value."""
        return self._value

    def average(self, end: float) -> float:
        """Time-weighted average up to ``end``."""
        span = end - self._start
        if span <= 0:
            return self._value
        return (self._integral + self._value * (end - self._last)) / span

    def integral(self, end: float) -> float:
        """Accumulated value·time integral up to ``end``.

        Differences of this between two observation points give the
        integral over a window, which is what epoch-based controllers
        (elastic repartitioning) use to compute window utilization.
        """
        if end <= self._last:
            return self._integral
        return self._integral + self._value * (end - self._last)


def geometric_mean(values: List[float]) -> float:
    """Geometric mean; the paper's summary statistic for speedups."""
    if not values:
        raise ValueError("empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
