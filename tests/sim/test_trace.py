"""Unit tests for time-weighted averages and the geometric mean."""

import math

import pytest

from repro.sim import TimeWeighted
from repro.sim.trace import geometric_mean


def test_time_weighted_constant():
    tw = TimeWeighted(initial=5.0)
    assert tw.average(10.0) == 5.0


def test_time_weighted_step():
    tw = TimeWeighted()
    tw.set(0.0, 0.0)
    tw.set(5.0, 10.0)  # 0 for [0,5), 10 for [5,10)
    assert tw.average(10.0) == pytest.approx(5.0)
    assert tw.peak == 10.0
    assert tw.current == 10.0


def test_time_weighted_add():
    tw = TimeWeighted()
    tw.add(2.0, 4.0)
    tw.add(4.0, -4.0)
    # value 0 on [0,2), 4 on [2,4), 0 afterwards
    assert tw.average(8.0) == pytest.approx(1.0)


def test_time_weighted_backwards_time_raises():
    tw = TimeWeighted()
    tw.set(5.0, 1.0)
    with pytest.raises(ValueError):
        tw.set(4.0, 2.0)


def test_time_weighted_zero_span():
    tw = TimeWeighted(initial=3.0)
    assert tw.average(0.0) == 3.0


def test_geometric_mean_basic():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([5.0]) == pytest.approx(5.0)


def test_geometric_mean_matches_paper_style():
    speedups = [1.2, 1.5, 2.0, 0.9]
    expected = math.exp(sum(math.log(s) for s in speedups) / 4)
    assert geometric_mean(speedups) == pytest.approx(expected)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
