"""The HDR-style histogram against a naive sorted-list oracle."""

import random

import pytest

from repro.serve import LatencyHistogram


def oracle_percentile(values, pct):
    """Nearest-rank percentile on the raw sorted values.

    Scales pct to an exact integer fraction before the ceil-divide —
    the same rank math as ``LatencyHistogram._rank``.  (The seed's
    oracle did ``int(pct * n)`` first, truncating the fraction the
    ceil exists to round up, so it shared the implementation's
    off-by-one at boundary ranks and could not catch it.)
    """
    ordered = sorted(values)
    scaled = round(pct * 10 ** 7)
    rank = max(1, -(-(scaled * len(ordered)) // (100 * 10 ** 7)))
    return ordered[rank - 1]


@pytest.mark.parametrize("pct", [50, 90, 95, 99, 99.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_percentiles_match_sorted_oracle(pct, seed):
    """Bucketing error is bounded by the precision: the histogram's
    answer must be within 2^-PRECISION_BITS (relative) of the oracle."""
    rng = random.Random(seed)
    values = [rng.randrange(1, 10_000_000) for _ in range(5_000)]
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    expect = oracle_percentile(values, pct)
    assert hist.percentile(pct) == pytest.approx(expect, rel=2 ** -10 + 1e-9)


def test_exact_below_precision_threshold():
    """Values below 2^PRECISION_BITS land in unit buckets: exact."""
    hist = LatencyHistogram()
    for v in (3, 500, 1023):
        hist.record(v)
    assert hist.percentile(0) == 3
    assert hist.percentile(50) == 500
    assert hist.percentile(100) == 1023


def test_mean_min_max_and_count():
    hist = LatencyHistogram()
    for v in (100, 200, 300):
        hist.record(v)
    assert hist.total == 3
    assert hist.mean == pytest.approx(200.0)
    assert hist.min_value == 100
    assert hist.max_value == 300


def test_merge_equals_combined_recording():
    rng = random.Random(4)
    a_vals = [rng.randrange(1, 1_000_000) for _ in range(500)]
    b_vals = [rng.randrange(1, 1_000_000) for _ in range(700)]
    a, b, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    for v in a_vals:
        a.record(v)
        both.record(v)
    for v in b_vals:
        b.record(v)
        both.record(v)
    a.merge(b)
    assert a.total == both.total
    for pct in (50, 95, 99):
        assert a.percentile(pct) == both.percentile(pct)


def test_empty_histogram_is_quiet():
    hist = LatencyHistogram()
    assert hist.total == 0
    assert hist.mean == 0.0
    assert hist.summary_us() == {"count": 0}
    with pytest.raises(ValueError):
        hist.percentile(99)


def test_summary_us_is_rounded_microseconds():
    hist = LatencyHistogram()
    hist.record(100_000)  # 100 us
    summary = hist.summary_us()
    assert summary["count"] == 1
    assert summary["p50"] == pytest.approx(100.0, rel=2 ** -10 + 1e-9)
    # every float in the summary carries at most 3 decimals (canonical
    # JSON depends on this)
    for value in summary.values():
        assert value == round(value, 3)


def test_boundary_rank_not_truncated():
    """Regression: ``int(pct * total)`` truncated before the
    ceil-divide, so p99.9 of 995 samples returned rank 994 (value 994)
    instead of rank 995 (value 995).  995 * 99.9 = 99400.5: the
    fractional half-rank is exactly what the ceil must round up."""
    hist = LatencyHistogram()
    values = list(range(1, 996))  # 995 samples, all in exact buckets
    for v in values:
        hist.record(v)
    assert hist.percentile(99.9) == 995
    assert hist.percentile(99.9) == oracle_percentile(values, 99.9)


@pytest.mark.parametrize("total", [1, 2, 3, 7, 100, 101, 995, 1000])
def test_exact_ranks_sweep_small_populations(total):
    """Every percentile in a fine sweep must match the exact oracle
    when all samples sit in unit buckets (no bucketing error, so any
    difference is rank math)."""
    values = list(range(1, total + 1))
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    pcts = [0, 0.1, 25, 50, 75, 90, 99, 99.9, 99.99, 100]
    for pct in pcts:
        assert hist.percentile(pct) == oracle_percentile(values, pct), pct


def test_percentile_endpoints():
    hist = LatencyHistogram()
    for v in (10, 20, 30):
        hist.record(v)
    assert hist.percentile(0) == 10  # rank clamps up to 1 -> min
    assert hist.percentile(100) == 30
    with pytest.raises(ValueError):
        hist.percentile(-0.1)
    with pytest.raises(ValueError):
        hist.percentile(100.1)


def test_batch_percentiles_match_per_call_path():
    """``percentiles()`` must agree with ``percentile()`` for every
    entry — unsorted input order, duplicates, and endpoints included —
    while walking the buckets once."""
    rng = random.Random(7)
    hist = LatencyHistogram()
    for _ in range(4_000):
        hist.record(rng.randrange(1, 50_000_000))
    pcts = [99.9, 0, 50, 99, 50, 100, 12.5, 99.99, 0.1]
    batch = hist.percentiles(pcts)
    assert [p for p, _ in batch] == pcts  # input order preserved
    for pct, value in batch:
        assert value == hist.percentile(pct), pct


def test_batch_percentiles_empty_raises():
    with pytest.raises(ValueError):
        LatencyHistogram().percentiles((50, 99))


class _IterCountingDict(dict):
    """Counts whole-dict iterations (each ``sorted(counts)`` is one)."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_batch_percentiles_walk_buckets_once():
    """Regression: the seed's ``percentiles()`` docstring promised a
    single cumulative walk but the body called ``percentile()`` per
    entry, re-sorting and re-walking the buckets every time."""
    hist = LatencyHistogram()
    for v in (100, 200, 300, 400, 500):
        hist.record(v)
    hist.counts = _IterCountingDict(hist.counts)
    _IterCountingDict.iterations = 0
    hist.percentiles((50, 90, 99, 99.9))
    assert _IterCountingDict.iterations == 1


def test_relative_error_bound_holds_across_magnitudes():
    """Spot-check the documented bound at widely spread magnitudes."""
    hist = LatencyHistogram()
    for magnitude in (10, 10_000, 10_000_000, 10_000_000_000):
        hist2 = LatencyHistogram()
        hist2.record(magnitude)
        assert hist2.percentile(100) == pytest.approx(
            magnitude, rel=2 ** -10 + 1e-9)
        hist.record(magnitude)
    assert hist.total == 4
