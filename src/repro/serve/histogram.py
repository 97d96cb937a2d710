"""Log-linear latency histograms (HDR-style) over virtual time.

The latency accountant records hundreds of thousands of per-request,
per-stage samples; keeping them all and sorting at report time would
dominate the serve layer's memory.  Instead samples land in an
HdrHistogram-style *log-linear* bucket array: values below
``2**PRECISION_BITS`` are recorded exactly, larger values share one
bucket per ``2**-PRECISION_BITS`` of relative width, so any percentile
read back is within ``2**-PRECISION_BITS`` (~0.1% at 10 bits) of the
true sample — bounded relative error at O(1) memory per
decade of dynamic range.

Percentile reads return the *upper edge* of the rank's bucket (the
convention of HdrHistogram's ``highestEquivalentValue``): conservative
for tail metrics, and integral ns, which is what keeps serialized
reports byte-stable.  Everything here is integer arithmetic on
deterministic inputs — two identical runs produce identical
histograms, bucket for bucket.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: histogram resolution: percentiles are exact to ``2**-PRECISION_BITS``.
PRECISION_BITS = 10
#: values below this land in unit (exact) buckets.
_EXACT_LIMIT = 1 << PRECISION_BITS


class LatencyHistogram:
    """Sparse log-linear histogram of non-negative ns values."""

    __slots__ = ("counts", "total", "sum", "min_value", "max_value")

    def __init__(self) -> None:
        #: bucket index -> sample count (sparse; most stages cluster).
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.sum = 0
        self.min_value = None  # type: ignore[assignment]
        self.max_value = None  # type: ignore[assignment]

    # -- recording -----------------------------------------------------------

    def _index(self, value: int) -> int:
        if value < _EXACT_LIMIT:
            return value
        shift = value.bit_length() - 1 - PRECISION_BITS
        return (shift << PRECISION_BITS) + (value >> shift)

    def _bucket_high(self, index: int) -> int:
        """Largest value mapping to ``index`` (what percentiles report)."""
        if index < _EXACT_LIMIT:
            return index
        shift = (index >> PRECISION_BITS) - 1
        mantissa = index - (shift << PRECISION_BITS)
        return ((mantissa + 1) << shift) - 1

    def record(self, value_ns: float, count: int = 1) -> None:
        """Record ``count`` samples of ``value_ns`` (rounded to int ns)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        value = int(round(value_ns))
        if value < 0:
            raise ValueError(f"negative latency sample: {value_ns!r}")
        idx = self._index(value)
        self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += count
        self.sum += value * count
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram."""
        for idx, count in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += other.total
        self.sum += other.sum
        for value in (other.min_value, other.max_value):
            if value is None:
                continue
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value

    # -- reading -------------------------------------------------------------

    @property
    def mean(self) -> float:
        """Mean of the recorded samples (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    #: rank math resolution: percentiles are exact to 1e-7 of a point
    #: (p99.9999999 still distinct from p100) while staying in integers.
    _PCT_SCALE = 10 ** 7

    def _rank(self, pct: float) -> int:
        """Nearest-rank target for ``pct``, in exact integer arithmetic.

        ``pct`` is scaled to an integer fraction *before* any product,
        so the ceil never operates on an already-truncated float: the
        seed's ``int(pct * total)`` chopped the fractional part ahead
        of the ceil-divide and reported boundary percentiles one rank
        low (e.g. p99.9 of 995 samples -> rank 994 instead of 995).
        """
        if not 0 <= pct <= 100:
            raise ValueError("percentile must be in [0, 100]")
        scaled = round(pct * self._PCT_SCALE)
        return max(1, -(-(scaled * self.total) // (100 * self._PCT_SCALE)))

    def percentile(self, pct: float) -> int:
        """Value (ns) at the given percentile, upper-bucket-edge
        convention; max relative error ``2**-PRECISION_BITS``."""
        return self.percentiles((pct,))[0][1]

    def percentiles(self, pcts: Iterable[float]) -> List[Tuple[float, int]]:
        """Batch percentile read in ONE cumulative walk: the sorted
        bucket array is traversed once for the whole batch instead of
        once per entry."""
        pcts = list(pcts)
        if self.total == 0:
            raise ValueError("empty histogram")
        # ranks are monotone in pct, but the *input* order is the
        # caller's: resolve in rank order, answer in input order
        targets = sorted((self._rank(p), i) for i, p in enumerate(pcts))
        out: List[int] = [0] * len(pcts)
        k = 0
        cumulative = 0
        for idx in sorted(self.counts):
            if k == len(targets):
                break
            cumulative += self.counts[idx]
            value = None
            while k < len(targets) and cumulative >= targets[k][0]:
                if value is None:
                    # never report past the true maximum (the top
                    # bucket's upper edge can exceed it)
                    value = min(self._bucket_high(idx), self.max_value)
                out[targets[k][1]] = value
                k += 1
        return [(p, out[i]) for i, p in enumerate(pcts)]

    def summary_us(self) -> Dict[str, float]:
        """The report-facing digest, in microseconds."""
        if self.total == 0:
            return {"count": 0}
        tail = dict(self.percentiles((50, 95, 99, 99.9)))
        return {
            "count": self.total,
            "mean": round(self.mean / 1e3, 3),
            "min": round(self.min_value / 1e3, 3),
            "max": round(self.max_value / 1e3, 3),
            "p50": round(tail[50] / 1e3, 3),
            "p95": round(tail[95] / 1e3, 3),
            "p99": round(tail[99] / 1e3, 3),
            "p99.9": round(tail[99.9] / 1e3, 3),
        }
