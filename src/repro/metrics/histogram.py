"""Streaming log-spaced histograms for latency percentiles.

Production telemetry needs tail latency (p99), not just means — but a
campaign records millions of samples, so retaining raw series is not an
option, and the parallel campaign engine needs per-worker results to
merge into *exactly* the aggregate a serial run would have produced
(the byte-identical report gate).  Both needs point at the same classic
structure (HdrHistogram's log-linear bucketing): fixed log-spaced
integer buckets, O(1) ``record``, and a merge that is plain addition of
bucket counts — exact, associative and commutative, so shard order can
never change the result.

Bucketing: values below ``2**SUB_BITS`` (32) map to themselves, one
bucket per integer (exact).  Above that, each power-of-two octave is
split into ``2**SUB_BITS`` linear sub-buckets, so a bucket spans
``2**shift`` values at worst — a relative width, and therefore a
worst-case percentile error, of ``1/2**SUB_BITS`` (3.125%).  Reported
percentiles use the bucket's *upper* bound (clamped to the observed
maximum): a conservative tail estimate that never understates p99.

All values are non-negative integers (virtual-time ticks).  Recording
is deterministic and so is everything derived, which is what lets
percentile fields live inside reports that must stay byte-identical
across serial, parallel and cached executions.

Recording is lazy: ``record`` only tallies the raw value, and the tally
is folded into the buckets once it holds :data:`FOLD_BATCH` distinct
values, and before anything reads the histogram.  Bucket counts, count,
total, minimum and maximum are sums and extremes, so folding in batches
yields exactly what folding each sample at once would; the kernel records
a queue depth or wait per delivery, and the bucket arithmetic then runs
once per distinct value per batch instead of once per sample.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Sub-buckets per octave as a power of two.  32 sub-buckets bound the
#: relative bucket width (and percentile error) at 1/32 = 3.125%.
SUB_BITS = 5

_SUB_COUNT = 1 << SUB_BITS          # 32
_SUB_MASK = _SUB_COUNT - 1

#: Distinct raw values a histogram tallies before folding them into its
#: buckets: the bound on the memory an unfolded batch holds.
FOLD_BATCH = 256


def bucket_index(value: int) -> int:
    """Map a non-negative integer to its bucket index, O(1).

    Indices are contiguous: ``0..31`` are exact singleton buckets,
    ``32+`` are the log-linear range.
    """
    if value < _SUB_COUNT:
        return value
    shift = value.bit_length() - SUB_BITS - 1
    return ((shift + 1) << SUB_BITS) + (value >> shift) - _SUB_COUNT


def bucket_upper_bound(index: int) -> int:
    """Largest value mapping to ``index`` (the conservative
    representative reported for percentiles)."""
    if index < _SUB_COUNT:
        return index
    shift = (index >> SUB_BITS) - 1
    sub = index & _SUB_MASK
    return ((_SUB_COUNT + sub + 1) << shift) - 1


class LogHistogram:
    """A streaming fixed-bucket histogram over non-negative integers.

    ``record`` is O(1); memory is bounded by the number of distinct
    buckets touched (84 buckets cover values up to ~100 million ticks)
    plus an unfolded tally of fewer than :data:`FOLD_BATCH` raw values.
    ``merge`` adds bucket counts — exact, associative, commutative —
    so sharded recording reassembles into the identical aggregate.
    """

    __slots__ = ("_counts", "_count", "_total", "_min", "_max", "_pending")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None
        #: Raw value -> samples recorded since the last fold.
        self._pending: Dict[int, int] = {}

    # -- recording ------------------------------------------------------

    def record(self, value: int) -> None:
        """Count one sample (negative values clamp to zero when folded).

        One dict update on the queue-depth and latency hot paths; the
        bucket arithmetic waits for :meth:`_fold`.
        """
        pending = self._pending
        pending[value] = pending.get(value, 0) + 1
        if len(pending) >= FOLD_BATCH:
            self._fold()

    def _fold(self) -> None:
        """Move the tallied raw values into the buckets and the running
        count, total, minimum and maximum.  :func:`bucket_index` is
        inlined; the model tests cross-check the two."""
        pending = self._pending
        if not pending:
            return
        counts = self._counts
        count = total = 0
        for value, samples in pending.items():
            if value < 0:
                value = 0
            if value < _SUB_COUNT:
                index = value
            else:
                shift = value.bit_length() - SUB_BITS - 1
                index = ((shift + 1) << SUB_BITS) + (value >> shift) \
                    - _SUB_COUNT
            counts[index] = counts.get(index, 0) + samples
            count += samples
            total += value * samples
        low = max(min(pending), 0)
        high = max(max(pending), 0)
        pending.clear()
        self._count += count
        self._total += total
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other``'s buckets into this histogram (exact)."""
        other._fold()
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self._count += other._count
        self._total += other._total
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max
        return self

    # -- reading --------------------------------------------------------

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> int:
        self._fold()
        return self._total

    @property
    def minimum(self) -> Optional[int]:
        self._fold()
        return self._min

    @property
    def maximum(self) -> Optional[int]:
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        self._fold()
        return self._total / self._count if self._count else 0.0

    def percentile(self, pct: float) -> Optional[int]:
        """Nearest-rank percentile estimate, or ``None`` when empty.

        Returns the upper bound of the bucket holding the rank, clamped
        to the observed maximum — within 3.125% of the exact sample,
        never below it for singleton buckets, never above the max.
        """
        self._fold()
        if not self._count:
            return None
        if pct <= 0:
            return self._min
        rank = min(self._count,
                   max(1, -(-int(pct * self._count) // 100)))  # ceil
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= rank:
                bound = bucket_upper_bound(index)
                return min(bound, self._max) if self._max is not None \
                    else bound
        return self._max  # pragma: no cover - rank <= count always hits

    def summary(self, percentiles: Sequence[int] = (50, 90, 99)
                ) -> Dict[str, object]:
        """The report-ready digest: count, mean, min/max, pNN fields."""
        self._fold()
        out: Dict[str, object] = {
            "count": self._count,
            "mean": round(self.mean, 1),
            "min": self._min,
            "max": self._max,
        }
        for pct in percentiles:
            out[f"p{pct}"] = self.percentile(pct)
        return out

    # -- serialization --------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form; bucket keys sorted so serialization is
        byte-stable for identical contents."""
        self._fold()
        return {
            "count": self._count,
            "total": self._total,
            "min": self._min,
            "max": self._max,
            "buckets": {str(index): self._counts[index]
                        for index in sorted(self._counts)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LogHistogram":
        hist = cls()
        hist._count = int(data["count"])
        hist._total = int(data["total"])
        hist._min = None if data["min"] is None else int(data["min"])
        hist._max = None if data["max"] is None else int(data["max"])
        hist._counts = {int(index): int(count)
                        for index, count in data["buckets"].items()}
        return hist

    @classmethod
    def merge_many(cls, hists: Iterable["LogHistogram"]) -> "LogHistogram":
        """Merge any number of histograms into a fresh one."""
        merged = cls()
        for hist in hists:
            merged.merge(hist)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._fold()
        return (f"LogHistogram(count={self._count}, min={self._min}, "
                f"max={self._max}, buckets={len(self._counts)})")


def exact_percentile(samples: List[int], pct: float) -> Optional[int]:
    """Nearest-rank percentile over raw samples — the numpy-free exact
    reference the histogram's model tests compare against."""
    if not samples:
        return None
    ordered = sorted(samples)
    if pct <= 0:
        return ordered[0]
    rank = min(len(ordered), max(1, -(-int(pct * len(ordered)) // 100)))
    return ordered[rank - 1]
