"""Model tests for the streaming log-spaced histogram.

The histogram backs every percentile field in bench and campaign
reports, so its contract is checked against a brute-force reference:
randomized sample sets compared with ``exact_percentile`` within the
advertised 3.125% relative error, merge associativity/commutativity
across shuffled shards (the byte-identical parallel-campaign gate rests
on it), serialization round-trips, and equivalence of the
``keep_series=False`` metrics mode (``metrics_raw_series``) with raw
retention.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.metrics import LogHistogram, exact_percentile
from repro.metrics.histogram import (FOLD_BATCH, SUB_BITS, bucket_index,
                                     bucket_upper_bound)

PERCENTILES = (1, 25, 50, 75, 90, 95, 99, 99.9, 100)
REL_ERROR = 1.0 / (1 << SUB_BITS)  # 3.125%


def fill(values):
    hist = LogHistogram()
    for value in values:
        hist.record(value)
    return hist


# -- bucketing ----------------------------------------------------------


def test_small_values_are_exact_singleton_buckets():
    for value in range(32):
        index = bucket_index(value)
        assert index == value
        assert bucket_upper_bound(index) == value


def test_bucket_index_is_monotone_and_bounds_consistent():
    previous = -1
    for value in sorted(list(range(0, 5000))
                        + [2 ** k for k in range(6, 40)]):
        index = bucket_index(value)
        assert index >= previous
        previous = index
        # The value lies at or below its bucket's representative...
        assert value <= bucket_upper_bound(index)
        # ...and above the previous bucket's upper bound.
        if index > 0:
            assert value > bucket_upper_bound(index - 1)


def test_bucket_relative_width_is_bounded():
    for value in [33, 100, 1000, 12345, 10**6, 10**8]:
        index = bucket_index(value)
        upper = bucket_upper_bound(index)
        assert (upper - value) / value <= REL_ERROR


# -- percentile accuracy vs. the exact reference ------------------------


@pytest.mark.parametrize("seed", range(8))
def test_randomized_percentiles_match_exact_reference(seed):
    rng = random.Random(seed)
    # A latency-shaped mixture: a bulk of small values plus a heavy tail,
    # the regime p99 estimation actually has to survive.
    samples = ([rng.randrange(0, 2000) for _ in range(400)]
               + [rng.randrange(2000, 500_000) for _ in range(40)]
               + [rng.randrange(0, 32) for _ in range(60)])
    hist = fill(samples)
    assert hist.count == len(samples)
    assert hist.minimum == min(samples)
    assert hist.maximum == max(samples)
    assert hist.total == sum(samples)
    for pct in PERCENTILES:
        exact = exact_percentile(samples, pct)
        estimate = hist.percentile(pct)
        # Conservative estimate: never below the exact rank value,
        # never more than one relative bucket width above it.
        assert estimate >= exact
        assert estimate <= max(exact + 1, int(exact * (1 + REL_ERROR)) + 1)


def test_small_value_percentiles_are_exact():
    rng = random.Random(7)
    samples = [rng.randrange(0, 32) for _ in range(500)]
    hist = fill(samples)
    for pct in PERCENTILES:
        assert hist.percentile(pct) == exact_percentile(samples, pct)


def test_empty_and_edge_cases():
    hist = LogHistogram()
    assert hist.count == 0
    assert hist.percentile(99) is None
    assert hist.mean == 0.0
    assert hist.summary()["p99"] is None
    hist.record(-5)  # clamps to zero
    assert hist.minimum == 0
    assert hist.percentile(0) == 0
    single = fill([777])
    for pct in PERCENTILES:
        assert single.percentile(pct) == 777  # clamped to observed max


# -- merge: exact, associative, order-independent -----------------------


@pytest.mark.parametrize("seed", range(4))
def test_merge_shuffled_shards_is_deterministic(seed):
    rng = random.Random(100 + seed)
    samples = [rng.randrange(0, 100_000) for _ in range(600)]
    whole = fill(samples)
    # Shard as the campaign pool does (per worker), then merge the
    # shards in several different orders.
    shards = [samples[i::5] for i in range(5)]
    reference = None
    for _ in range(4):
        order = shards[:]
        rng.shuffle(order)
        merged = LogHistogram.merge_many(fill(shard) for shard in order)
        blob = json.dumps(merged.as_dict(), sort_keys=True)
        if reference is None:
            reference = blob
        assert blob == reference
    assert reference == json.dumps(whole.as_dict(), sort_keys=True)


def test_merge_is_associative():
    a = fill([1, 50, 5000])
    b = fill([2, 60, 6000])
    c = fill([3, 70, 70_000])
    left = LogHistogram.merge_many([fill([1, 50, 5000]),
                                    fill([2, 60, 6000])]).merge(c)
    right = fill([1, 50, 5000]).merge(
        LogHistogram.merge_many([fill([2, 60, 6000]), fill([3, 70, 70_000])]))
    assert left.as_dict() == right.as_dict()
    assert a.merge(b).count == 6  # merge returns self, mutating a


def test_serialization_round_trip():
    hist = fill([0, 31, 32, 1000, 123456])
    clone = LogHistogram.from_dict(
        json.loads(json.dumps(hist.as_dict())))
    assert clone.as_dict() == hist.as_dict()
    assert clone.summary() == hist.summary()


# -- batched folding against an eager reference -------------------------


class EagerHistogram:
    """The histogram as it was before recording became lazy: every
    ``record`` folds its sample into the buckets at once.  The reference
    the batched :class:`LogHistogram` must match byte for byte."""

    def __init__(self):
        self.counts, self.count, self.total = {}, 0, 0
        self.min = self.max = None

    def record(self, value):
        value = max(value, 0)
        index = bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other):
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        for value in (other.min, other.max):
            if value is not None:
                self.min = value if self.min is None else min(self.min, value)
                self.max = value if self.max is None else max(self.max, value)

    def percentile(self, pct):
        if not self.count:
            return None
        if pct <= 0:
            return self.min
        rank = min(self.count, max(1, -(-int(pct * self.count) // 100)))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return min(bucket_upper_bound(index), self.max)

    def summary(self):
        return {"count": self.count,
                "mean": round(self.total / self.count if self.count
                              else 0.0, 1),
                "min": self.min, "max": self.max,
                **{f"p{pct}": self.percentile(pct) for pct in (50, 90, 99)}}

    def as_dict(self):
        return {"count": self.count, "total": self.total, "min": self.min,
                "max": self.max,
                "buckets": {str(index): self.counts[index]
                            for index in sorted(self.counts)}}

    @classmethod
    def from_dict(cls, data):
        hist = cls()
        hist.count, hist.total = data["count"], data["total"]
        hist.min, hist.max = data["min"], data["max"]
        hist.counts = {int(i): c for i, c in data["buckets"].items()}
        return hist


@pytest.mark.parametrize("seed", range(6))
def test_batched_folding_matches_eager_reference(seed):
    """Random interleavings of record (negatives included), merge,
    serialization round trips and every read: the batched histogram's
    ``as_dict`` is byte-identical to the eager reference's after every
    read, and its unfolded batch never reaches :data:`FOLD_BATCH`."""
    rng = random.Random(seed)
    pairs = [(LogHistogram(), EagerHistogram()) for _ in range(3)]
    folds = 0

    def sample():
        shape = rng.random()
        if shape < 0.1:
            return rng.randrange(-40, 0)
        if shape < 0.6:
            return rng.randrange(0, 64)
        return rng.randrange(0, 3_000_000)

    for _ in range(20_000):
        lazy, eager = rng.choice(pairs)
        if rng.random() < 0.998:
            before = len(lazy._pending)
            value = sample()
            lazy.record(value)
            eager.record(value)
            assert len(lazy._pending) < FOLD_BATCH
            folds += len(lazy._pending) < before
            continue
        read = rng.randrange(6)
        if read == 0:
            other = rng.randrange(len(pairs))
            lazy.merge(pairs[other][0])
            eager.merge(pairs[other][1])
        elif read == 1:
            index = pairs.index((lazy, eager))
            blob = json.loads(json.dumps(lazy.as_dict()))
            pairs[index] = (LogHistogram.from_dict(blob),
                            EagerHistogram.from_dict(blob))
            lazy, eager = pairs[index]
        elif read == 2:
            pct = rng.choice(PERCENTILES + (0,))
            assert lazy.percentile(pct) == eager.percentile(pct)
        elif read == 3:
            assert lazy.summary() == eager.summary()
        elif read == 4:
            assert lazy.count == eager.count
        assert json.dumps(lazy.as_dict()) == json.dumps(eager.as_dict())
    assert folds > 0  # full batches really were folded mid-stream


def test_metricset_hides_histograms_bound_but_never_recorded():
    """Binding a recorder creates the histogram, but a name with no
    samples is reported nowhere until its first sample."""
    from repro.metrics import MetricSet

    metrics = MetricSet()
    record = metrics.recorder("latency.idle")
    metrics.record_hist("latency.busy", 5)
    assert metrics.histogram("latency.idle") is None
    assert set(metrics.histograms()) == {"latency.busy"}
    assert set(metrics.histograms("latency.")) == {"latency.busy"}
    assert set(metrics.snapshot()["histograms"]) == {"latency.busy"}
    record(-3)
    assert metrics.histogram("latency.idle").as_dict() == {
        "count": 1, "total": 0, "min": 0, "max": 0, "buckets": {"0": 1}}
    assert set(metrics.snapshot()["histograms"]) == {"latency.busy",
                                                     "latency.idle"}
    assert metrics.recorder("latency.idle").__self__ \
        is metrics.histogram("latency.idle")


# -- MetricSet integration: keep_series=False equivalence ---------------


def test_streaming_mode_yields_identical_percentiles():
    """Histograms hold bucket counts, not raw samples, so switching raw
    series retention off must not change a single percentile field."""
    from repro import Machine, MachineConfig
    from repro.workloads import build_bank_workload

    def run(raw):
        machine = Machine(MachineConfig(n_clusters=3, seed=5,
                                        trace_enabled=False,
                                        metrics_raw_series=raw).validate())
        build_bank_workload(machine, n_clients=3, txns_per_client=4)
        machine.run()
        return {name: hist.as_dict()
                for name, hist in machine.metrics.histograms().items()}

    raw_hists = run(True)
    streaming_hists = run(False)
    assert raw_hists == streaming_hists
    assert "latency.request" in raw_hists
    assert raw_hists["latency.request"]["count"] > 0
