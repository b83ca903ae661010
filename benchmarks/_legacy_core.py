"""The pre-fast-path simulator core, vendored for A/B benchmarking.

``test_p1_core_throughput`` needs to run the *same* machine build on two
cores — the optimized one in :mod:`repro.sim` / :mod:`repro.metrics` and
the one this PR replaced — inside a single process, so the events/sec
comparison is immune to machine noise and toolchain drift.  This module
is a faithful copy of the replaced classes (``Event`` / ``EventHeap`` as
an order-comparing dataclass heap, ``Simulator.run`` with the separate
peek-then-pop loop, ``TraceLog`` with the copy-the-listener-list emit,
``MetricSet`` with retained raw sample lists), plus the minimal
signature shims the current call sites require:

* ``LegacyMetricSet`` accepts and ignores ``keep_series`` (the old core
  always retained raw series);
* ``LegacyTraceLog.subscribe`` accepts and ignores ``categories`` (the
  old core dispatched every record to every listener);
* ``LegacyTraceLog.active`` mirrors the guard expression the old
  ``emit`` used, for call sites that pre-check before building emit
  arguments.

Use :func:`legacy_core` to swap the legacy classes into
``repro.core.machine`` for the duration of a ``with`` block; machines
built inside the block run on the legacy core, everything else unchanged.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.events import SchedulingError, SimulationError
from repro.sim.trace import TraceRecord


@dataclass(order=True)
class LegacyEvent:
    time: int
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class LegacyEventHeap:
    """The replaced heap: dataclass events compared element-wise."""

    def __init__(self) -> None:
        self._heap: List[LegacyEvent] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: int, action: Callable[[], None], priority: int = 0,
             label: str = "") -> LegacyEvent:
        if time < 0:
            raise SchedulingError(f"event time must be >= 0, got {time}")
        event = LegacyEvent(time=time, priority=priority, seq=self._seq,
                            action=action, label=label)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[LegacyEvent]:
        while self._heap:
            event = heapq.heappop(self._heap)
            self._live -= 1
            if event.cancelled:
                continue
            return event
        return None

    def peek_time(self) -> Optional[int]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._live -= 1
        if not self._heap:
            return None
        return self._heap[0].time


class LegacyTraceLog:
    """The replaced trace log: every emit copies the listener list."""

    def __init__(self, enabled: bool = True,
                 categories: Optional[List[str]] = None) -> None:
        self.enabled = enabled
        self._only = set(categories) if categories is not None else None
        self._records: List[TraceRecord] = []
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def active(self) -> bool:
        # Shim: the guard the old emit() evaluated inline, exposed for
        # call sites that now pre-check before building emit arguments.
        return self.enabled or bool(self._listeners)

    def subscribe(self, listener: Callable[[TraceRecord], None],
                  categories: Optional[Any] = None) -> None:
        # ``categories`` ignored: the old core had wildcard listeners only.
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def emit(self, time: int, category: str, **detail: Any) -> None:
        if not self.enabled and not self._listeners:
            return
        record = TraceRecord(time=time, category=category, detail=detail)
        if self.enabled and (self._only is None or category in self._only):
            self._records.append(record)
        for listener in list(self._listeners):
            listener(record)

    def select(self, category: Optional[str] = None,
               where: Optional[Callable[[TraceRecord], bool]] = None
               ) -> List[TraceRecord]:
        result = []
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if where is not None and not where(record):
                continue
            result.append(record)
        return result

    def count(self, category: str) -> int:
        return sum(1 for record in self._records
                   if record.category == category)

    def dump(self, limit: Optional[int] = None) -> str:
        records = self._records if limit is None else self._records[:limit]
        lines = [record.format() for record in records]
        if limit is not None and len(self._records) > limit:
            lines.append(f"... {len(self._records) - limit} more records")
        return "\n".join(lines)

    def tail(self, count: int) -> List[str]:
        return [record.format() for record in self._records[-count:]]

    def clear(self) -> None:
        self._records.clear()


class LegacySimulator:
    """The replaced event loop: peek, bounds-check, then pop — two lazy
    cancellation scans per executed event."""

    def __init__(self, trace: Optional[LegacyTraceLog] = None) -> None:
        self._now = 0
        self._heap = LegacyEventHeap()
        self._running = False
        self._event_count = 0
        self.trace = trace if trace is not None else LegacyTraceLog()

    @property
    def now(self) -> int:
        return self._now

    @property
    def events_executed(self) -> int:
        return self._event_count

    def pending(self) -> int:
        return len(self._heap)

    def call_at(self, time: int, action: Callable[[], None],
                priority: int = 0, label: str = "") -> LegacyEvent:
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule in the past: now={self._now}, "
                f"requested={time}")
        return self._heap.push(time, action, priority=priority, label=label)

    def call_after(self, delay: int, action: Callable[[], None],
                   priority: int = 0, label: str = "") -> LegacyEvent:
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        return self.call_at(self._now + delay, action, priority=priority,
                            label=label)

    def post(self, delay: int, fn: Callable[..., None],
             args: tuple = ()) -> None:
        """Adapter, not legacy code: the shared current kernel, detector
        and injector schedule through ``Simulator.post``.  None of them
        is on the measured healthy path."""
        self.call_after(delay, lambda: fn(*args))

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            executed = 0
            while True:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self._heap.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                event = self._heap.pop()
                assert event is not None
                self._now = event.time
                self._event_count += 1
                executed += 1
                event.action()
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        self.run(max_events=max_events)
        if self.pending():
            raise SimulationError(
                f"simulation did not go idle within {max_events} events "
                f"({self.pending()} still pending)")
        return self._now


class LegacyMetricSet:
    """The replaced metric store: raw sample lists, stats by full scan."""

    def __init__(self, keep_series: bool = True) -> None:
        # ``keep_series`` ignored: the old core always retained raw series.
        from collections import defaultdict
        self._counters: Dict[str, int] = defaultdict(int)
        self._samples: Dict[str, List[int]] = defaultdict(list)
        self._busy: Dict[Tuple[str, str], int] = defaultdict(int)
        self._hists: Dict[str, Any] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {name: value for name, value in self._counters.items()
                if name.startswith(prefix)}

    def record(self, name: str, value: int) -> None:
        self._samples[name].append(value)

    def series(self, name: str) -> List[int]:
        return list(self._samples.get(name, []))

    def stats(self, name: str):
        from repro.metrics import IntervalStats
        samples = self._samples.get(name)
        if not samples:
            return None
        return IntervalStats(count=len(samples), total=sum(samples),
                             minimum=min(samples), maximum=max(samples))

    def record_hist(self, name: str, value: int) -> None:
        # Signature shim for the current kernel's latency/queue-depth
        # telemetry (histograms post-date the legacy core; they never
        # touch traces, so A/B byte-identity is unaffected).
        hist = self._hists.get(name)
        if hist is None:
            from repro.metrics import LogHistogram
            hist = self._hists[name] = LogHistogram()
        hist.record(value)

    def histogram(self, name: str):
        return self._hists.get(name)

    def histograms(self, prefix: str = "") -> Dict[str, Any]:
        return {name: hist for name, hist in self._hists.items()
                if name.startswith(prefix)}

    def add_busy(self, resource: str, activity: str, ticks: int) -> None:
        self._busy[(resource, activity)] += ticks

    def busy(self, resource: str, activity: Optional[str] = None) -> int:
        if activity is not None:
            return self._busy.get((resource, activity), 0)
        return sum(ticks for (res, _), ticks in self._busy.items()
                   if res == resource)

    def busy_breakdown(self, resource: str) -> Dict[str, int]:
        return {act: ticks for (res, act), ticks in self._busy.items()
                if res == resource}

    def busy_resources(self) -> List[str]:
        return sorted({res for (res, _) in self._busy})

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": dict(self._counters),
            "samples": {name: self.stats(name) for name in self._samples},
            "busy": {f"{res}:{act}": ticks
                     for (res, act), ticks in self._busy.items()},
        }


@contextmanager
def legacy_core():
    """Swap the legacy core classes into ``repro.core.machine``.

    Machines *built* inside the block carry legacy Simulator / TraceLog /
    MetricSet instances for their whole lifetime; the swap only affects
    construction, so a machine built before the block is untouched.
    """
    import repro.core.machine as machine_mod

    saved = (machine_mod.Simulator, machine_mod.TraceLog,
             machine_mod.MetricSet)
    machine_mod.Simulator = LegacySimulator
    machine_mod.TraceLog = LegacyTraceLog
    machine_mod.MetricSet = LegacyMetricSet
    try:
        yield
    finally:
        (machine_mod.Simulator, machine_mod.TraceLog,
         machine_mod.MetricSet) = saved
