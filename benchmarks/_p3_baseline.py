"""The PR 3 engine (pre-batching), vendored for the P3 A/B benchmark.

``test_p3_queue_parallel`` measures the batched dispatch loop, the
pluggable queue backends and the slimmed hot paths against *the engine
they replaced* — the PR 3 fast path — inside one process, the same
methodology ``test_p1_core_throughput`` uses against the pre-PR 3
engine via :mod:`_legacy_machine`.  This module is a faithful copy of
the replaced classes as they stood at the PR 3 tip:

* ``P3EventHeap`` / ``P3Event`` — tuple-keyed heap with the
  single-event ``pop_next`` scan (no ``pop_batch``);
* ``P3Simulator`` — the one-event-at-a-time dispatch loop;
* ``P3TraceLog`` / ``P3TraceRecord`` — dict-detail records, no
  category/actor interning;
* ``P3MetricSet`` — the streaming metric store as PR 6 left it;
* ``P3Scheduler`` / ``P3WorkProcessor`` / ``P3ExecutiveProcessor`` /
  ``P3Cluster`` / ``P3InterclusterBus`` / ``P3MemoryTxn`` /
  ``P3StepContext`` — the machine hot path riding that core, with the
  per-step allocations (fresh txn + context + register-dict copy per
  step, one closure per delivery leg) the batched engine removes.

Use :func:`p3_engine` to swap the whole PR 3 engine into the machine
construction path for the duration of a ``with`` block.  Only
construction is patched: machines built inside the block run on the
PR 3 engine for their whole lifetime, and program/workload/kernel
semantics are the shared current code either way, which keeps the A/B
comparison apples-to-apples.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Set, Tuple, TYPE_CHECKING)

from repro.config import BusFaultConfig, CostModel, MachineConfig
from repro.hardware.buslink import ACK_LOSS, DualBusFaultLayer, GARBLE, OK
from repro.hardware.disk import DiskError
from repro.messages.message import DeliveryRole, Message
from repro.messages.payloads import EOFMarker, OpenReply
from repro.messages.routing import EntryStatus, PeerKind
from repro.metrics.histogram import LogHistogram
from repro.metrics import IntervalStats
from repro.paging.addrspace import AddressSpace, Cell, PageFault
from repro.programs.actions import (Alarm, Close, Compute, Exit, Fork,
                                    GetPid, GetTime, Open, Poll, Read,
                                    ReadAny, ReadClock, Write, Yield)
from repro.kernel.pcb import BlockInfo, ProcState, ProcessControlBlock
from repro.sim.events import SchedulingError, SimulationError
from repro.types import ClusterId, Pid, Ticks

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.kernel.kernel import ClusterKernel


# -- the PR 3 simulator core -------------------------------------------------


class P3Event:
    """The PR 3 event: slotted, ordered by ``(time, priority, seq)``."""

    __slots__ = ("time", "priority", "seq", "action", "label", "cancelled")

    def __init__(self, time: int, priority: int, seq: int,
                 action: Callable[[], None], label: str = "",
                 cancelled: bool = False) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        self.cancelled = True


class P3EventHeap:
    """The PR 3 heap: tuple keys, lazy cancellation, single-event
    ``pop_next`` (no batch draining)."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, P3Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: int, action: Callable[[], None], priority: int = 0,
             label: str = "") -> P3Event:
        if time < 0:
            raise SchedulingError(f"event time must be >= 0, got {time}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        event = P3Event(time, priority, seq, action, label)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Optional[P3Event]:
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            self._live -= 1
            if event.cancelled:
                continue
            return event
        return None

    def pop_next(self, until: Optional[int] = None) -> Optional[P3Event]:
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3].cancelled:
                heappop(heap)
                self._live -= 1
                continue
            if until is not None and head[0] > until:
                return None
            heappop(heap)
            self._live -= 1
            return head[3]
        return None

    def peek_time(self) -> Optional[int]:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._live -= 1
        if not heap:
            return None
        return heap[0][0]


@dataclass(frozen=True)
class P3TraceRecord:
    """The PR 3 record: plain dict detail, no interning."""

    time: int
    category: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        parts = " ".join(f"{key}={value!r}"
                         for key, value in self.detail.items())
        return f"[{self.time:>12}] {self.category:<24} {parts}"


class P3TraceLog:
    """The PR 3 trace log: ``active`` fast flag, per-category listener
    index, deferred (un)subscribe during dispatch."""

    def __init__(self, enabled: bool = True,
                 categories: Optional[List[str]] = None) -> None:
        self._enabled = enabled
        self._only = set(categories) if categories is not None else None
        self._records: List[P3TraceRecord] = []
        self._listeners: List[Callable] = []
        self._by_category: Dict[str, List[Callable]] = {}
        self.active = enabled
        self._dispatching = 0
        self._deferred: List = []

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._refresh_active()

    def _refresh_active(self) -> None:
        self.active = bool(self._enabled or self._listeners
                           or self._by_category)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[P3TraceRecord]:
        return iter(self._records)

    def subscribe(self, listener: Callable,
                  categories: Optional[Sequence[str]] = None) -> None:
        if self._dispatching:
            self._deferred.append((self.subscribe, listener, categories))
            return
        if categories is None:
            self._listeners.append(listener)
        else:
            for category in categories:
                self._by_category.setdefault(category, []).append(listener)
        self._refresh_active()

    def unsubscribe(self, listener: Callable) -> None:
        if self._dispatching:
            self._deferred.append((self.unsubscribe, listener, None))
            return
        if listener in self._listeners:
            self._listeners.remove(listener)
        for category, listeners in list(self._by_category.items()):
            if listener in listeners:
                listeners.remove(listener)
            if not listeners:
                del self._by_category[category]
        self._refresh_active()

    def emit(self, time: int, category: str, **detail: Any) -> None:
        if not self.active:
            return
        record = P3TraceRecord(time=time, category=category, detail=detail)
        if self._enabled and (self._only is None or category in self._only):
            self._records.append(record)
        listeners = self._listeners
        scoped = self._by_category.get(category)
        if not listeners and not scoped:
            return
        self._dispatching += 1
        try:
            for listener in listeners:
                listener(record)
            if scoped:
                for listener in scoped:
                    listener(record)
        finally:
            self._dispatching -= 1
            if self._deferred and not self._dispatching:
                deferred, self._deferred = self._deferred, []
                for method, listener, categories in deferred:
                    if method is self.subscribe:
                        method(listener, categories)
                    else:
                        method(listener)

    def select(self, category: Optional[str] = None,
               where: Optional[Callable] = None) -> List[P3TraceRecord]:
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


class P3Simulator:
    """The PR 3 event loop: one ``pop_next`` call per executed event."""

    def __init__(self, trace: Optional[P3TraceLog] = None) -> None:
        self.now = 0
        self._heap = P3EventHeap()
        self._running = False
        self._event_count = 0
        self.trace = trace if trace is not None else P3TraceLog()

    @property
    def events_executed(self) -> int:
        return self._event_count

    def pending(self) -> int:
        return len(self._heap)

    def call_at(self, time: int, action: Callable[[], None],
                priority: int = 0, label: str = "") -> P3Event:
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule in the past: now={self.now}, "
                f"requested={time}")
        return self._heap.push(time, action, priority=priority, label=label)

    def call_after(self, delay: int, action: Callable[[], None],
                   priority: int = 0, label: str = "") -> P3Event:
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        return self._heap.push(self.now + delay, action, priority=priority,
                               label=label)

    def post(self, delay: int, fn: Callable[..., None],
             args: tuple = ()) -> None:
        """Adapter, not PR 3 code: the shared current kernel, detector and
        injector schedule through ``Simulator.post``.  None of them is on
        the measured healthy path."""
        self.call_after(delay, lambda: fn(*args))

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        pop_next = self._heap.pop_next
        try:
            if max_events is None:
                while True:
                    event = pop_next(until)
                    if event is None:
                        break
                    self.now = event.time
                    executed += 1
                    event.action()
            else:
                while executed < max_events:
                    event = pop_next(until)
                    if event is None:
                        break
                    self.now = event.time
                    executed += 1
                    event.action()
            if until is not None and self.now < until:
                self.now = until
            return self.now
        finally:
            self._event_count += executed
            self._running = False

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        self.run(max_events=max_events)
        if self.pending():
            raise SimulationError(
                f"simulation did not go idle within {max_events} events "
                f"({self.pending()} still pending)")
        return self.now


_P3_SUB_BITS = 5
_P3_SUB_COUNT = 1 << _P3_SUB_BITS
_P3_SUB_MASK = _P3_SUB_COUNT - 1


def _p3_bucket_index(value: int) -> int:
    if value < _P3_SUB_COUNT:
        return value
    shift = value.bit_length() - _P3_SUB_BITS - 1
    return ((shift + 1) << _P3_SUB_BITS) + (value >> shift) - _P3_SUB_COUNT


def _p3_bucket_upper_bound(index: int) -> int:
    if index < _P3_SUB_COUNT:
        return index
    shift = (index >> _P3_SUB_BITS) - 1
    sub = index & _P3_SUB_MASK
    return ((_P3_SUB_COUNT + sub + 1) << shift) - 1


class P3LogHistogram:
    """The streaming histogram as the PR 3 engine ran it (record via the
    module-level bucket function)."""

    __slots__ = ("_counts", "_count", "_total", "_min", "_max")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    def record(self, value: int) -> None:
        if value < 0:
            value = 0
        index = _p3_bucket_index(value)
        self._counts[index] = self._counts.get(index, 0) + 1
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def merge(self, other: "P3LogHistogram") -> "P3LogHistogram":
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

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> int:
        return self._total

    @property
    def minimum(self) -> Optional[int]:
        return self._min

    @property
    def maximum(self) -> Optional[int]:
        return self._max

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def percentile(self, pct: float) -> Optional[int]:
        if not self._count:
            return None
        if pct <= 0:
            return self._min
        rank = min(self._count,
                   max(1, -(-int(pct * self._count) // 100)))
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= rank:
                bound = _p3_bucket_upper_bound(index)
                return min(bound, self._max) if self._max is not None \
                    else bound
        return self._max

    def summary(self, percentiles: Sequence[int] = (50, 90, 99)
                ) -> Dict[str, object]:
        out: Dict[str, object] = {
            "count": self._count,
            "mean": round(self.mean, 1),
            "min": self._min,
            "max": self._max,
        }
        for pct in percentiles:
            out[f"p{pct}"] = self.percentile(pct)
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self._count,
            "total": self._total,
            "min": self._min,
            "max": self._max,
            "buckets": {str(index): self._counts[index]
                        for index in sorted(self._counts)},
        }


class P3MetricSet:
    """The PR 6 metric store as the PR 3 engine ran it."""

    def __init__(self, keep_series: bool = True) -> None:
        from collections import defaultdict
        self._counters: Dict[str, int] = defaultdict(int)
        self._running: Dict[str, List[int]] = {}
        self._series: Dict[str, List[int]] = defaultdict(list)
        self._keep_series = keep_series
        self._busy: Dict[Tuple[str, str], int] = defaultdict(int)
        self._hists: Dict[str, P3LogHistogram] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {name: value for name, value in self._counters.items()
                if name.startswith(prefix)}

    def record(self, name: str, value: int) -> None:
        running = self._running.get(name)
        if running is None:
            self._running[name] = [1, value, value, value]
        else:
            running[0] += 1
            running[1] += value
            if value < running[2]:
                running[2] = value
            elif value > running[3]:
                running[3] = value
        if self._keep_series:
            self._series[name].append(value)

    def series(self, name: str) -> List[int]:
        from repro.metrics import MetricsError
        if not self._keep_series and name in self._running:
            raise MetricsError(
                f"raw series {name!r} not retained (keep_series=False); "
                f"use stats() for the streaming aggregate")
        return list(self._series.get(name, []))

    def stats(self, name: str) -> Optional[IntervalStats]:
        running = self._running.get(name)
        if running is None:
            return None
        return IntervalStats(count=running[0], total=running[1],
                             minimum=running[2], maximum=running[3])

    def record_hist(self, name: str, value: int) -> None:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = P3LogHistogram()
        hist.record(value)

    def histogram(self, name: str) -> Optional[P3LogHistogram]:
        return self._hists.get(name)

    def histograms(self, prefix: str = "") -> Dict[str, P3LogHistogram]:
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
            "samples": {name: self.stats(name) for name in self._running},
            "busy": {f"{res}:{act}": ticks
                     for (res, act), ticks in self._busy.items()},
            "histograms": {name: hist.summary()
                           for name, hist in sorted(self._hists.items())},
        }


# -- paging / program-step scaffolding ---------------------------------------


class P3MemoryTxn:
    """The PR 3 transaction: fresh dict + set per step."""

    __slots__ = ("_space", "_writes", "pages_touched")

    def __init__(self, space: AddressSpace) -> None:
        self._space = space
        self._writes: Dict[int, Cell] = {}
        self.pages_touched: Set[int] = set()

    def get(self, name: str, index: int = 0) -> Cell:
        space = self._space
        address = space.address_of(name, index)
        self.pages_touched.add(address // space.words_per_page)
        if address in self._writes:
            return self._writes[address]
        return space.read_word(address)

    def set(self, name: str, value: Cell, index: int = 0) -> None:
        space = self._space
        address = space.address_of(name, index)
        page_no = address // space.words_per_page
        self.pages_touched.add(page_no)
        if page_no not in space._resident:
            raise PageFault(page_no)
        self._writes[address] = value

    def add(self, name: str, delta: int, index: int = 0) -> Cell:
        value = self.get(name, index) + delta
        self.set(name, value, index=index)
        return value

    def commit(self) -> int:
        for address, value in sorted(self._writes.items()):
            self._space.write_word(address, value)
        count = len(self._writes)
        self._writes.clear()
        return count


class P3StepContext:
    """The PR 3 step context: one fresh instance per program step."""

    __slots__ = ("pid", "mem", "regs")

    def __init__(self, pid: Pid, mem: P3MemoryTxn,
                 regs: Dict[str, Any]) -> None:
        self.pid = pid
        self.mem = mem
        self.regs = regs

    @property
    def rv(self) -> Any:
        return self.regs.get("rv")

    def goto(self, state: str) -> None:
        self.regs["pc"] = state


# -- hardware ----------------------------------------------------------------


@dataclass
class P3WorkProcessor:
    cluster_id: ClusterId
    index: int
    current_pid: Optional[Pid] = None
    busy_until: Ticks = 0

    def __post_init__(self) -> None:
        self.resource_name = f"work[c{self.cluster_id}.{self.index}]"

    @property
    def idle(self) -> bool:
        return self.current_pid is None


class P3ExecutiveProcessor:
    """The PR 3 executive: tuple work items, bound-method completion."""

    def __init__(self, cluster_id: ClusterId, sim: Any,
                 metrics: Any) -> None:
        self.cluster_id = cluster_id
        self.resource_name = f"executive[c{cluster_id}]"
        self._sim = sim
        self._metrics = metrics
        self._queue: Deque[tuple] = deque()
        self._busy = False
        self._halted = False
        self._current: Optional[Callable[[], None]] = None
        self._event_label = f"exec[c{cluster_id}]"

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, cost: Ticks, action: Callable[[], None],
               label: str) -> None:
        if self._halted:
            return
        self._queue.append((cost, action, label))
        if not self._busy:
            self._start_next()

    def halt(self) -> None:
        self._halted = True
        self._queue.clear()

    def _start_next(self) -> None:
        if self._halted or not self._queue:
            self._busy = False
            self._current = None
            return
        cost, action, label = self._queue.popleft()
        self._busy = True
        self._metrics.add_busy(self.resource_name, label, cost)
        self._current = action
        self._sim.call_after(cost, self._on_complete, label=self._event_label)

    def _on_complete(self) -> None:
        if self._halted:
            return
        action = self._current
        action()
        self._start_next()


_P3_DELIVER_LABELS = {role: f"deliver_{role.value}" for role in DeliveryRole}


class P3Cluster:
    """The PR 3 cluster: one closure per delivery leg in ``receive``,
    per-leg f-string labels for kernel legs."""

    def __init__(self, cluster_id: ClusterId, config: MachineConfig,
                 sim: Any, bus: "P3InterclusterBus", metrics: Any,
                 trace: Any) -> None:
        self.cluster_id = cluster_id
        self.config = config
        self.sim = sim
        self.bus = bus
        self.metrics = metrics
        self.trace = trace
        self.alive = True
        self.outgoing_enabled = True
        self.executive = P3ExecutiveProcessor(cluster_id, sim, metrics)
        self.work_processors: List[P3WorkProcessor] = [
            P3WorkProcessor(cluster_id=cluster_id, index=i)
            for i in range(config.work_processors_per_cluster)
        ]
        self.kernel: Optional["ClusterKernel"] = None
        self._outgoing: Deque[Message] = deque()
        self._arrival_seqno = 0
        self._request_bus = lambda: bus.request(cluster_id)
        self._dispatch_cost = config.costs.exec_dispatch
        bus.attach(self)

    # -- outgoing path ------------------------------------------------------

    def send(self, message: Message) -> None:
        if not self.alive:
            return
        self._outgoing.append(message)
        if self.outgoing_enabled:
            self.executive.submit(self._dispatch_cost, self._request_bus,
                                  label="dispatch")

    def pop_outgoing(self) -> Optional[Message]:
        if not self._outgoing:
            return None
        return self._outgoing.popleft()

    def has_outgoing(self) -> bool:
        return bool(self._outgoing)

    def outgoing_snapshot(self) -> List[Message]:
        return list(self._outgoing)

    def disable_outgoing(self) -> None:
        self.outgoing_enabled = False

    def enable_outgoing(self) -> None:
        self.outgoing_enabled = True
        if self._outgoing:
            self.executive.submit(self._dispatch_cost, self._request_bus,
                                  label="dispatch")

    def replace_outgoing(self, messages: List[Message]) -> None:
        self._outgoing = deque(messages)

    # -- incoming path ------------------------------------------------------

    def next_arrival_seqno(self) -> int:
        self._arrival_seqno += 1
        return self._arrival_seqno

    def ensure_seqno_at_least(self, floor: int) -> None:
        if self._arrival_seqno < floor:
            self._arrival_seqno = floor

    def receive(self, message: Message,
                legs: Optional[List] = None) -> None:
        if not self.alive or self.kernel is None:
            return
        if legs is None:
            legs = list(message.deliveries_for(self.cluster_id))
        self._arrival_seqno += 1
        seqno = self._arrival_seqno
        kernel = self.kernel
        costs = self.config.costs
        for delivery in legs:
            role = delivery.role
            if role is DeliveryRole.KERNEL:
                cost = costs.exec_sync_apply
                label = f"apply_{message.kind.value}"
            else:
                cost = costs.exec_delivery
                label = _P3_DELIVER_LABELS[role]
            self.executive.submit(
                cost,
                lambda m=message, d=delivery, s=seqno:
                    kernel.handle_delivery(m, d, s),
                label=label)

    # -- failure ------------------------------------------------------------

    def revive(self) -> None:
        if self.alive:
            return
        self.alive = True
        self.outgoing_enabled = True
        self._outgoing.clear()
        self.executive = P3ExecutiveProcessor(self.cluster_id, self.sim,
                                              self.metrics)
        for proc in self.work_processors:
            proc.current_pid = None
        self.kernel = None
        self.metrics.incr("cluster.restores")
        self.trace.emit(self.sim.now, "cluster.revive",
                        cluster=self.cluster_id)

    def crash(self) -> None:
        if not self.alive:
            return
        self.alive = False
        lost = len(self._outgoing)
        self._outgoing.clear()
        self.executive.halt()
        self.bus.sender_crashed(self.cluster_id)
        if self.kernel is not None:
            self.kernel.halt()
        self.metrics.incr("cluster.crashes")
        self.metrics.incr("cluster.lost_outgoing", lost)
        self.trace.emit(self.sim.now, "cluster.crash",
                        cluster=self.cluster_id, lost_outgoing=lost)


@dataclass
class _P3Transmission:
    src: ClusterId
    message: Message
    seqno: int = 0
    attempts: int = 0
    attempts_on_link: int = 0


class P3InterclusterBus:
    """The PR 3 bus: per-completion closure, request-queue histogram on
    every request."""

    def __init__(self, sim: Any, costs: CostModel, metrics: Any,
                 trace: Any) -> None:
        self._sim = sim
        self._costs = costs
        self._metrics = metrics
        self._trace = trace
        self._clusters: Dict[ClusterId, P3Cluster] = {}
        self._requests: Deque[ClusterId] = deque()
        self._requested: set = set()
        self._current: Optional[_P3Transmission] = None
        self._busy_ticks = 0
        self._faults: Optional[DualBusFaultLayer] = None
        self._observer = None

    def attach(self, cluster: P3Cluster) -> None:
        self._clusters[cluster.cluster_id] = cluster

    def configure_faults(self, config: BusFaultConfig) -> None:
        self._faults = (DualBusFaultLayer(config) if config is not None
                        and config.enabled else None)

    def attach_observer(self, observer) -> None:
        self._observer = observer

    @property
    def fault_layer(self) -> Optional[DualBusFaultLayer]:
        return self._faults

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def busy_ticks(self) -> int:
        return self._busy_ticks

    def utilization(self, now: int) -> float:
        return self._busy_ticks / now if now > 0 else 0.0

    def request(self, cluster_id: ClusterId) -> None:
        if cluster_id in self._requested:
            return
        self._requested.add(cluster_id)
        self._requests.append(cluster_id)
        self._metrics.record_hist("bus.request_queue",
                                  len(self._requests))
        if self._current is None:
            self._grant_next()

    def sender_crashed(self, cluster_id: ClusterId) -> None:
        if self._current is not None and self._current.src == cluster_id:
            self._trace.emit(self._sim.now, "bus.aborted",
                             src=cluster_id,
                             msg=self._current.message.describe())
            self._metrics.incr("bus.aborted_transmissions")
            self._current = None
            self._grant_next()

    def _grant_next(self) -> None:
        if self._current is not None:
            return
        while self._requests:
            cluster_id = self._requests.popleft()
            self._requested.discard(cluster_id)
            cluster = self._clusters[cluster_id]
            if not cluster.alive or not cluster.outgoing_enabled:
                continue
            message = cluster.pop_outgoing()
            if message is None:
                continue
            self._begin(cluster_id, message)
            return

    def _begin(self, src: ClusterId, message: Message) -> None:
        if self._faults is not None:
            self._begin_faulted(src, message)
            return
        transmission = _P3Transmission(src=src, message=message)
        self._current = transmission
        duration = (self._costs.bus_latency
                    + message.size_bytes * self._costs.bus_ticks_per_byte)
        self._metrics.incr("bus.transmissions")
        self._metrics.incr("bus.bytes", message.size_bytes)
        self._metrics.add_busy("bus", message.kind.value, duration)
        self._busy_ticks += duration
        if self._trace.active:
            self._trace.emit(self._sim.now, "bus.transmit", src=src,
                             msg=message.describe(),
                             targets=message.target_clusters())
        self._sim.call_after(duration, lambda: self._complete(transmission),
                             label="bus.complete")

    def _complete(self, transmission: _P3Transmission) -> None:
        if self._current is not transmission:
            return
        self._current = None
        message = transmission.message
        src_cluster = self._clusters[transmission.src]
        if not src_cluster.alive:
            self._trace.emit(self._sim.now, "bus.aborted",
                             src=transmission.src, msg=message.describe())
            self._metrics.incr("bus.aborted_transmissions")
        else:
            self._deliver_all(message)
            if src_cluster.has_outgoing():
                self.request(transmission.src)
        self._grant_next()

    def _deliver_all(self, message: Message) -> None:
        legs: Dict[ClusterId, list] = {}
        for delivery in message.deliveries:
            legs.setdefault(delivery.cluster_id, []).append(delivery)
        for cluster_id, cluster_legs in legs.items():
            cluster = self._clusters.get(cluster_id)
            if cluster is None or not cluster.alive:
                self._metrics.incr("bus.deliveries_to_dead")
                if self._observer is not None:
                    self._observer.on_dead(message, cluster_id)
                continue
            cluster.receive(message, cluster_legs)
            self._metrics.incr("bus.deliveries")
            if self._observer is not None:
                self._observer.on_delivered(message, cluster_id)

    # -- degraded mode (shared fault layer, vendored dispatch) ------------

    def _begin_faulted(self, src: ClusterId, message: Message) -> None:
        transmission = _P3Transmission(src=src, message=message,
                                       seqno=self._faults.next_seqno(src))
        self._current = transmission
        self._attempt(transmission)

    def _attempt(self, transmission: _P3Transmission) -> None:
        faults = self._faults
        link = faults.active_link
        first = transmission.attempts == 0
        transmission.attempts += 1
        transmission.attempts_on_link += 1
        message = transmission.message
        duration = (self._costs.bus_latency
                    + message.size_bytes * self._costs.bus_ticks_per_byte)
        if first:
            self._metrics.incr("bus.transmissions")
        else:
            self._metrics.incr("bus.retransmissions")
        self._metrics.incr("bus.bytes", message.size_bytes)
        self._metrics.add_busy("bus", message.kind.value, duration)
        self._busy_ticks += duration
        if self._trace.active:
            category = "bus.transmit" if first else "bus.retransmit"
            self._trace.emit(self._sim.now, category, src=transmission.src,
                             msg=message.describe(),
                             targets=message.target_clusters(),
                             link=link.link_id, seq=transmission.seqno,
                             attempt=transmission.attempts)
        self._sim.call_after(duration,
                             lambda: self._complete_attempt(transmission,
                                                            link),
                             label="bus.complete")

    def _complete_attempt(self, transmission: _P3Transmission,
                          link) -> None:
        if self._current is not transmission:
            return
        message = transmission.message
        src_cluster = self._clusters[transmission.src]
        if not src_cluster.alive:
            self._abort_faulted(transmission)
            return
        faults = self._faults
        outcome = link.judge()
        if outcome is OK or outcome is ACK_LOSS:
            self._deliver_tracked(transmission)
        if outcome is OK:
            faults.record_success(link)
            self._current = None
            if src_cluster.has_outgoing():
                self.request(transmission.src)
            self._grant_next()
            return
        faults.record_failure(link)
        self._metrics.incr(f"bus.faults.{outcome}")
        if outcome is GARBLE and self._observer is not None:
            self._observer.on_garble(message, transmission.src)
        if self._trace.active:
            self._trace.emit(self._sim.now, "bus.fault", kind=outcome,
                             link=link.link_id, src=transmission.src,
                             seq=transmission.seqno,
                             attempt=transmission.attempts)
        if faults.should_fail_over(link, transmission.attempts_on_link):
            fresh = faults.fail_over(link)
            transmission.attempts_on_link = 0
            self._metrics.incr("bus.failovers")
            self._trace.emit(self._sim.now, "bus.failover",
                             dead_link=link.link_id,
                             active_link=fresh.link_id,
                             consecutive=link.consecutive_failures)
        backoff = faults.backoff(transmission.attempts)
        self._sim.call_after(backoff, lambda: self._retry(transmission),
                             label="bus.retry")

    def _retry(self, transmission: _P3Transmission) -> None:
        if self._current is not transmission:
            return
        if not self._clusters[transmission.src].alive:
            self._abort_faulted(transmission)
            return
        self._attempt(transmission)

    def _abort_faulted(self, transmission: _P3Transmission) -> None:
        self._trace.emit(self._sim.now, "bus.aborted",
                         src=transmission.src,
                         msg=transmission.message.describe())
        self._metrics.incr("bus.aborted_transmissions")
        self._current = None
        self._grant_next()

    def _deliver_tracked(self, transmission: _P3Transmission) -> None:
        faults = self._faults
        message = transmission.message
        legs: Dict[ClusterId, list] = {}
        for delivery in message.deliveries:
            legs.setdefault(delivery.cluster_id, []).append(delivery)
        for cluster_id, cluster_legs in legs.items():
            cluster = self._clusters.get(cluster_id)
            if cluster is None or not cluster.alive:
                self._metrics.incr("bus.deliveries_to_dead")
                if self._observer is not None:
                    self._observer.on_dead(message, cluster_id)
                continue
            if faults.is_duplicate(cluster_id, transmission.src,
                                   transmission.seqno):
                self._metrics.incr("bus.duplicates_suppressed")
                if self._trace.active:
                    self._trace.emit(self._sim.now, "bus.duplicate",
                                     dst=cluster_id, src=transmission.src,
                                     seq=transmission.seqno)
                continue
            cluster.receive(message, cluster_legs)
            self._metrics.incr("bus.deliveries")
            if self._observer is not None:
                self._observer.on_delivered(message, cluster_id)


# -- the scheduler -----------------------------------------------------------


class P3SchedulerError(Exception):
    pass


_P3_DEFERRED_SYSCALLS = (Read, Write, ReadAny, Open, Close, Fork, GetTime,
                         Alarm, Yield)


def _p3_attach_labels(pcb: ProcessControlBlock) -> None:
    """The per-process event labels the PR 3 PCB built in its
    ``__post_init__``; the current PCB no longer carries them, so the
    PR 3 scheduler attaches them at a process's first assignment."""
    pid = pcb.pid
    pcb.label_start = f"sched.start:{pid}"
    pcb.label_compute = f"sched.compute:{pid}"
    pcb.label_sys = f"sched.sys:{pid}"
    pcb.label_priv = f"sched.priv:{pid}"
    pcb.label_sync = f"sched.sync:{pid}"
    pcb.label_signal = f"sched.signal:{pid}"


class P3Scheduler:
    """The PR 3 scheduler: fresh txn + context + register-dict copy per
    step, one closure per continuation."""

    def __init__(self, kernel: "ClusterKernel") -> None:
        self.kernel = kernel
        self._ready_high: Deque[Pid] = deque()
        self._ready_normal: Deque[Pid] = deque()

    # -- queue management ---------------------------------------------------

    def make_ready(self, pcb: ProcessControlBlock) -> None:
        if pcb.state in (ProcState.RUNNING, ProcState.READY,
                         ProcState.EXITED):
            if pcb.state is ProcState.READY:
                self.dispatch()
            return
        pcb.state = ProcState.READY
        queue = self._ready_high if pcb.is_server else self._ready_normal
        queue.append(pcb.pid)
        self.dispatch()

    def _pop_ready(self) -> Optional[ProcessControlBlock]:
        for queue in (self._ready_high, self._ready_normal):
            while queue:
                pid = queue.popleft()
                pcb = self.kernel.pcbs.get(pid)
                if pcb is not None and pcb.state is ProcState.READY:
                    return pcb
        return None

    def has_ready(self) -> bool:
        return any(self.kernel.pcbs.get(pid) is not None
                   and self.kernel.pcbs[pid].state is ProcState.READY
                   for queue in (self._ready_high, self._ready_normal)
                   for pid in queue)

    def dispatch(self) -> None:
        if not self.kernel.alive or self.kernel.crash_handling:
            return
        for proc in self.kernel.cluster.work_processors:
            if not proc.idle:
                continue
            pcb = self._pop_ready()
            if pcb is None:
                return
            self._assign(proc, pcb)

    def _assign(self, proc, pcb: ProcessControlBlock) -> None:
        pcb.state = ProcState.RUNNING
        pcb.on_processor = proc.index
        pcb.quantum_used = 0
        proc.current_pid = pcb.pid
        if not hasattr(pcb, "label_start"):
            _p3_attach_labels(pcb)
        cost = self.kernel.config.costs.context_switch
        self._charge(proc, pcb, cost, "context_switch")
        self.kernel.sim.call_after(cost, lambda: self._step(proc, pcb),
                                   label=pcb.label_start)

    def _release(self, proc, pcb: Optional[ProcessControlBlock]) -> None:
        proc.current_pid = None
        if pcb is not None:
            pcb.on_processor = None
        self.dispatch()

    def _charge(self, proc, pcb: ProcessControlBlock, cost: Ticks,
                activity: str) -> None:
        self.kernel.metrics.add_busy(proc.resource_name, activity, cost)
        pcb.note_exec(cost)

    def _gone(self, pcb: ProcessControlBlock) -> bool:
        return (not self.kernel.alive
                or self.kernel.pcbs.get(pcb.pid) is not pcb
                or pcb.state is ProcState.EXITED)

    # -- the step engine ----------------------------------------------------

    def _step(self, proc, pcb: ProcessControlBlock) -> None:
        kernel = self.kernel
        if not kernel.alive:
            return
        if self._gone(pcb):
            self._release(proc, pcb)
            return

        if pcb.block is not None and pcb.block.kind != "page":
            if not self._resolve_block(proc, pcb):
                return
        elif pcb.block is not None:
            pcb.block = None

        if pcb.checkpoint_every is not None \
                and pcb.backup_cluster is not None \
                and pcb.ops_since_checkpoint >= pcb.checkpoint_every:
            self._do_checkpoint(proc, pcb)
            return

        if (pcb.backup_cluster is not None or
                pcb.full_sync_target is not None) and pcb.sync_due():
            self._do_sync(proc, pcb)
            return

        signal = kernel.check_signals(pcb)
        if signal is not None:
            if pcb.backup_cluster is not None:
                self._do_sync(proc, pcb, then_signal=True)
                return
            self._handle_signal(proc, pcb)
            return

        self._run_program_step(proc, pcb)

    def _resolve_block(self, proc, pcb: ProcessControlBlock) -> bool:
        kernel = self.kernel
        block = pcb.block
        assert block is not None
        result = kernel.try_consume(pcb, block.fds)
        if result is None:
            pcb.state = (ProcState.BLOCKED_OPEN if block.kind == "open"
                         else ProcState.BLOCKED_READ)
            self._release(proc, pcb)
            return False
        fd, payload = result
        if block.since is not None:
            waited = kernel.sim.now - block.since
            if block.kind == "reply":
                kernel.metrics.record_hist("latency.request", waited)
            elif block.kind in ("read", "read_any"):
                kernel.metrics.record_hist("latency.read_wait", waited)
        if block.kind == "read_any":
            pcb.regs["rv"] = (fd, payload)
        elif block.kind == "open":
            pcb.regs["rv"] = self._finish_open(pcb, payload)
        else:
            pcb.regs["rv"] = payload
        pcb.block = None
        return True

    def _finish_open(self, pcb: ProcessControlBlock, payload: Any) -> Any:
        if not isinstance(payload, OpenReply):
            raise P3SchedulerError(
                f"pid {pcb.pid}: expected OpenReply, got {payload!r}")
        if payload.error is not None:
            return None
        fd = pcb.alloc_fd(payload.channel_id)
        entry = self.kernel.routing.get(payload.channel_id, pcb.pid)
        if entry is not None:
            entry.fd = fd
        return fd

    def _do_checkpoint(self, proc, pcb: ProcessControlBlock) -> None:
        from repro.baselines.checkpointing import perform_checkpoint

        stall = perform_checkpoint(self.kernel, pcb)
        self._charge(proc, pcb, stall, "checkpoint_stall")

        def resume() -> None:
            if not self.kernel.alive:
                return
            if self._gone(pcb):
                self._release(proc, pcb)
                return
            self._step(proc, pcb)

        self.kernel.sim.call_after(stall, resume,
                                   label=f"sched.checkpoint:{pcb.pid}")

    def _do_sync(self, proc, pcb: ProcessControlBlock,
                 then_signal: bool = False) -> None:
        from repro.backup.sync import perform_sync

        stall = perform_sync(self.kernel, pcb)
        self._charge(proc, pcb, stall, "sync_stall")
        pcb.exec_since_sync = 0

        def resume() -> None:
            if not self.kernel.alive:
                return
            if self._gone(pcb):
                self._release(proc, pcb)
                return
            if then_signal:
                self._handle_signal(proc, pcb)
            else:
                self._step(proc, pcb)

        self.kernel.sim.call_after(stall, resume, label=pcb.label_sync)

    def _handle_signal(self, proc, pcb: ProcessControlBlock) -> None:
        kernel = self.kernel
        payload = kernel.peek_signal(pcb)
        txn = P3MemoryTxn(pcb.space)
        regs = dict(pcb.regs)
        ctx = P3StepContext(pid=pcb.pid, mem=txn, regs=regs)
        try:
            pcb.program.on_signal(ctx, payload)
        except PageFault as fault:
            kernel.page_fault(pcb, fault.page_no)
            self._release(proc, pcb)
            return
        kernel.consume_signal(pcb)
        regs["_sig_seen"] = payload.seq
        txn.commit()
        pcb.regs = regs
        cost = kernel.config.costs.syscall_overhead
        self._charge(proc, pcb, cost, "signal")
        kernel.sim.call_after(cost, lambda: self._continue(proc, pcb),
                              label=pcb.label_signal)

    def _run_program_step(self, proc, pcb: ProcessControlBlock) -> None:
        kernel = self.kernel
        txn = P3MemoryTxn(pcb.space)
        regs = dict(pcb.regs)
        ctx = P3StepContext(pid=pcb.pid, mem=txn, regs=regs)
        try:
            action = pcb.program.step(ctx)
        except PageFault as fault:
            kernel.page_fault(pcb, fault.page_no)
            self._release(proc, pcb)
            return
        txn.commit()
        pcb.regs = regs
        pcb.total_steps += 1
        pcb.ops_since_checkpoint += 1
        self._perform_action(proc, pcb, action)

    # -- action interpretation ----------------------------------------------

    def _perform_action(self, proc, pcb: ProcessControlBlock,
                        action: Any) -> None:
        kernel = self.kernel
        costs = kernel.config.costs

        if isinstance(action, Compute):
            self._charge(proc, pcb, action.cost, "user")
            kernel.sim.call_after(action.cost,
                                  lambda: self._continue(proc, pcb),
                                  label=pcb.label_compute)
            return

        if isinstance(action, Exit):
            kernel.exit_process(pcb, action.code)
            self._release(proc, pcb)
            return

        overhead = costs.syscall_overhead
        self._charge(proc, pcb, overhead, "syscall")

        if isinstance(action, (GetPid, ReadClock, Poll)):
            if isinstance(action, GetPid):
                pcb.regs["rv"] = pcb.pid
            elif isinstance(action, ReadClock):
                pcb.regs["rv"] = kernel.read_clock(pcb)
            else:
                pcb.regs["rv"] = kernel.poll_read(pcb, action.fd)
            kernel.sim.call_after(overhead,
                                  lambda: self._continue(proc, pcb),
                                  label=pcb.label_sys)
            return

        if isinstance(action, _P3_DEFERRED_SYSCALLS):
            kernel.sim.call_after(
                overhead,
                lambda: self._finish_syscall(proc, pcb, action),
                label=pcb.label_sys)
            return

        handler = kernel.action_handlers.get(type(action))
        if handler is None:
            raise P3SchedulerError(
                f"pid {pcb.pid}: unknown action {action!r}")
        try:
            cost, rv = handler(kernel, pcb, action)
        except DiskError as error:
            kernel.fatal_hardware(str(error))
            return
        pcb.regs["rv"] = rv
        if cost:
            self._charge(proc, pcb, cost, "privileged")
        kernel.sim.call_after(overhead + cost,
                              lambda: self._continue(proc, pcb),
                              label=pcb.label_priv)

    def _finish_syscall(self, proc, pcb: ProcessControlBlock,
                        action: Any) -> None:
        kernel = self.kernel
        if not kernel.alive:
            return
        if self._gone(pcb):
            self._release(proc, pcb)
            return
        if isinstance(action, Read):
            self._begin_block(proc, pcb, "read", (action.fd,))
        elif isinstance(action, Write):
            self._do_write(proc, pcb, action)
        elif isinstance(action, ReadAny):
            self._begin_block(proc, pcb, "read_any", tuple(action.fds))
        elif isinstance(action, Open):
            self._do_open(proc, pcb, action)
        elif isinstance(action, Close):
            self._do_close(proc, pcb, action)
        elif isinstance(action, Fork):
            self._do_fork(proc, pcb, action)
        elif isinstance(action, GetTime):
            self._do_gettime(proc, pcb)
        elif isinstance(action, Alarm):
            self._do_alarm(proc, pcb, action)
        else:  # Yield
            pcb.regs["rv"] = True
            self._requeue(proc, pcb)

    def _begin_block(self, proc, pcb: ProcessControlBlock,
                     kind: str, fds: tuple) -> None:
        pcb.block = BlockInfo(kind=kind, fds=fds,
                              since=self.kernel.sim.now)
        if self._resolve_block(proc, pcb):
            self._continue(proc, pcb)

    def _do_write(self, proc, pcb: ProcessControlBlock,
                  action: Write) -> None:
        kernel = self.kernel
        chan = pcb.channel_for_fd(action.fd)
        if chan is None:
            raise P3SchedulerError(f"pid {pcb.pid}: write on bad fd "
                                   f"{action.fd}")
        entry = kernel.routing.require(chan, pcb.pid)
        kernel.send_user_message(pcb, entry, action.payload,
                                 size=action.size_bytes)
        if action.await_reply:
            self._begin_block(proc, pcb, "reply", (action.fd,))
        else:
            pcb.regs["rv"] = True
            self._continue(proc, pcb)

    def _do_open(self, proc, pcb: ProcessControlBlock,
                 action: Open) -> None:
        from repro.messages.payloads import OpenRequest
        from repro.backup.modes import BackupMode

        kernel = self.kernel
        fs_fd = pcb.fs_channel_fd
        chan = pcb.channel_for_fd(fs_fd)
        entry = kernel.routing.require(chan, pcb.pid)
        opener_seq = pcb.regs.get("_open_seq", 0) + 1
        pcb.regs["_open_seq"] = opener_seq
        request = OpenRequest(
            name=action.name, opener_pid=pcb.pid,
            opener_cluster=kernel.cluster_id,
            opener_backup_cluster=pcb.backup_cluster,
            reply_channel=chan,
            opener_fullback=(pcb.backup_mode is BackupMode.FULLBACK),
            opener_seq=opener_seq)
        kernel.send_user_message(pcb, entry, request, size=64)
        self._begin_block(proc, pcb, "open", (fs_fd,))

    def _do_close(self, proc, pcb: ProcessControlBlock,
                  action: Close) -> None:
        kernel = self.kernel
        chan = pcb.channel_for_fd(action.fd)
        if chan is None:
            raise P3SchedulerError(f"pid {pcb.pid}: close on bad fd "
                                   f"{action.fd}")
        entry = kernel.routing.require(chan, pcb.pid)
        if entry.peer_kind is PeerKind.USER and entry.peer_pid is not None \
                and entry.status is EntryStatus.OPEN:
            kernel.send_user_message(pcb, entry, EOFMarker(pcb.pid),
                                     size=16)
        entry.status = EntryStatus.CLOSED
        pcb.closed_since_sync.append(chan)
        del pcb.fds[action.fd]
        pcb.regs["rv"] = True
        self._continue(proc, pcb)

    def _do_fork(self, proc, pcb: ProcessControlBlock,
                 action: Fork) -> None:
        child_pid = self.kernel.fork_child(pcb, action.child_program)
        pcb.regs["rv"] = child_pid
        self._continue(proc, pcb)

    def _do_gettime(self, proc, pcb: ProcessControlBlock) -> None:
        kernel = self.kernel
        chan = pcb.channel_for_fd(pcb.ps_channel_fd)
        entry = kernel.routing.require(chan, pcb.pid)
        kernel.send_user_message(pcb, entry, ("time",), size=16)
        self._begin_block(proc, pcb, "reply", (pcb.ps_channel_fd,))

    def _do_alarm(self, proc, pcb: ProcessControlBlock,
                  action: Alarm) -> None:
        seq = pcb.regs.get("_alarm_seq", 0) + 1
        pcb.regs["_alarm_seq"] = seq
        self.kernel.schedule_alarm(pcb, seq, action.delay)
        pcb.regs["rv"] = True
        self._continue(proc, pcb)

    # -- continuation / quantum ---------------------------------------------

    def _continue(self, proc, pcb: ProcessControlBlock) -> None:
        kernel = self.kernel
        if not kernel.alive:
            return
        if self._gone(pcb) or pcb.state is not ProcState.RUNNING:
            self._release(proc, pcb)
            return
        if kernel.crash_handling:
            self._requeue(proc, pcb)
            return
        if pcb.quantum_used >= kernel.config.costs.quantum \
                and self.has_ready():
            self._requeue(proc, pcb)
            return
        self._step(proc, pcb)

    def _requeue(self, proc, pcb: ProcessControlBlock) -> None:
        pcb.state = ProcState.READY
        queue = self._ready_high if pcb.is_server else self._ready_normal
        queue.append(pcb.pid)
        self._release(proc, pcb)


# -- kernel hot paths --------------------------------------------------------


def _p3_make_cluster_kernel():
    """Build the PR 3 kernel class lazily (avoids importing repro at
    module-import time, matching the rest of this file's pattern).

    Only the per-step / per-read hot methods this PR touched are pinned;
    everything else is inherited, since it is identical in both engines.
    """
    from dataclasses import dataclass, field
    from typing import Any, Optional, Tuple

    from repro.kernel.kernel import ClusterKernel, KernelError
    from repro.messages.message import Delivery, DeliveryRole
    from repro.messages.payloads import OpenReply, PageReply, SignalPayload
    from repro.types import ChannelId, ClusterId, Pid

    # The PR 3 message objects were frozen dataclasses (per-field
    # object.__setattr__ construction); pinned here so the baseline pays
    # the construction cost the live slotted classes removed.

    @dataclass(frozen=True)
    class P3Delivery:
        cluster_id: ClusterId
        role: DeliveryRole
        pid: Optional[Pid] = None
        channel_id: Optional[ChannelId] = None

    @dataclass(frozen=True)
    class P3Message:
        msg_id: int
        kind: Any
        src_pid: Optional[Pid]
        dst_pid: Optional[Pid]
        channel_id: Optional[ChannelId]
        payload: Any
        size_bytes: int
        deliveries: Tuple[Any, ...]
        src_cluster: Optional[ClusterId] = None
        src_backup_cluster: Optional[ClusterId] = None
        nondet_events: Tuple[Any, ...] = ()

        def target_clusters(self):
            seen = {}
            for delivery in self.deliveries:
                seen.setdefault(delivery.cluster_id, None)
            return tuple(seen.keys())

        def deliveries_for(self, cluster_id):
            return tuple(d for d in self.deliveries
                         if d.cluster_id == cluster_id)

        def describe(self):
            return (f"{self.kind.value}#{self.msg_id} "
                    f"{self.src_pid}->{self.dst_pid} chan={self.channel_id}")

    @dataclass
    class P3QueuedMessage:
        message: Any
        arrival_seqno: int
        arrival_time: int = field(default=0)

    class P3ClusterKernel(ClusterKernel):
        def check_signals(self, pcb):
            entry = self.routing.get(pcb.signal_channel, pcb.pid)
            if entry is None:
                return None
            handled = getattr(pcb.program, "handled_signals", ())
            while entry.queue:
                payload = entry.queue[0].message.payload
                if not isinstance(payload, SignalPayload):
                    entry.queue.pop(0)
                    continue
                seen = pcb.regs.get("_sig_seen", 0)
                if payload.seq <= seen or payload.signal not in handled:
                    entry.queue.pop(0)
                    entry.reads_since_sync += 1
                    entry.changed_since_sync = True
                    pcb.reads_since_sync += 1
                    self.metrics.incr("signal.ignored")
                    continue
                return payload
            return None

        def try_consume(self, pcb, fds):
            if not fds:
                fds = tuple(sorted(pcb.fds))
            best = None
            for fd in fds:
                chan = pcb.channel_for_fd(fd)
                if chan is None:
                    raise KernelError(f"pid {pcb.pid}: bad fd {fd}")
                entry = self.routing.get(chan, pcb.pid)
                if entry is None or not entry.queue:
                    continue
                seqno = entry.queue[0].arrival_seqno
                if best is None or seqno < best[0]:
                    best = (seqno, fd, entry)
            if best is None:
                return None
            _, fd, entry = best
            queued = entry.queue.pop(0)
            if entry.overflow:
                entry.queue.append(entry.overflow.pop(0))
                self.metrics.incr("inbox.resumed")
            entry.reads_since_sync += 1
            entry.changed_since_sync = True
            pcb.reads_since_sync += 1
            self.metrics.incr("msg.reads")
            self.metrics.record_hist("latency.queue_wait",
                                     self.sim.now - queued.arrival_time)
            return fd, queued.message.payload

        def _build_channel_message(self, pcb, entry, payload, size, kind):
            if entry.peer_cluster is None or entry.peer_pid is None:
                raise KernelError(
                    f"channel {entry.channel_id} has no routable peer")
            deliveries = [
                P3Delivery(entry.peer_cluster, DeliveryRole.PRIMARY_DEST,
                           entry.peer_pid, entry.channel_id)]
            if entry.peer_backup_cluster is not None:
                deliveries.append(
                    P3Delivery(entry.peer_backup_cluster,
                               DeliveryRole.DEST_BACKUP,
                               entry.peer_pid, entry.channel_id))
            nondet = ()
            if pcb.backup_cluster is not None and not entry.kernel_internal:
                deliveries.append(
                    P3Delivery(pcb.backup_cluster,
                               DeliveryRole.SENDER_BACKUP,
                               pcb.pid, entry.channel_id))
                buffer = self.nondet_buffers.get(pcb.pid)
                if buffer is not None:
                    nondet = buffer.take_for_piggyback()
            return P3Message(
                msg_id=self.next_msg_id(), kind=kind, src_pid=pcb.pid,
                dst_pid=entry.peer_pid, channel_id=entry.channel_id,
                payload=payload,
                size_bytes=(size if size is not None
                            else self.config.default_message_bytes),
                deliveries=tuple(deliveries), src_cluster=self.cluster_id,
                src_backup_cluster=pcb.backup_cluster, nondet_events=nondet)

        def handle_delivery(self, message, delivery, seqno):
            if not self.alive:
                return
            role = delivery.role
            if role is DeliveryRole.PRIMARY_DEST:
                self._deliver_primary(message, delivery, seqno)
            elif role is DeliveryRole.DEST_BACKUP:
                self._deliver_dest_backup(message, delivery, seqno)
            elif role is DeliveryRole.SENDER_BACKUP:
                self._deliver_sender_backup(message, delivery)
            elif role is DeliveryRole.KERNEL:
                self._deliver_kernel(message, delivery)

        def _deliver_primary(self, message, delivery, seqno):
            payload = message.payload
            if isinstance(payload, PageReply):
                self._handle_page_reply(payload)
                return
            entry = self.routing.get(message.channel_id, delivery.pid)
            if isinstance(payload, OpenReply) and payload.error is None:
                self._ensure_open_reply_entry(payload, delivery.pid,
                                              is_backup=False)
            if entry is None:
                entry = self._lazy_server_entry(message, delivery,
                                                is_backup=False)
            if entry is None:
                self.metrics.incr("msg.dropped_no_entry")
                self.trace.emit(self.sim.now, "msg.drop",
                                cluster=self.cluster_id,
                                msg=message.describe())
                return
            pcb = self.pcbs.get(delivery.pid)
            is_server = (delivery.pid in self.server_registry
                         or (pcb is not None and pcb.is_server))
            if self.resilience is not None \
                    and self.resilience.check_duplicate(self, message,
                                                        delivery):
                return
            queued = P3QueuedMessage(message=message, arrival_seqno=seqno,
                                     arrival_time=self.sim.now)
            limit = self.config.server_inbox_limit
            if limit is not None and is_server \
                    and not entry.kernel_internal \
                    and (len(entry.queue) >= limit if self.resilience is None
                         else self.resilience.inbox_full(self, entry, limit)):
                if self.config.server_inbox_policy == "shed":
                    self.metrics.incr("inbox.shed")
                    if self.resilience is not None:
                        self.resilience.on_shed(self, message, delivery)
                    return
                entry.overflow.append(queued)
                self.metrics.incr("inbox.deferred")
                self.metrics.record_hist("queue.overflow_depth",
                                         len(entry.overflow))
                return
            entry.queue.append(queued)
            if self.resilience is not None:
                self.resilience.note_accepted(self, message, delivery)
            self.metrics.incr("msg.delivered_primary")
            self.metrics.record_hist(
                "queue.depth.server" if is_server else "queue.depth.user",
                len(entry.queue))
            if pcb is not None:
                self._maybe_wake(pcb, entry)

        def _deliver_dest_backup(self, message, delivery, seqno):
            if self.config.ablate_dest_backup_save:
                self.metrics.incr("ablation.backup_copies_dropped")
                return
            payload = message.payload
            if isinstance(payload, OpenReply) and payload.error is None:
                self._ensure_open_reply_entry(payload, delivery.pid,
                                              is_backup=True)
            entry = self.routing.get(message.channel_id, delivery.pid)
            if entry is None:
                entry = self._lazy_server_entry(message, delivery,
                                                is_backup=True)
            if entry is None:
                self.metrics.incr("msg.dropped_no_backup_entry")
                return
            entry.queue.append(P3QueuedMessage(message=message,
                                               arrival_seqno=seqno,
                                               arrival_time=self.sim.now))
            self.metrics.incr("msg.delivered_backup")
            pcb = self.pcbs.get(delivery.pid)
            if pcb is not None:
                self._maybe_wake(pcb, entry)

        def _maybe_wake(self, pcb, entry):
            if pcb.block is None:
                return
            if pcb.block.kind in ("read", "read_any", "reply", "open"):
                if not pcb.block.fds:
                    if entry.fd is not None:
                        self.wake_process(pcb)
                    return
                for fd in pcb.block.fds:
                    if pcb.channel_for_fd(fd) == entry.channel_id:
                        self.wake_process(pcb)
                        return

    return P3ClusterKernel


# -- the swap ----------------------------------------------------------------


@contextmanager
def p3_engine():
    """Swap the full PR 3 engine into the machine construction path.

    Machines *built* inside the block run on the PR 3 engine for their
    whole lifetime; the swap only affects construction.
    """
    import repro.core.machine as machine_mod
    import repro.kernel.kernel as kernel_mod
    import repro.kernel.scheduler as scheduler_mod

    saved_core = (machine_mod.Simulator, machine_mod.TraceLog,
                  machine_mod.MetricSet)
    saved_machine = (machine_mod.InterclusterBus, machine_mod.Cluster)
    saved_sched = scheduler_mod.Scheduler
    saved_txn = kernel_mod.MemoryTxn
    saved_kernel = machine_mod.ClusterKernel
    machine_mod.Simulator = P3Simulator
    machine_mod.TraceLog = P3TraceLog
    machine_mod.MetricSet = P3MetricSet
    machine_mod.InterclusterBus = P3InterclusterBus
    machine_mod.Cluster = P3Cluster
    machine_mod.ClusterKernel = _p3_make_cluster_kernel()
    scheduler_mod.Scheduler = P3Scheduler
    kernel_mod.MemoryTxn = P3MemoryTxn
    try:
        yield
    finally:
        (machine_mod.Simulator, machine_mod.TraceLog,
         machine_mod.MetricSet) = saved_core
        (machine_mod.InterclusterBus, machine_mod.Cluster) = saved_machine
        machine_mod.ClusterKernel = saved_kernel
        scheduler_mod.Scheduler = saved_sched
        kernel_mod.MemoryTxn = saved_txn
