"""Alternative event-queue structures, kept as a benchmark subject.

The simulator runs on one queue, the binary heap in
:mod:`repro.sim.events`.  The two structures here were once selectable
backends for it and lost to the heap on every measured shape (see
docs/performance.md, "What we tried and what it measured"); they stay
only because ``perfbench/probes.py`` times all three through
:func:`make_queue` on the classic hold model.  This module goes when
those probes go.

``heap``
    :class:`~repro.sim.events.EventHeap`: C-level ``heapq`` on tuple
    keys, and the reference the other two are held to.
``calendar``
    A calendar queue (Brown, CACM 1988): events bucketed by virtual-time
    "day", O(1) insert into a short per-day list, pop from the earliest
    non-empty day.
``ladder``
    A ladder queue (Tang et al., TOMACS 2005): an unsorted far-future
    *top* band, recursively split *rungs*, and a small sorted *bottom*;
    sorting effort is deferred until events are near due.

The contract, enforced by the differential test in
``tests/test_sim_events_model.py``, is the heap's exact pop order —
including ``(time, priority, seq)`` tie-breaking — and its
lazy-cancellation live-count accounting on ``pop`` and ``peek_time``.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from .events import Event, EventHeap, SchedulingError

#: Queue entries: comparison key inline, event last.
_Entry = Tuple[int, int, int, Event]


class EventQueue(Protocol):
    """What the hold-model probe and the differential test use of a
    queue: the :class:`~repro.sim.events.EventHeap` push/pop surface."""

    def __len__(self) -> int: ...

    def push(self, time: int, action: Callable[..., None],
             priority: int = 0, label: str = "",
             args: tuple = ()) -> Event: ...

    def pop(self) -> Optional[Event]: ...

    def peek_time(self) -> Optional[int]: ...


class _QueueBase:
    """The heap's surface over two primitives: ``_head`` (peek the
    minimum entry or ``None``) and ``_pop_head`` (remove it).

    Subclasses provide ``_insert(entry)`` plus those two; seq
    assignment, live counting and lazy discard live here.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._live = 0

    # subclasses implement:
    def _insert(self, entry: _Entry) -> None:  # pragma: no cover
        raise NotImplementedError

    def _head(self) -> Optional[_Entry]:  # pragma: no cover
        raise NotImplementedError

    def _pop_head(self) -> _Entry:  # pragma: no cover
        raise NotImplementedError

    def __len__(self) -> int:
        return self._live

    def push(self, time: int, action: Callable[..., None],
             priority: int = 0, label: str = "", args: tuple = ()) -> Event:
        if time < 0:
            raise SchedulingError(f"event time must be >= 0, got {time}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        event = Event(time, priority, seq, action, label, False, args)
        self._insert((time, priority, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        while True:
            entry = self._head()
            if entry is None:
                return None
            self._pop_head()
            self._live -= 1
            if not entry[3].cancelled:
                return entry[3]

    def peek_time(self) -> Optional[int]:
        while True:
            entry = self._head()
            if entry is None:
                return None
            if entry[3].cancelled:
                self._pop_head()
                self._live -= 1
                continue
            return entry[0]


class CalendarQueue(_QueueBase):
    """A day-bucketed calendar queue.

    Virtual time is divided into fixed-width *days*; each day owns a
    sorted list of entries, and a small heap of day indices finds the
    earliest non-empty day.  Insert costs one ``insort`` into a short
    per-day list (O(1) when ``day_width`` matches the schedule density);
    pops walk the current day front-to-back, so a run of same-time
    events drains from one contiguous list.

    Unlike Brown's original, days are allocated lazily in a dict rather
    than a fixed modular array, so no resize heuristics are needed and
    sparse schedules don't pay for empty buckets.
    """

    def __init__(self, day_width: int = 64) -> None:
        super().__init__()
        if day_width < 1:
            raise SchedulingError(
                f"day_width must be >= 1, got {day_width}")
        self._day_width = day_width
        self._buckets: Dict[int, List[_Entry]] = {}
        self._days: List[int] = []          # min-heap of day indices

    def _insert(self, entry: _Entry) -> None:
        day = entry[0] // self._day_width
        bucket = self._buckets.get(day)
        if bucket is None:
            self._buckets[day] = [entry]
            heappush(self._days, day)
        else:
            insort(bucket, entry)

    def _head(self) -> Optional[_Entry]:
        days = self._days
        buckets = self._buckets
        while days:
            day = days[0]
            bucket = buckets.get(day)
            if bucket:
                return bucket[0]
            # Day exhausted: drop the index and any empty bucket shell.
            heappop(days)
            buckets.pop(day, None)
        return None

    def _pop_head(self) -> _Entry:
        day = self._days[0]
        bucket = self._buckets[day]
        entry = bucket.pop(0)
        if not bucket:
            del self._buckets[day]
            heappop(self._days)
        return entry


class _Rung:
    """One rung of the ladder: a span of virtual time cut into
    equal-width buckets, consumed front to back."""

    __slots__ = ("start", "width", "buckets", "cur")

    def __init__(self, start: int, width: int, n_buckets: int) -> None:
        self.start = start
        self.width = width
        self.buckets: List[List[_Entry]] = [[] for _ in range(n_buckets)]
        self.cur = 0

    @property
    def cur_start(self) -> int:
        """Lowest time still insertable into this rung."""
        return self.start + self.cur * self.width

    @property
    def end(self) -> int:
        return self.start + len(self.buckets) * self.width

    def add(self, entry: _Entry) -> None:
        self.buckets[(entry[0] - self.start) // self.width].append(entry)

    def next_nonempty_bucket(self) -> Optional[List[_Entry]]:
        """Detach and return the next non-empty bucket, advancing the
        consumption cursor past it; ``None`` when the rung is spent."""
        buckets = self.buckets
        n = len(buckets)
        cur = self.cur
        while cur < n and not buckets[cur]:
            cur += 1
        if cur == n:
            self.cur = n
            return None
        bucket = buckets[cur]
        buckets[cur] = []
        self.cur = cur + 1
        return bucket


class LadderQueue(_QueueBase):
    """A ladder queue: unsorted *top*, splitting *rungs*, sorted *bottom*.

    Far-future events append unsorted to the top band in O(1).  When the
    sorted bottom runs dry, the nearest unsorted material (a rung bucket,
    or the whole top) is either sorted into a fresh bottom — when it is
    small — or split into a finer rung, deferring the sort until those
    events are nearly due.  Events cancelled while parked in the top or
    a rung are discarded during a later lazy scan without ever being
    sorted, which is the structure's advantage on timeout-heavy
    schedules.

    The structures tile virtual time in order — bottom < rungs (finest
    to coarsest remaining span) < top — so an insert lands in the first
    band whose remaining range covers its timestamp; anything earlier
    than every band goes into the sorted bottom directly.
    """

    def __init__(self, bottom_threshold: int = 32) -> None:
        super().__init__()
        if bottom_threshold < 1:
            raise SchedulingError(
                f"bottom_threshold must be >= 1, got {bottom_threshold}")
        self._threshold = bottom_threshold
        self._bottom: List[_Entry] = []
        self._rungs: List[_Rung] = []       # [0] coarsest … [-1] finest
        self._top: List[_Entry] = []
        self._top_start = 0                 # top covers [_top_start, inf)
        self._top_max = -1

    def _insert(self, entry: _Entry) -> None:
        time = entry[0]
        if time >= self._top_start:
            self._top.append(entry)
            if time > self._top_max:
                self._top_max = time
            return
        for rung in reversed(self._rungs):   # finest (nearest) first
            if rung.cur_start <= time < rung.end:
                rung.add(entry)
                return
        insort(self._bottom, entry)

    def _spawn_rung(self, entries: List[_Entry], lo: int,
                    hi: int) -> bool:
        """Split ``entries`` (all with times in ``[lo, hi)``) into a new
        finest rung covering that *entire* span; ``False`` when the span
        is a single tick or every entry shares one timestamp (sorting
        directly is then both cheap and safe).

        Covering the full source span — not just ``[min(entries),
        max(entries)]`` — is a correctness requirement, not a tidiness
        one: the bands must tile virtual time contiguously (bottom <
        rungs < top) so a later push always lands in the band that
        drains at its position.  A gap between a rung's top edge and its
        parent's next bucket would send gap-timed pushes into the sorted
        bottom *ahead of* earlier events still parked in the rung.
        """
        span = hi - lo
        if span <= 1:
            return False
        first = entries[0][0]
        if all(entry[0] == first for entry in entries):
            return False
        width = (span - 1) // len(entries) + 1
        rung = _Rung(lo, width, (span - 1) // width + 1)
        for entry in entries:
            rung.add(entry)
        self._rungs.append(rung)
        return True

    def _ensure_bottom(self) -> None:
        while not self._bottom:
            if self._rungs:
                rung = self._rungs[-1]
                bucket = rung.next_nonempty_bucket()
                if bucket is None:
                    self._rungs.pop()
                    continue
                # The detached bucket sat at index cur-1: recover its span
                # so a spawned child rung tiles it exactly.
                b_start = rung.start + (rung.cur - 1) * rung.width
                if len(bucket) > self._threshold \
                        and self._spawn_rung(bucket, b_start,
                                             b_start + rung.width):
                    continue
                bucket.sort()
                self._bottom = bucket
                continue
            if self._top:
                top, self._top = self._top, []
                lo = min(entry[0] for entry in top)
                self._top_start = self._top_max + 1
                if len(top) > self._threshold \
                        and self._spawn_rung(top, lo, self._top_start):
                    continue
                top.sort()
                self._bottom = top
                continue
            return

    def _head(self) -> Optional[_Entry]:
        self._ensure_bottom()
        bottom = self._bottom
        return bottom[0] if bottom else None

    def _pop_head(self) -> _Entry:
        return self._bottom.pop(0)


#: name -> queue class, for the hold-model probe.
QUEUES: Dict[str, Callable[[], EventQueue]] = {
    "heap": EventHeap,
    "calendar": CalendarQueue,
    "ladder": LadderQueue,
}


def make_queue(name: str) -> EventQueue:
    """A fresh, empty queue of the named structure."""
    return QUEUES[name]()
