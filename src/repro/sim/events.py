"""Event primitives for the discrete-event simulator.

The simulator is the substrate everything else in :mod:`repro` runs on: the
intercluster bus, the per-cluster kernels, processors, disks, and failure
injection are all expressed as events on a single global heap.

Determinism is a hard requirement of the reproduction (paper section 4: if
two processes start in the identical state and receive identical input they
behave identically).  Two design rules enforce it here:

* Events are totally ordered by ``(time, priority, seq)`` where ``seq`` is a
  monotonically increasing insertion counter.  Ties in virtual time are
  therefore broken deterministically by scheduling order, never by object
  identity or hash order.
* Virtual time is an integer number of *ticks* (we interpret one tick as a
  microsecond throughout), so there is no floating-point drift.

Performance: the heap stores plain ``(time, priority, seq, handle, fn,
args)`` tuples so every sift comparison is a C-level tuple compare —
``seq`` is unique, so two entries never tie and nothing after it is ever
compared during heap maintenance.  ``Event`` uses ``__slots__`` and a
hand-written ``__init__``; at millions of events per run the dataclass
machinery it replaced was a measurable fraction of total wall-clock
(see ``docs/performance.md``).

Two kinds of entry share that layout.  A *cancellable* one
(:meth:`EventHeap.push`) carries the :class:`Event` handed back to the
caller in the handle slot.  A *posted* one (:meth:`EventHeap.post`) is
fire-and-forget: nobody holds a handle, so none is allocated and the
slot holds the shared, never-cancelled :data:`POSTED` sentinel.  Both
draw ``seq`` from the same counter, so which kind an entry is never
changes where it sorts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple, Union


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class SchedulingError(SimulationError):
    """Raised for invalid scheduling requests (negative delay, dead event)."""


class Event:
    """A scheduled callback.

    Events order by ``(time, priority, seq)``; the callback itself is
    excluded from comparison.  Lower ``priority`` fires first among events
    scheduled for the same tick.
    """

    __slots__ = ("time", "priority", "seq", "action", "label", "cancelled",
                 "args")

    def __init__(self, time: int, priority: int, seq: int,
                 action: Callable[..., None], label: str = "",
                 cancelled: bool = False, args: tuple = ()) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled
        #: Positional arguments the loop passes to ``action``.
        self.args = args

    def cancel(self) -> None:
        """Mark the event so the event loop skips it when popped."""
        self.cancelled = True

    # Events rarely meet a comparison in the fast path (the heap compares
    # key tuples), but the ordering contract remains part of the API.

    def _key(self) -> Tuple[int, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Event") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Event") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Event") -> bool:
        return self._key() >= other._key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time}, prio={self.priority}, "
                f"seq={self.seq}, label={self.label!r}{state})")


class _Posted:
    """Handle-slot stand-in of a posted entry: shared and never cancelled,
    so every ``entry[3].cancelled`` scan reads ``False`` without a branch
    on the entry's kind."""

    __slots__ = ()
    cancelled = False


#: The one :class:`_Posted` instance.
POSTED = _Posted()

#: One heap entry: the comparison key inline, then the handle (an
#: :class:`Event` or :data:`POSTED`), the bare callback and its
#: arguments.  ``seq`` is unique, so the trailing elements never meet a
#: comparison; carrying the callback in the entry saves the per-dispatch
#: attribute load on the event loop's hot path.
_Entry = Tuple[int, int, int, Union[Event, _Posted], Callable[..., None],
               tuple]


def _event_of(entry: _Entry) -> Event:
    """The :class:`Event` a popped entry stands for.  A posted entry has
    none until somebody asks (the pop API), so one is built here from the
    entry's own key."""
    handle = entry[3]
    if handle is POSTED:
        return Event(entry[0], entry[1], entry[2], entry[4], args=entry[5])
    return handle


class EventHeap:
    """A deterministic min-heap of scheduled calls.

    :meth:`push` returns a cancellable :class:`Event`; :meth:`post`
    stores the call with no handle.  The simulator's event loop drains
    the entry list directly; :meth:`pop` hands out ``Event`` objects for
    both kinds (built on demand for posted entries), to be dispatched as
    ``event.action(*event.args)``.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def clear(self) -> None:
        """Drop every pending entry, in place (``seq`` keeps counting)."""
        self._heap.clear()
        self._live = 0

    def push(self, time: int, action: Callable[..., None], priority: int = 0,
             label: str = "", args: tuple = ()) -> Event:
        """Schedule ``action(*args)`` at absolute virtual ``time`` and
        return the (cancellable) event."""
        if time < 0:
            raise SchedulingError(f"event time must be >= 0, got {time}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        event = Event(time, priority, seq, action, label, False, args)
        heappush(self._heap, (time, priority, seq, event, action, args))
        return event

    def post(self, time: int, fn: Callable[..., None],
             args: tuple = ()) -> None:
        """Schedule ``fn(*args)`` at absolute virtual ``time``, priority
        0, with no handle: the same key and live-count accounting as
        :meth:`push`, minus the :class:`Event` nobody would keep."""
        if time < 0:
            raise SchedulingError(f"event time must be >= 0, got {time}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (time, 0, seq, POSTED, fn, args))

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty.

        Cancelled events are discarded lazily here rather than eagerly
        removed from the heap, keeping :meth:`Event.cancel` O(1).
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            self._live -= 1
            if entry[3].cancelled:
                continue
            return _event_of(entry)
        return None

    def peek_time(self) -> Optional[int]:
        """Return the virtual time of the next live event without popping it.

        Cancelled events discarded here must decrement the unpopped count
        exactly as :meth:`pop` does — otherwise ``len(heap)`` reports
        phantom events after a peek past a cancelled head, and callers
        like ``Simulator.run_until_idle`` see a non-zero ``pending()``
        with nothing left to run.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._live -= 1
        if not heap:
            return None
        return heap[0][0]
