"""Randomized differential tests against naive models.

Queue level: the event heap (tuple keys, lazy cancellation) and the two
structures :mod:`repro.sim.queues` keeps for the hold-model probe —
calendar queue, ladder queue — must all behave exactly like the
obviously correct structure they optimize: a list of events kept sorted
by ``(time, priority, seq)`` with cancelled entries skipped on pop.  A
seeded random schedule of pushes, cancels, pops and peeks is driven
through the queue and the model in lockstep; any divergence in returned
events, reported sizes or peeked times fails.

Two schedule shapes run against every queue: a spread schedule (times
drawn from a wide window) and a heavy-ties schedule (times drawn from a
handful of values, so long same-timestamp runs are the norm).  Queue
parameters are pushed to degenerate extremes (one-tick calendar days, a
ladder bottom of one) to force the structural machinery — day turnover,
rung splitting — rather than letting everything sit in one bucket.

This guards the two historical bug classes in this structure: phantom
live-counts from lazy cancellation and double-discard drift between
``peek_time`` and ``pop``.

Simulator level: the scheduling API (``post`` / ``call_at`` /
``call_after`` / cancel / bounded ``run``) against a sorted-list model.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

import pytest

from repro.sim import Simulator
from repro.sim.events import Event, EventHeap, SchedulingError
from repro.sim.queues import CalendarQueue, LadderQueue, make_queue


class ReferenceHeap:
    """The trivially correct model: a sorted list, linear everything.

    Mirrors the real backends' *lazy* cancellation contract: cancelled
    events stay counted until a pop/peek scan reaches them at the front,
    which is exactly when the real structures discard them (keys are
    unique, so every backend's pop order equals this list's sorted
    order)."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def push(self, time: int, priority: int = 0, label: str = "") -> Event:
        event = Event(time, priority, self._seq, action=lambda: None,
                      label=label)
        self._seq += 1
        self._events.append(event)
        self._events.sort(key=lambda e: (e.time, e.priority, e.seq))
        return event

    def pop(self) -> Optional[Event]:
        while self._events:
            event = self._events.pop(0)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[int]:
        while self._events and self._events[0].cancelled:
            self._events.pop(0)
        if not self._events:
            return None
        return self._events[0].time


def key(event: Optional[Event]) -> Optional[Tuple[int, int, int]]:
    if event is None:
        return None
    return (event.time, event.priority, event.seq)


#: Every queue shape under test.  Degenerate parameters (one-tick
#: days, a one-event ladder bottom) force maximum structural churn.
BACKENDS: List[Tuple[str, Callable[[], object]]] = [
    ("heap", EventHeap),
    ("calendar", CalendarQueue),
    ("calendar-w1", lambda: CalendarQueue(day_width=1)),
    ("calendar-w7", lambda: CalendarQueue(day_width=7)),
    ("ladder", LadderQueue),
    ("ladder-b1", lambda: LadderQueue(bottom_threshold=1)),
    ("ladder-b4", lambda: LadderQueue(bottom_threshold=4)),
]


def _drive(queue, seed: int, tie_heavy: bool) -> None:
    rng = random.Random(seed)
    model = ReferenceHeap()
    live_pairs: List[Tuple[Event, Event]] = []  # (queue event, model event)
    clock = 0

    def push_time() -> int:
        if tie_heavy:
            # A handful of hot timestamps: long same-time runs are the norm.
            return clock + rng.choice((0, 0, 0, 1, 1, 7, 7, 7, 30))
        return clock + rng.randrange(0, 50)

    for _ in range(600):
        op = rng.random()
        if op < 0.45:
            time = push_time()
            priority = rng.choice((0, 0, 0, 1, 5, -3))
            actual = queue.push(time, lambda: None, priority=priority)
            expected = model.push(time, priority=priority)
            assert key(actual) == key(expected)
            live_pairs.append((actual, expected))
        elif op < 0.60 and live_pairs:
            actual, expected = live_pairs.pop(
                rng.randrange(len(live_pairs)))
            actual.cancel()
            expected.cancel()
        elif op < 0.72:
            assert queue.peek_time() == model.peek_time()
        else:
            actual = queue.pop()
            expected = model.pop()
            assert key(actual) == key(expected)
            if actual is not None:
                clock = max(clock, actual.time)
        assert len(queue) == len(model)

    # Drain both completely; the full remaining order must agree.
    while True:
        actual = queue.pop()
        expected = model.pop()
        assert key(actual) == key(expected)
        if actual is None:
            break
    assert len(queue) == len(model) == 0


@pytest.mark.parametrize("backend", [name for name, _ in BACKENDS])
@pytest.mark.parametrize("seed", range(8))
def test_backend_matches_reference_model(backend: str, seed: int) -> None:
    factory = dict(BACKENDS)[backend]
    _drive(factory(), seed, tie_heavy=False)


@pytest.mark.parametrize("backend", [name for name, _ in BACKENDS])
@pytest.mark.parametrize("seed", range(8))
def test_backend_matches_reference_under_heavy_ties(backend: str,
                                                    seed: int) -> None:
    factory = dict(BACKENDS)[backend]
    _drive(factory(), seed, tie_heavy=True)


def test_push_rejects_negative_time() -> None:
    for _, factory in BACKENDS:
        with pytest.raises(SchedulingError):
            factory().push(-1, lambda: None)


def test_make_queue_resolves_names() -> None:
    assert isinstance(make_queue("heap"), EventHeap)
    assert isinstance(make_queue("calendar"), CalendarQueue)
    assert isinstance(make_queue("ladder"), LadderQueue)
    with pytest.raises(KeyError):
        make_queue("lader")


def test_cancelled_run_is_all_lazy_discard() -> None:
    """Cancelling every event must drain to empty without phantom counts."""
    for _, factory in BACKENDS:
        queue = factory()
        events = [queue.push(t, lambda: None) for t in range(20)]
        for event in events:
            event.cancel()
        # Cancellation is lazy: entries stay counted until a scan reaches
        # them.
        assert len(queue) == 20
        assert queue.peek_time() is None  # the scan discards every entry
        assert len(queue) == 0
        assert queue.pop() is None


# -- Simulator-level model: post / call_at / call_after / cancel / run -------
#
# The queue-level model above holds the queues to one pop order.  This
# one holds the *scheduling API* to it: ``post`` entries carry no handle,
# ``call_at`` / ``call_after`` entries do, and a run must dispatch both in
# one ``(time, priority, seq)`` order with the same lazy-cancellation
# accounting.


class _ModelHandle:
    def __init__(self, time: int, priority: int, seq: int, fn, args) -> None:
        self.key = (time, priority, seq)
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ModelSimulator:
    """The scheduling API over a sorted list: every entry is the same
    kind of object, ``post`` merely declines to hand it out."""

    def __init__(self) -> None:
        self.now = 0
        self.events_executed = 0
        self._entries: List[_ModelHandle] = []
        self._seq = 0

    def pending(self) -> int:
        return len(self._entries)

    def _push(self, time: int, priority: int, fn, args) -> _ModelHandle:
        entry = _ModelHandle(time, priority, self._seq, fn, args)
        self._seq += 1
        self._entries.append(entry)
        self._entries.sort(key=lambda e: e.key)
        return entry

    def call_at(self, time: int, action, priority: int = 0) -> _ModelHandle:
        if time < self.now:
            raise SchedulingError("past")
        return self._push(time, priority, action, ())

    def call_after(self, delay: int, action,
                   priority: int = 0) -> _ModelHandle:
        if delay < 0:
            raise SchedulingError("negative")
        return self._push(self.now + delay, priority, action, ())

    def post(self, delay: int, fn, args: tuple = ()) -> None:
        if delay < 0:
            raise SchedulingError("negative")
        self._push(self.now + delay, 0, fn, args)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        entries = self._entries
        executed = 0
        while max_events is None or executed < max_events:
            while entries and entries[0].cancelled:
                entries.pop(0)      # lazy discard, even beyond ``until``
            if not entries:
                break
            if until is not None and entries[0].key[0] > until:
                break
            entry = entries.pop(0)
            self.now = entry.key[0]
            executed += 1
            entry.fn(*entry.args)
        self.events_executed += executed
        if until is not None and self.now < until:
            self.now = until
        return self.now


def _drive_simulator(sim, seed: int) -> Tuple[list, list]:
    """Run one seeded script against ``sim`` (real or model).  Returns the
    dispatch log and a checkpoint after every top-level operation."""
    rng = random.Random(seed)
    log: List[Tuple[int, int]] = []
    checkpoints: List[Tuple[int, int, int, int]] = []
    handles: dict = {}          # tag -> cancellable handle, still of interest
    tags = iter(range(10**9))

    def schedule(inner: random.Random) -> None:
        tag = next(tags)
        kind = inner.choice(("post", "post", "call_after", "call_at"))
        # Delay 0 from inside an action is the same-tick case.
        delay = inner.choice((0, 0, 1, 1, 3, 10, 40))
        priority = inner.choice((0, 0, 0, 1, -2))
        if kind == "post":
            sim.post(delay, fire, (tag,))
        elif kind == "call_after":
            handles[tag] = sim.call_after(delay, lambda: fire(tag),
                                          priority=priority)
        else:
            handles[tag] = sim.call_at(sim.now + delay, lambda: fire(tag),
                                       priority=priority)

    def cancel_one(inner: random.Random) -> None:
        if handles:
            handles.pop(inner.choice(sorted(handles))).cancel()

    def fire(tag: int) -> None:
        log.append((sim.now, tag))
        handles.pop(tag, None)
        inner = random.Random(seed * 1_000_003 + tag)
        if tag < 900:           # bounds the cascade
            for _ in range(inner.choice((0, 0, 1, 1, 2))):
                schedule(inner)
        if inner.random() < 0.25:
            cancel_one(inner)

    for _ in range(160):
        op = rng.random()
        if op < 0.45:
            schedule(rng)
        elif op < 0.60:
            cancel_one(rng)
        else:
            until = None if rng.random() < 0.3 else sim.now + rng.randrange(30)
            limit = None if rng.random() < 0.4 else rng.randrange(1, 6)
            sim.run(until=until, max_events=limit)
        checkpoints.append((len(log), sim.pending(), sim.events_executed,
                            sim.now))
    sim.run()
    checkpoints.append((len(log), sim.pending(), sim.events_executed,
                        sim.now))
    return log, checkpoints


@pytest.mark.parametrize("seed", range(12))
def test_simulator_scheduling_matches_reference_model(seed: int) -> None:
    expected_log, expected_checkpoints = _drive_simulator(ModelSimulator(),
                                                          seed)
    sim = Simulator()
    log, checkpoints = _drive_simulator(sim, seed)
    assert log == expected_log
    assert checkpoints == expected_checkpoints
    assert len(log) > 50 and sim.pending() == 0


def test_post_rejects_negative_delay() -> None:
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.post(-1, lambda: None)
    assert sim.pending() == 0


def test_cancelled_neighbours_of_posted_entries_count_exactly() -> None:
    """A posted entry has no ``cancelled`` flag of its own; the scans that
    discard its cancelled neighbours must neither skip it nor miscount."""
    sim = Simulator()
    order: List[str] = []
    early = sim.call_after(3, lambda: order.append("early"))
    sim.post(5, order.append, ("a",))
    neighbour = sim.call_after(5, lambda: order.append("neighbour"))
    sim.post(5, order.append, ("b",))
    early.cancel()
    neighbour.cancel()
    assert sim.pending() == 4           # lazily cancelled: still counted
    sim.run(until=2)
    assert sim.pending() == 3           # the cancelled head is discarded
    assert order == []
    sim.run(until=5)
    assert order == ["a", "b"]
    assert sim.pending() == 0
    assert sim.events_executed == 2


def test_heap_pop_api_materialises_posted_entries() -> None:
    """``pop`` hands out :class:`Event` objects for posted entries too,
    keyed exactly as a pushed entry in the same place would be."""
    heap = EventHeap()
    seen: List[int] = []
    heap.post(4, seen.append, (1,))
    handle = heap.push(4, lambda: seen.append(2))
    heap.post(4, seen.append, (3,))
    heap.post(9, seen.append, (4,))
    popped = []
    while True:
        event = heap.pop()
        if event is None:
            break
        popped.append(event)
        event.action(*event.args)
    assert [(e.time, e.priority, e.seq) for e in popped] \
        == [(4, 0, 0), (4, 0, 1), (4, 0, 2), (9, 0, 3)]
    assert popped[1] is handle
    assert seen == [1, 2, 3, 4]
    assert len(heap) == 0
