"""The simulator event loop.

A :class:`Simulator` owns virtual time and the global event heap.  All
components (bus, processors, kernels, failure detector) schedule work
through it.  A complete run is a pure function of the initial schedule, so
re-running a configuration reproduces the exact same history — the property
the paper's rollforward recovery relies on and that our equivalence
experiments (E8) check end to end.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from .events import POSTED, Event, EventHeap, SchedulingError, SimulationError
from .trace import TraceLog


class Simulator:
    """Deterministic discrete-event simulator with integer virtual time.

    One tick is interpreted as one microsecond throughout the library.

    ``now`` is a plain attribute, not a property: virtually every kernel
    and hardware path timestamps something against it (trace records,
    queue arrival times, cost accounting), and the descriptor call per
    read was measurable at benchmark event rates.  Only the event loop
    writes it.

    Example::

        sim = Simulator()
        sim.call_at(10, lambda: print("fires at t=10"))
        sim.run()
    """

    def __init__(self, trace: Optional[TraceLog] = None) -> None:
        #: Current virtual time in ticks.  Read-only by convention.
        self.now = 0
        self._heap = EventHeap()
        self._running = False
        self._event_count = 0
        self.trace = trace if trace is not None else TraceLog()
        # Shadow the method with a fused closure: post is the single
        # busiest entry point (one call per scheduled event) and the
        # method pays two call layers plus attribute walks that a closure
        # over the heap's internals avoids.
        self.post = self._make_fast_post()

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (diagnostic; updated when a
        :meth:`run` call returns, not per event)."""
        return self._event_count

    def pending(self) -> int:
        """Number of events still scheduled (a cancelled one counts until
        the loop reaches and discards it)."""
        return len(self._heap)

    def call_at(self, time: int, action: Callable[[], None],
                priority: int = 0, label: str = "") -> Event:
        """Schedule ``action`` at absolute virtual ``time`` and return a
        handle the caller may :meth:`~repro.sim.events.Event.cancel`."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule in the past: now={self.now}, requested={time}")
        return self._heap.push(time, action, priority=priority, label=label)

    def call_after(self, delay: int, action: Callable[[], None],
                   priority: int = 0, label: str = "") -> Event:
        """Schedule ``action`` after ``delay`` ticks from now and return a
        handle the caller may :meth:`~repro.sim.events.Event.cancel`."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        # Skip call_at's in-the-past check: now + a non-negative delay can
        # never be in the past.
        return self._heap.push(self.now + delay, action, priority=priority,
                               label=label)

    def post(self, delay: int, fn: Callable[..., None],
             args: tuple = ()) -> None:
        """Schedule ``fn(*args)`` after ``delay`` ticks at priority 0,
        fire-and-forget.

        What every component of the machine schedules through: no handle
        comes back, so nothing can cancel the call and the loop allocates
        nothing for it beyond the queue entry.  It draws its ``seq`` from
        the same counter as :meth:`call_at` / :meth:`call_after`, so a
        posted call orders against every other event exactly as a
        ``call_after`` in its place would.  Use those two when the caller
        keeps the handle (see docs/performance.md, "Scheduling without
        handles").
        """
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        self._heap.post(self.now + delay, fn, args)

    def _make_fast_post(self) -> Callable[..., None]:
        """Build the fused :meth:`post`: :meth:`EventHeap.post` inlined
        into the scheduling call, with identical bounds and key
        semantics."""
        heap = self._heap
        entries = heap._heap

        def post(delay: int, fn: Callable[..., None],
                 args: tuple = ()) -> None:
            if delay < 0:
                raise SchedulingError(f"delay must be >= 0, got {delay}")
            seq = heap._seq
            heap._seq = seq + 1
            heappush(entries, (self.now + delay, 0, seq, POSTED, fn, args))

        return post

    def close(self) -> None:
        """Drop every pending event and the fused :meth:`post`.

        Pending entries hold bound methods of the components that
        scheduled them, and the fused closure holds this simulator, so an
        unclosed simulator is only ever freed by the cyclic collector.
        ``now`` and ``events_executed`` stay readable.
        """
        # Emptied in place: the fused post that components still alias
        # closes over this very heap.
        self._heap.clear()
        self.__dict__.pop("post", None)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` events have executed.

        Returns the virtual time at which the run stopped.  When ``until``
        is given, the clock is advanced to ``until`` even if the heap
        drained earlier, so successive bounded runs compose naturally.

        The dispatch loop is the hottest code in the repository: every
        bus transfer, scheduler step, and sync in every experiment passes
        through it.  It dispatches one run of same-timestamp events at a
        time, so the bound checks and the clock write are paid once per
        timestamp rather than once per event.  Events pushed *at the
        current tick* by an executing action simply land in the heap and
        are drained in ``(priority, seq)`` order with the rest of the
        run, so the order is single-event dispatch order by construction.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        try:
            executed = self._run_heap_fast(self._heap, until, max_events)
            if until is not None and self.now < until:
                self.now = until
            return self.now
        finally:
            self._event_count += executed
            self._running = False

    def _run_heap_fast(self, heap: EventHeap, until: Optional[int],
                       max_events: Optional[int]) -> int:
        """The dispatch loop, inlined over the heap's entry list.

        Operates on ``heap._heap`` directly with the same lazy discard
        of cancelled entries as :meth:`EventHeap.pop`; the method-call
        layer per event was a measured fraction of dense workloads.
        """
        executed = 0
        stop_at = max_events if max_events is not None else (1 << 62)
        entries = heap._heap
        while executed < stop_at:
            # Scan to the next live head, discarding cancelled entries
            # (including one beyond the bound: the phantom-pending rule).
            while entries:
                head = entries[0]
                if head[3].cancelled:
                    heappop(entries)
                    continue
                break
            if not entries:
                break
            now = head[0]
            if until is not None and now > until:
                break
            self.now = now
            # Drain the whole run at this timestamp.  Same-tick pushes
            # from executing actions enter the heap and are drained here
            # in (priority, seq) order — exact serial-dispatch order.
            while entries and entries[0][0] == now:
                entry = heappop(entries)
                if entry[3].cancelled:
                    continue
                executed += 1
                entry[4](*entry[5])
                if executed == stop_at:
                    break
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain.  ``max_events`` guards against a
        component that reschedules itself forever (e.g. a poller); hitting
        the guard raises so bugs do not present as hangs."""
        self.run(max_events=max_events)
        if self.pending():
            raise SimulationError(
                f"simulation did not go idle within {max_events} events "
                f"({self.pending()} still pending)")
        return self.now
