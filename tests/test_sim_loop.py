"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim import SchedulingError, SimulationError, Simulator


def test_starts_at_zero():
    assert Simulator().now == 0


def test_call_at_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_at(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]
    assert sim.now == 100


def test_call_after_is_relative():
    sim = Simulator()
    seen = []
    sim.call_at(50, lambda: sim.call_after(25, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [75]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.call_at(10, lambda: seen.append("early"))
    sim.call_at(100, lambda: seen.append("late"))
    sim.run(until=50)
    assert seen == ["early"]
    assert sim.now == 50
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=1234)
    assert sim.now == 1234


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_at(100, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.call_at(50, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        Simulator().call_after(-5, lambda: None)


def test_max_events_bounds_execution():
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        sim.call_after(1, tick)

    sim.call_at(0, tick)
    sim.run(max_events=10)
    assert count[0] == 10


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def tick():
        sim.call_after(1, tick)

    sim.call_at(0, tick)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_events_executed_counter():
    sim = Simulator()
    for t in range(5):
        sim.call_at(t, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_pending_counts_scheduled_events():
    sim = Simulator()
    sim.call_at(1, lambda: None)
    sim.call_at(2, lambda: None)
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    event = sim.call_at(10, lambda: seen.append("x"))
    event.cancel()
    sim.run()
    assert seen == []


def test_run_until_idle_with_only_cancelled_events():
    """Regression: a schedule-then-cancel must not leave phantom pending
    events — run_until_idle used to raise "did not go idle" here."""
    sim = Simulator()
    event = sim.call_at(10, lambda: None)
    event.cancel()
    sim.run_until_idle()
    assert sim.pending() == 0


def test_run_until_idle_with_trailing_cancelled_event():
    sim = Simulator()
    fired = []
    sim.call_at(5, lambda: fired.append("a"))
    trailing = sim.call_at(20, lambda: fired.append("b"))
    sim.call_at(6, trailing.cancel)
    sim.run_until_idle()
    assert fired == ["a"]
    assert sim.pending() == 0


def test_deterministic_interleaving():
    def run_once():
        sim = Simulator()
        order = []
        sim.call_at(5, lambda: order.append("a"))
        sim.call_at(5, lambda: order.append("b"))
        sim.call_at(3, lambda: sim.call_at(5, lambda: order.append("c")))
        sim.run()
        return order

    assert run_once() == run_once() == ["a", "b", "c"]


# -- run(until=, max_events=) boundaries -------------------------------------
#
# The dispatch loop drains one same-timestamp run at a time straight off
# the heap; these pin the boundary rules it implements inline.


def test_run_until_is_inclusive():
    sim = Simulator()
    seen = []
    sim.call_at(10, lambda: seen.append(sim.now))
    sim.run(until=10)
    assert seen == [10]
    assert sim.pending() == 0


def test_run_until_leaves_event_one_tick_past_bound_pending():
    sim = Simulator()
    seen = []
    sim.call_at(11, lambda: seen.append(sim.now))
    sim.run(until=10)
    assert seen == []
    # The event was not consumed: it is still pending and still runs later.
    assert sim.pending() == 1
    assert sim.now == 10
    sim.run(until=11)
    assert seen == [11]


def test_run_until_drains_every_event_at_the_bound_tick():
    sim = Simulator()
    seen = []
    sim.call_at(10, lambda: seen.append("a"))
    sim.call_at(10, lambda: seen.append("b"))
    sim.call_at(12, lambda: seen.append("late"))
    sim.run(until=10)
    assert seen == ["a", "b"]
    assert sim.pending() == 1
    sim.run(until=12)
    assert seen == ["a", "b", "late"]
    assert sim.pending() == 0
    sim.run(until=20)
    assert seen == ["a", "b", "late"]


def test_run_until_stops_a_same_tick_run_at_the_bound():
    sim = Simulator()
    seen = []
    sim.call_at(10, lambda: seen.append("a"))
    sim.call_at(10, lambda: seen.append("b"))
    sim.run(until=10)
    assert seen == ["a", "b"]
    sim.call_at(11, lambda: seen.append("late"))
    sim.run(until=10)
    assert seen == ["a", "b"]
    assert sim.pending() == 1


def test_run_without_until_is_unbounded():
    sim = Simulator()
    seen = []
    sim.call_at(10**9, lambda: seen.append(sim.now))
    sim.run(until=None)
    assert seen == [10**9]


def test_run_until_orders_boundary_ties_by_priority_then_seq():
    sim = Simulator()
    order = []
    sim.call_at(10, lambda: order.append("first"))
    sim.call_at(10, lambda: order.append("second"))
    sim.call_at(10, lambda: order.append("urgent"), priority=-1)
    sim.run(until=10)
    assert order == ["urgent", "first", "second"]
    assert sim.pending() == 0


def test_run_orders_same_tick_ties_by_priority_then_seq():
    sim = Simulator()
    order = []
    sim.call_at(7, lambda: order.append("first"))
    sim.call_at(7, lambda: order.append("urgent"), priority=-2)
    sim.call_at(7, lambda: order.append("second"))
    sim.run()
    assert order == ["urgent", "first", "second"]
    assert sim.events_executed == 3


def test_run_until_discards_cancelled_head_beyond_bound():
    """A cancelled head past the bound is lazily discarded (with
    pending-count decrement) even though nothing runs — without the
    discard, ``pending()`` would report an event that can never run."""
    sim = Simulator()
    sim.call_at(50, lambda: None).cancel()
    assert sim.pending() == 1
    sim.run(until=10)
    assert sim.pending() == 0
    assert sim.events_executed == 0


def test_run_until_discards_cancelled_head_before_live_event_beyond_bound():
    sim = Simulator()
    seen = []
    sim.call_at(3, lambda: seen.append("doomed")).cancel()
    sim.call_at(20, lambda: seen.append("live"))
    sim.run(until=10)
    assert seen == []
    assert sim.pending() == 1
    sim.run()
    assert seen == ["live"]


def test_run_scans_through_cancelled_run_to_live_event():
    sim = Simulator()
    seen = []
    for _ in range(4):
        sim.call_at(5, lambda: seen.append("doomed")).cancel()
    sim.call_at(5, lambda: seen.append("survivor"))
    assert sim.pending() == 5
    sim.run(until=5)
    assert seen == ["survivor"]
    assert sim.pending() == 0
    assert sim.events_executed == 1


def test_run_discards_cancelled_entries_with_accounting():
    sim = Simulator()
    seen = []
    sim.call_at(5, lambda: seen.append("doomed")).cancel()
    sim.call_at(5, lambda: seen.append("survivor"))
    sim.call_at(50, lambda: seen.append("late")).cancel()
    sim.run(until=10)
    assert seen == ["survivor"]
    assert sim.pending() == 0


def test_run_skips_same_tick_neighbour_cancelled_mid_run():
    sim = Simulator()
    seen = []
    third = None

    def first():
        seen.append("first")
        third.cancel()

    sim.call_at(5, first)
    sim.call_at(5, lambda: seen.append("second"))
    third = sim.call_at(5, lambda: seen.append("third"))
    sim.run()
    assert seen == ["first", "second"]
    assert sim.pending() == 0
    assert sim.events_executed == 2


def test_max_events_splits_a_same_tick_run():
    sim = Simulator()
    seen = []
    for index in range(5):
        sim.post(4, seen.append, (index,))
    sim.run(max_events=3)
    assert seen == [0, 1, 2]
    assert sim.now == 4
    assert sim.pending() == 2
    sim.run(max_events=3)
    assert seen == [0, 1, 2, 3, 4]
    assert sim.events_executed == 5


def test_same_tick_push_from_an_action_takes_its_key_place():
    """Work an action schedules at the current tick sorts against the
    rest of that tick's run by ``(priority, seq)``: a priority-0 post
    runs after the already scheduled neighbour, a negative priority runs
    before it."""
    sim = Simulator()
    order = []

    def head():
        order.append("head")
        sim.post(0, order.append, ("posted",))
        sim.call_after(0, lambda: order.append("urgent"), priority=-1)

    sim.call_at(10, head)
    sim.call_at(10, lambda: order.append("neighbour"))
    sim.run(until=10)
    assert order == ["head", "urgent", "neighbour", "posted"]
    assert sim.pending() == 0
