"""Unit tests for the intercluster bus and executive processor.

These exercise the two hardware guarantees of section 5.1 in isolation:
all-or-none delivery and non-interleaved transmission.
"""

from repro.config import MachineConfig
from repro.hardware.bus import InterclusterBus
from repro.hardware.cluster import Cluster
from repro.hardware.processor import ExecutiveProcessor
from repro.messages.message import Delivery, DeliveryRole, Message, MessageKind
from repro.metrics import MetricSet
from repro.sim import Simulator, TraceLog


class RecordingKernel:
    """Minimal kernel stub recording deliveries."""

    def __init__(self):
        self.deliveries = []

    def handle_delivery(self, message, delivery, seqno):
        self.deliveries.append((message.msg_id, delivery.role, seqno))

    def halt(self):
        pass


def build(n=3):
    sim = Simulator()
    config = MachineConfig(n_clusters=n).validate()
    metrics = MetricSet()
    trace = TraceLog()
    bus = InterclusterBus(sim, config.costs, metrics, trace)
    clusters = [Cluster(i, config, sim, bus, metrics, trace)
                for i in range(n)]
    kernels = []
    for cluster in clusters:
        kernel = RecordingKernel()
        cluster.kernel = kernel
        kernels.append(kernel)
    return sim, bus, clusters, kernels, metrics


def msg(msg_id, legs, size=64):
    return Message(msg_id=msg_id, kind=MessageKind.DATA, src_pid=1,
                   dst_pid=2, channel_id=5, payload="p", size_bytes=size,
                   deliveries=tuple(legs))


def leg(cluster, role=DeliveryRole.PRIMARY_DEST):
    return Delivery(cluster, role, 2, 5)


def test_single_transmission_reaches_all_targets():
    sim, bus, clusters, kernels, metrics = build()
    clusters[0].send(msg(1, [leg(1), leg(2, DeliveryRole.DEST_BACKUP)]))
    sim.run()
    assert metrics.counter("bus.transmissions") == 1
    assert len(kernels[1].deliveries) == 1
    assert len(kernels[2].deliveries) == 1


def test_fifo_order_per_cluster():
    sim, bus, clusters, kernels, _ = build()
    clusters[0].send(msg(1, [leg(1)]))
    clusters[0].send(msg(2, [leg(1)]))
    clusters[0].send(msg(3, [leg(1)]))
    sim.run()
    assert [d[0] for d in kernels[1].deliveries] == [1, 2, 3]


def test_no_interleaving_across_shared_destinations():
    """Two messages to overlapping target sets arrive in the same relative
    order everywhere (the section 5.1 ordering guarantee)."""
    sim, bus, clusters, kernels, _ = build()
    clusters[0].send(msg(1, [leg(1), leg(2, DeliveryRole.DEST_BACKUP)]))
    clusters[1].send(msg(2, [leg(2)]))
    sim.run()
    seq_of = {m: s for m, _, s in kernels[2].deliveries}
    assert len(seq_of) == 2
    # msg 1 was granted first (earlier request): lower arrival seqno at 2.
    assert seq_of[1] < seq_of[2]


def test_sender_crash_mid_flight_loses_whole_message():
    sim, bus, clusters, kernels, metrics = build()
    clusters[0].send(msg(1, [leg(1), leg(2, DeliveryRole.DEST_BACKUP)]))
    # Dispatch costs 30 ticks, then the transmission occupies the bus for
    # latency + size ticks; crash the sender squarely mid-flight.
    sim.call_at(60, clusters[0].crash)
    sim.run()
    assert kernels[1].deliveries == []
    assert kernels[2].deliveries == []
    assert metrics.counter("bus.aborted_transmissions") == 1


def test_crashed_cluster_receives_nothing():
    sim, bus, clusters, kernels, _ = build()
    clusters[2].crash()
    clusters[0].send(msg(1, [leg(1), leg(2, DeliveryRole.DEST_BACKUP)]))
    sim.run()
    assert len(kernels[1].deliveries) == 1
    assert kernels[2].deliveries == []


def test_arrival_seqnos_monotonic_per_cluster():
    sim, bus, clusters, kernels, _ = build()
    for i in range(5):
        clusters[0].send(msg(i, [leg(1)]))
    sim.run()
    seqnos = [s for _, _, s in kernels[1].deliveries]
    assert seqnos == sorted(seqnos)
    assert len(set(seqnos)) == 5


def test_disable_outgoing_holds_traffic():
    sim, bus, clusters, kernels, _ = build()
    clusters[0].disable_outgoing()
    clusters[0].send(msg(1, [leg(1)]))
    sim.run()
    assert kernels[1].deliveries == []
    clusters[0].enable_outgoing()
    sim.run()
    assert len(kernels[1].deliveries) == 1


def test_outgoing_lost_on_crash():
    sim, bus, clusters, kernels, metrics = build()
    clusters[0].disable_outgoing()
    clusters[0].send(msg(1, [leg(1)]))
    clusters[0].crash()
    sim.run()
    assert kernels[1].deliveries == []
    assert metrics.counter("cluster.lost_outgoing") == 1


def test_bus_bytes_accounting():
    sim, bus, clusters, kernels, metrics = build()
    clusters[0].send(msg(1, [leg(1)], size=100))
    clusters[1].send(msg(2, [leg(0)], size=50))
    sim.run()
    assert metrics.counter("bus.bytes") == 150


def build_traced(n=3):
    """Like build(), but returns the TraceLog and timestamps deliveries."""
    sim = Simulator()
    config = MachineConfig(n_clusters=n).validate()
    metrics = MetricSet()
    trace = sim.trace
    bus = InterclusterBus(sim, config.costs, metrics, trace)
    clusters = [Cluster(i, config, sim, bus, metrics, trace)
                for i in range(n)]
    kernels = []
    for cluster in clusters:
        kernel = TimestampingKernel(sim)
        cluster.kernel = kernel
        kernels.append(kernel)
    return sim, bus, clusters, kernels, metrics, trace


class TimestampingKernel:
    """Kernel stub recording (msg_id, virtual time) per delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def handle_delivery(self, message, delivery, seqno):
        self.deliveries.append((message.msg_id, self.sim.now))

    def halt(self):
        pass


def test_abort_regrants_bus_to_queued_live_cluster():
    """Regression: when a sender crashes mid-flight, the bus re-grants at
    the abort instant — a queued message from a live cluster must not
    stall until the aborted transmission's original completion time."""
    sim, bus, clusters, kernels, metrics, trace = build_traced()
    # Cluster 0 occupies the bus until t = 30 + 50 + 1000 = 1080;
    # cluster 1's message queues behind it.
    clusters[0].send(msg(1, [leg(2)], size=1000))
    clusters[1].send(msg(2, [leg(2)], size=64))
    sim.call_at(500, clusters[0].crash)
    sim.run_until_idle()
    received = dict(kernels[2].deliveries)
    assert 1 not in received                      # all-or-none
    # Departed at the abort (t=500), not at the stale completion (1080).
    assert received[2] < 1080
    departures = trace.select("bus.transmit",
                              where=lambda r: r.detail["src"] == 1)
    assert [record.time for record in departures] == [500]
    assert metrics.counter("bus.aborted_transmissions") == 1


def test_stale_completion_after_abort_is_noop():
    """The aborted transmission's completion event still fires; it must
    neither deliver nor double-grant."""
    sim, bus, clusters, kernels, metrics, trace = build_traced()
    clusters[0].send(msg(1, [leg(1), leg(2, DeliveryRole.DEST_BACKUP)],
                         size=1000))
    clusters[1].send(msg(2, [leg(2)], size=64))
    sim.call_at(500, clusters[0].crash)
    sim.run_until_idle()
    # Exactly one delivery of message 2, nothing from message 1.
    assert [m for m, _ in kernels[2].deliveries] == [2]
    assert metrics.counter("bus.transmissions") == 2
    assert sim.pending() == 0


def test_abort_with_empty_queue_leaves_bus_usable():
    sim, bus, clusters, kernels, metrics, trace = build_traced()
    clusters[0].send(msg(1, [leg(1)], size=500))
    sim.call_at(200, clusters[0].crash)
    sim.run_until_idle()
    assert not bus.busy
    clusters[1].send(msg(2, [leg(2)]))
    sim.run_until_idle()
    assert [m for m, _ in kernels[2].deliveries] == [2]


def test_sender_dead_at_completion_instant_is_lost():
    """White-box: the sender's cluster goes dead without a bus abort (the
    defensive branch in _complete) — the message is lost in its entirety
    and counted as aborted."""
    sim, bus, clusters, kernels, metrics, trace = build_traced()
    clusters[0].send(msg(1, [leg(1), leg(2, DeliveryRole.DEST_BACKUP)]))
    clusters[1].send(msg(2, [leg(2)], size=64))
    # Drop the sender dead mid-flight without notifying the bus.
    sim.call_at(60, lambda: setattr(clusters[0], "alive", False))
    sim.run_until_idle()
    assert all(m != 1 for m, _ in kernels[1].deliveries)
    assert all(m != 1 for m, _ in kernels[2].deliveries)
    assert [m for m, _ in kernels[2].deliveries] == [2]
    assert metrics.counter("bus.aborted_transmissions") == 1


def test_aborted_transmissions_metric_matches_trace():
    """bus.aborted_transmissions counts exactly the bus.aborted records,
    for both the mid-flight and the dead-at-completion paths."""
    sim, bus, clusters, kernels, metrics, trace = build_traced()
    clusters[0].send(msg(1, [leg(1)], size=800))
    sim.call_at(300, clusters[0].crash)                 # mid-flight abort
    clusters[1].send(msg(2, [leg(2)], size=64))
    sim.call_at(350, lambda: setattr(clusters[1], "alive", False))
    sim.run_until_idle()
    aborted = metrics.counter("bus.aborted_transmissions")
    assert aborted == trace.count("bus.aborted") == 2


def test_executive_runs_serially_in_fifo_order():
    sim = Simulator()
    metrics = MetricSet()
    executive = ExecutiveProcessor(0, sim, metrics)
    order = []
    executive.submit(10, lambda: order.append("a"), "x")
    executive.submit(10, lambda: order.append("b"), "x")
    executive.submit(10, lambda: order.append("c"), "x")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30
    assert metrics.busy("executive[c0]") == 30


def test_executive_halt_drops_work():
    sim = Simulator()
    executive = ExecutiveProcessor(0, sim, MetricSet())
    order = []
    executive.submit(10, lambda: order.append("a"), "x")
    executive.halt()
    executive.submit(10, lambda: order.append("b"), "x")
    sim.run()
    assert order == []


# -- executive work that acts on its own executive ---------------------------
#
# Starting the next item is folded into submit/_on_complete; these pin the
# three re-entrant cases the fold has to keep: order of execution, busy
# ticks per label, and silence after halt.


def test_executive_action_submitting_to_its_own_executive():
    sim = Simulator()
    metrics = MetricSet()
    executive = ExecutiveProcessor(0, sim, metrics)
    order = []

    def first():
        order.append(("first", sim.now))
        # Submitted while the executive is mid-item: queues behind "second".
        executive.submit(7, order.append, "nested", (("nested", None),))

    executive.submit(10, first, "outer")
    executive.submit(5, lambda: order.append(("second", sim.now)), "outer")
    sim.run()
    assert order == [("first", 10), ("second", 15), ("nested", None)]
    assert sim.now == 22
    assert metrics.busy("executive[c0]", "outer") == 15
    assert metrics.busy("executive[c0]", "nested") == 7
    assert executive.queue_depth == 0
    # Idle again: a later submit starts at once rather than queueing.
    executive.submit(3, lambda: order.append(("late", sim.now)), "outer")
    sim.run()
    assert order[-1] == ("late", 25)
    assert sim.pending() == 0


def test_executive_action_crashing_its_own_cluster():
    sim, bus, clusters, kernels, metrics = build()
    cluster = clusters[1]
    executive = cluster.executive
    ran = []

    def crash_self():
        ran.append(("crash", sim.now))
        cluster.crash()
        # Hardware that is down accepts no work, not even from itself.
        executive.submit(1, ran.append, "after", (("after", None),))

    executive.submit(4, ran.append, "before", (("before", None),))
    executive.submit(6, crash_self, "crash")
    executive.submit(8, ran.append, "queued", (("queued", None),))
    sim.run()
    assert ran == [("before", None), ("crash", 10)]
    assert sim.now == 10 and sim.pending() == 0
    # "queued" was never started, so it was never charged.
    assert metrics.busy_breakdown("executive[c1]") == {"before": 4, "crash": 6}
    assert executive.queue_depth == 0


def test_stale_completion_on_a_revived_cluster_is_a_noop():
    sim, bus, clusters, kernels, metrics = build()
    cluster = clusters[2]
    ran = []
    old = cluster.executive
    old.submit(20, ran.append, "old", ("old-item",))   # completes at t=20
    sim.run(until=5)
    cluster.crash()
    cluster.revive()
    assert cluster.executive is not old
    assert sim.pending() == 1                           # the stale completion
    cluster.executive.submit(4, ran.append, "new", ("new-item",))
    cluster.executive.submit(30, ran.append, "new", ("new-late",))
    sim.run()
    # The old executive's completion fires at t=20, between the two new
    # items, and runs nothing.
    assert ran == ["new-item", "new-late"]
    assert sim.now == 39
    assert metrics.busy_breakdown("executive[c2]") == {"old": 20, "new": 34}
