"""Per-request latency sampling, queue-depth gauges, and a slow server
flooded by an unpaced producer.

The telemetry is metrics-only: latency and depth samples feed
histograms, never the trace, so instrumented runs stay byte-identical
to uninstrumented ones.  A server inbox is unbounded: every unread
arrival stays queued at the primary, and its backup saves the same
queue (section 5.2), so the flood builds depth and still drains.
"""

from __future__ import annotations

from repro.backup.modes import BackupMode
from repro.programs.actions import Compute, Exit, Open, Read, Write
from repro.programs.program import StateProgram
from repro.workloads import build_bank_workload, build_pipeline
from tests.conftest import make_machine


def run_bank(**overrides):
    machine = make_machine(n_clusters=3, **overrides)
    build_bank_workload(machine, n_clients=3, txns_per_client=4)
    machine.run()
    return machine


class FloodProducer(StateProgram):
    """Streams ``items`` messages down one channel with no pacing —
    writes complete at delivery, so the consumer's inbox builds up."""

    name = "flood_producer"
    start_state = "open"

    def __init__(self, items: int = 10) -> None:
        self._items = items

    def declare(self, space) -> None:
        space.declare("i", 1)

    def init(self, mem, regs) -> None:
        super().init(mem, regs)
        mem.set("i", 0)

    def state_open(self, ctx):
        ctx.goto("send")
        return Open("chan:flood")

    def state_send(self, ctx):
        if ctx.regs.get("fd") is None:
            ctx.regs["fd"] = ctx.rv
        i = ctx.mem.get("i")
        if i >= self._items:
            return Exit(0)
        ctx.mem.set("i", i + 1)
        ctx.goto("send")
        return Write(ctx.regs["fd"], ("item", i))


class SlowConsumer(StateProgram):
    """Reads ``items`` messages with a long service time per item —
    the slow server the producer overruns."""

    name = "slow_consumer"
    start_state = "open"

    def __init__(self, items: int = 10, service: int = 3_000) -> None:
        self._items = items
        self._service = service

    def declare(self, space) -> None:
        space.declare("i", 1)

    def init(self, mem, regs) -> None:
        super().init(mem, regs)
        mem.set("i", 0)

    def state_open(self, ctx):
        ctx.goto("opened")
        return Open("chan:flood")

    def state_opened(self, ctx):
        ctx.regs["fd"] = ctx.rv
        ctx.goto("read")
        return Compute(10)

    def state_read(self, ctx):
        if ctx.mem.get("i") >= self._items:
            return Exit(0)
        ctx.goto("got")
        return Read(ctx.regs["fd"])

    def state_got(self, ctx):
        ctx.mem.set("i", ctx.mem.get("i") + 1)
        ctx.goto("read")
        return Compute(self._service)


def run_flood(items: int = 10, **overrides):
    """A slow *server* process overrun by a streaming producer."""
    machine = make_machine(n_clusters=3, **overrides)
    kernel = machine.clusters[1].kernel
    server = kernel.create_process(SlowConsumer(items=items),
                                   BackupMode.QUARTERBACK, is_server=True)
    machine.spawn(FloodProducer(items=items), cluster=2)
    machine.run_until_idle(max_events=40_000_000)
    return machine, server.pid


# -- latency sampling ---------------------------------------------------


def test_oltp_records_request_latency():
    machine = run_bank()
    hist = machine.metrics.histogram("latency.request")
    assert hist is not None
    # Every client transaction is one Send->blocked->reply round trip.
    assert hist.count >= 12
    assert hist.minimum > 0
    summary = hist.summary()
    assert summary["p50"] <= summary["p90"] <= summary["p99"] \
        <= summary["max"]


def test_pipeline_records_read_and_queue_wait():
    machine = make_machine(n_clusters=4)
    build_pipeline(machine, stages=2, items=8)
    machine.run_until_idle(max_events=40_000_000)
    assert machine.metrics.histogram("latency.read_wait").count > 0
    assert machine.metrics.histogram("latency.queue_wait").count > 0


def test_queue_depth_gauges_present():
    machine = run_bank()
    hists = machine.metrics.histograms(prefix="queue.depth")
    assert "queue.depth.server" in hists
    # Depth is sampled at enqueue: at least one entry is in the queue.
    assert hists["queue.depth.server"].minimum >= 1
    assert machine.metrics.snapshot()["histograms"]


def test_latency_sampling_never_touches_the_trace():
    """The whole point: telemetry must not perturb behavior."""
    baseline = make_machine(n_clusters=3, trace=True)
    build_bank_workload(baseline, n_clients=3, txns_per_client=4)
    baseline.run()
    assert baseline.metrics.histogram("latency.request").count > 0
    assert not any("latency" in record.category
                   for record in baseline.trace)


# -- flooded server inbox -----------------------------------------------


def test_unbounded_flood_builds_server_queue():
    machine, server_pid = run_flood()
    depth = machine.metrics.histogram("queue.depth.server")
    assert depth.maximum >= 5  # the producer overruns the server
    assert machine.exits[server_pid] == 0


# -- bus utilization gauge ----------------------------------------------


def test_bus_utilization_accumulates():
    machine = run_bank()
    bus = machine.bus
    assert bus.busy_ticks > 0
    assert 0.0 < bus.utilization(machine.sim.now) <= 1.0
    assert machine.metrics.histogram("bus.request_queue").count > 0
