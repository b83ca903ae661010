"""``Machine.close()``: a finished machine is freed by refcount alone.

A machine's components refer to one another in cycles (kernel <-> cluster
<-> scheduler, exit hooks, bound-method aliases on the hot paths, the
fused ``Simulator.post``), so without ``close()`` only the cyclic
collector ever reclaims one.  Every test here runs with that collector
**disabled**: after ``close()`` and ``del`` the components must already
be gone (weak references dead) and a final ``gc.collect()`` must find
next to nothing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref

import pytest

from repro import Machine, MachineConfig
from repro.config import BusFaultConfig
from repro.core.machine import MachineError
from repro.faults.campaign import run_campaign
from repro.faults.injector import FaultInjector, nth_sync
from repro.programs.program import IdleProgram
from repro.workloads.oltp import build_bank_workload

#: sha256 of ``json.dumps(run_campaign(range(48)).as_dict(),
#: sort_keys=True)`` taken at the commit before ``close()`` existed.
CAMPAIGN_48_SHA256 = \
    "1e40c13443c47f8723c59c4ec11a4786d9bae1cf6385d154ad46f1155f29e781"


@pytest.fixture
def no_gc():
    """Cyclic collector off (and a clean slate) for one test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _healthy() -> Machine:
    machine = Machine(MachineConfig(n_clusters=3))
    build_bank_workload(machine, n_clients=3, txns_per_client=6)
    machine.run_until_idle()
    assert len(machine.exits) == 4
    return machine


def _crash_restore() -> Machine:
    machine = Machine(MachineConfig(n_clusters=3))
    build_bank_workload(machine, n_clients=3, txns_per_client=12)
    injector = FaultInjector(machine)
    injector.crash_on(nth_sync(2, after=2_000), from_detail="cluster")
    injector.restore_at(1, 60_000)
    injector.crash_at(1, 20_000)
    machine.run_until_idle()
    assert machine.metrics.counter("cluster.restores") == 1
    assert machine.metrics.counter("cluster.crashes") >= 1
    return machine


def _degraded_bus() -> Machine:
    config = MachineConfig(n_clusters=3)
    config.bus_faults = BusFaultConfig(loss_rate=0.10, garble_rate=0.05,
                                       seed=3)
    machine = Machine(config)
    build_bank_workload(machine, n_clients=3, txns_per_client=6)
    machine.run_until_idle()
    assert machine.metrics.counter("bus.retransmissions") > 0
    return machine


def _heartbeat() -> Machine:
    config = MachineConfig(n_clusters=3, detector="heartbeat")
    config.bus_faults = BusFaultConfig(loss_rate=0.05, seed=5)
    machine = Machine(config)
    build_bank_workload(machine, n_clients=3, txns_per_client=6)
    machine.crash_cluster(2, at=15_000)
    machine.run_until_idle()
    assert machine.heartbeat is not None
    return machine


@pytest.mark.parametrize("build", [_healthy, _crash_restore, _degraded_bus,
                                   _heartbeat])
def test_closed_machine_is_freed_without_the_collector(no_gc, build):
    machine = build()
    probes = [weakref.ref(target) for target in (
        machine, machine.kernels[0], machine.kernels[0].scheduler,
        machine.kernels[1], machine.clusters[1].executive, machine.bus,
        machine.sim, machine.trace, machine.page_harness)]
    if machine.heartbeat is not None:
        probes.append(weakref.ref(machine.heartbeat))
    machine.close()
    del machine
    assert [probe() for probe in probes] == [None] * len(probes)
    assert gc.collect() < 100


def test_unclosed_machine_needs_the_collector(no_gc):
    """The cycles ``close()`` exists for are real: without it nothing is
    freed until the collector runs."""
    machine = _healthy()
    probe = weakref.ref(machine.kernels[0])
    del machine
    assert probe() is not None
    assert gc.collect() > 500
    assert probe() is None


def test_replaced_kernel_and_executive_are_released_at_restore(no_gc):
    """crash + restore swaps in a fresh kernel, scheduler and executive;
    the crashed incarnations go as soon as their last stale event has
    fired, not when the collector finds them."""
    machine = Machine(MachineConfig(n_clusters=3))
    build_bank_workload(machine, n_clients=3, txns_per_client=12)
    old = [weakref.ref(target) for target in (
        machine.kernels[1], machine.kernels[1].scheduler,
        machine.clusters[1].executive)]
    machine.crash_cluster(1, at=20_000)
    machine.run(until=60_000)
    machine.restore_cluster(1)
    machine.run_until_idle()
    assert machine.kernels[1].alive
    assert [probe() for probe in old] == [None, None, None]
    machine.close()


def test_results_stay_readable_and_use_is_refused_after_close():
    machine = _healthy()
    lines, exits, now = machine.tty_output(), dict(machine.exits), \
        machine.sim.now
    records = len(machine.trace)
    machine.close()
    machine.close()                      # idempotent
    assert machine.tty_output() == lines and machine.exits == exits
    assert machine.sim.now == now and len(machine.trace) == records
    assert machine.sim.pending() == 0
    for use in (machine.run_until_idle, machine.run,
                lambda: machine.spawn(IdleProgram()),
                lambda: machine.crash_cluster(0),
                lambda: machine.restore_cluster(0),
                lambda: machine.tty_type("x"),
                machine.live_process_count, machine.describe):
        with pytest.raises(MachineError, match="closed"):
            use()


def test_close_detaches_fault_injectors():
    machine = Machine(MachineConfig(n_clusters=3))
    injector = FaultInjector(machine)
    injector.crash_on(nth_sync(1), from_detail="cluster")
    assert machine.trace.active
    machine.trace.enabled = False
    assert machine.trace.active          # the injector is listening
    machine.close()
    assert not machine.trace.active


def _report_sha(report) -> str:
    return hashlib.sha256(json.dumps(report.as_dict(),
                                     sort_keys=True).encode()).hexdigest()


def test_campaign_leaves_no_garbage_and_the_same_report(no_gc):
    report = run_campaign(range(48))
    unreachable = gc.collect()
    assert unreachable < 300 * 48, unreachable / 48
    assert _report_sha(report) == CAMPAIGN_48_SHA256


def test_campaign_report_unchanged_across_workers():
    assert _report_sha(run_campaign(range(48), jobs=2)) \
        == CAMPAIGN_48_SHA256
