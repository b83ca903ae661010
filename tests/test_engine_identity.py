"""Pinned histories: the simulator's one engine against recorded digests.

Each run below is recorded as ``(trace digest, events executed, final
virtual time, sorted exit codes)``.  The values were taken when the
repository still carried three event-queue structures, a parallel
dispatch loop and two vendored older engines; every one of them
reproduced these exact tuples, so the constants now check what
comparing against those engines used to check: that the total
``(time, priority, seq)`` order — and with it every trace byte — has
not moved.

A deliberate behaviour change that alters a history must update the
constant in the same change and say why.
"""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig
from repro.config import BusFaultConfig
from repro.faults import trace_digest
from repro.workloads import build_bank_workload, build_dense_oltp

MAX_EVENTS = 5_000_000

#: Sorted ``(pid, exit code)`` pairs of the bank server and its clients
#: (spawned round-robin, so one per cluster; cluster 0 holds two).
EXITS_3 = ((6, 0), (7, 0), (1000001, 0), (2000001, 0))
EXITS_4 = EXITS_3 + ((3000001, 0),)

PINNED = {
    # 4 clusters, 4 clients x 60 transfers over 24 accounts.
    "bank4": (
        "adb5a8b935ee5cccd9088087ebb4a85ea5f180b819be4c4179ef708394cb8411",
        4_477, 126_600, EXITS_4),
    # The same bank under 32 application compute slices per transfer,
    # healthy and with cluster 2 crashed at 8,000.
    "dense": (
        "b18f79e5aa41f2e081e5b3c91349f426f99d736f7f52cdbc85bc5f4ad011ac02",
        12_520, 1_061_717, EXITS_4),
    "dense-crash": (
        "07f4a7e2c7e1d20aa3b5ad56a304b80dd0d9316b811ccda48e93a416d6494298",
        12_100, 1_097_131, EXITS_4),
    # 3 clusters, 3 clients x 40 transfers, healthy and with cluster 2
    # crashed at 6,000.
    "bank3": (
        "5c86427f45b3dbec907576aa409141983ac0901fc8359a970c5f7b99ea16dda8",
        2_311, 73_708, EXITS_3),
    "bank3-crash": (
        "dbf03b1b3a91df800dce8bfedc5cb74f0d8b5360ad443dd05126eaac96ec451e",
        2_135, 113_671, EXITS_3),
    # bank3 on a bus losing 10% and garbling 5% of attempts.
    "bank3-degraded-bus": (
        "aa6c75cda4d19c16bd8de0f26727705f02402ee2afb2cde9f9537f08eedb8901",
        2_437, 97_886, EXITS_3),
}


def build(name: str) -> Machine:
    clusters = 3 if name.startswith("bank3") else 4
    config = MachineConfig(n_clusters=clusters, seed=7, trace_enabled=True)
    if name == "bank3-degraded-bus":
        config.bus_faults = BusFaultConfig(loss_rate=0.10, garble_rate=0.05)
    machine = Machine(config.validate())
    if clusters == 3:
        build_bank_workload(machine, n_clients=3, txns_per_client=40, seed=7)
    else:
        builder = (build_dense_oltp if name.startswith("dense")
                   else build_bank_workload)
        builder(machine, n_clients=4, txns_per_client=60, accounts=24,
                seed=7)
    if name == "bank3-crash":
        machine.crash_cluster(2, at=6_000)
    elif name == "dense-crash":
        machine.crash_cluster(2, at=8_000)
    return machine


def history(machine: Machine) -> tuple:
    return (trace_digest(machine), machine.sim.events_executed,
            machine.sim.now, tuple(sorted(machine.exits.items())))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_reproduces_its_pinned_history(name: str) -> None:
    machine = build(name)
    machine.run_until_idle(max_events=MAX_EVENTS)
    assert history(machine) == PINNED[name]


def test_the_crash_run_actually_recovers() -> None:
    """Guards the pins above against recording runs in which the crash
    never happened (or nothing was promoted)."""
    for name in ("bank3-crash", "dense-crash"):
        machine = build(name)
        machine.run_until_idle(max_events=MAX_EVENTS)
        assert machine.trace.count("cluster.crash") == 1, name
        assert machine.trace.count("recovery.promote") >= 1, name


def test_the_degraded_bus_run_actually_retransmits() -> None:
    machine = build("bank3-degraded-bus")
    machine.run_until_idle(max_events=MAX_EVENTS)
    assert machine.metrics.counter("bus.retransmissions") > 0
