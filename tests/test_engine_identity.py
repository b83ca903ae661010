"""Every way of running one machine yields the same history.

Three event-queue backends and two dispatch loops (the serial one and
``ParallelMachineLoop`` with real worker threads) share one contract:
byte-identical traces.  The large-scale version of this check lives in
``benchmarks/test_p3_queue_parallel.py``, which ``testpaths`` keeps out
of tier-1 — so a scheduling change that broke only the parallel loop or
only a non-default backend once went unseen.  This is the small tier-1
case: one healthy bank run and one crash-recovery run, every
backend x loop combination against heap + serial.
"""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig
from repro.faults import trace_digest
from repro.sim.parallel import ParallelMachineLoop
from repro.workloads import build_bank_workload

QUEUES = ("heap", "calendar", "ladder")
MAX_EVENTS = 5_000_000


def run_bank(queue: str, parallel: bool, crash: bool):
    machine = Machine(MachineConfig(n_clusters=3, seed=7, trace_enabled=True,
                                    event_queue=queue).validate())
    build_bank_workload(machine, n_clients=3, txns_per_client=40, seed=7)
    if crash:
        machine.crash_cluster(2, at=6_000)
    if parallel:
        loop = ParallelMachineLoop(machine, jobs=2, force=True)
        try:
            loop.run_until_idle(max_events=MAX_EVENTS)
            assert not loop.degraded, loop.degrade_reason
            assert loop.handoffs > 0, "no work reached the workers"
        finally:
            loop.close()
    else:
        machine.run_until_idle(max_events=MAX_EVENTS)
    return (trace_digest(machine), machine.sim.events_executed,
            machine.sim.now, tuple(sorted(machine.exits.items())))


@pytest.mark.parametrize("crash", [False, True],
                         ids=["healthy", "crash-recovery"])
def test_every_backend_and_loop_reproduces_the_serial_heap_run(
        crash: bool) -> None:
    reference = run_bank("heap", parallel=False, crash=crash)
    assert reference[1] > 1_000
    for queue in QUEUES:
        for parallel in (False, True):
            assert run_bank(queue, parallel, crash) == reference, \
                f"queue={queue} parallel={parallel} diverged"


def test_the_crash_run_actually_recovers() -> None:
    """Guards the case above against comparing two runs in which the
    crash never happened (or nothing was promoted)."""
    machine = Machine(MachineConfig(n_clusters=3, seed=7,
                                    trace_enabled=True).validate())
    build_bank_workload(machine, n_clients=3, txns_per_client=40, seed=7)
    machine.crash_cluster(2, at=6_000)
    machine.run_until_idle(max_events=MAX_EVENTS)
    assert machine.trace.count("cluster.crash") == 1
    assert machine.trace.count("recovery.promote") >= 1
