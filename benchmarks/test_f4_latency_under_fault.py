"""F4 — latency under fault: request-latency percentiles through
crash recovery and bus degradation.

The paper argues fault tolerance is affordable because its cost hides
off the critical path (section 8); F1–F3 price that in *throughput*
(virtual completion time).  F4 prices it where production systems
actually feel it: the request-latency distribution.  The OLTP bank
workload runs under escalating fault regimes and the per-request
latency histogram (``latency.request``: Send-to-reply round trips in
virtual ticks) is summarized per regime into a p50/p90/p99 curve.

Expected shape, asserted below and recorded in ``BENCH_core.json``:

* The *median* barely moves under a crash — requests that never touch
  the crashed window are untouched; fault tolerance is a tail
  phenomenon.  p50 under crash equals the failure-free p50.
* p99 escalates monotonically: clean bus < degraded bus (retry delay)
  < cluster crash (recovery stall) <= crash on a degraded bus.
* Every regime still delivers exactly one reply per transaction (the
  exactly-once invariant) — the latency is the whole price.

All latencies are deterministic virtual time, so the recorded curve is
reproducible to the tick and the assertions hold on any host.
"""

from __future__ import annotations

from repro import BackupMode, Machine, MachineConfig
from repro.config import BusFaultConfig
from repro.metrics import format_table
from repro.workloads import build_bank_workload

from conftest import record_section, run_once

CRASH_AT = 12_000
N_CLIENTS = 2
TXNS = 8
EXPECTED_REQUESTS = N_CLIENTS * TXNS

#: name -> (loss_rate, garble_rate, crash server cluster?)
REGIMES = (
    ("baseline", 0.0, 0.0, False),
    ("degraded-bus", 0.15, 0.05, False),
    ("crash-rollforward", 0.0, 0.0, True),
    ("crash-on-degraded-bus", 0.15, 0.05, True),
    ("failover-grade-bus", 0.45, 0.25, False),
)


def run_regime(loss_rate, garble_rate, crash):
    config = MachineConfig(n_clusters=3, trace_enabled=False, seed=7)
    if loss_rate:
        config.bus_faults = BusFaultConfig(loss_rate=loss_rate,
                                           garble_rate=garble_rate,
                                           seed=11)
    machine = Machine(config.validate())
    _, clients, _ = build_bank_workload(
        machine, n_clients=N_CLIENTS, txns_per_client=TXNS, accounts=8,
        seed=7, server_mode=BackupMode.FULLBACK, server_cluster=2)
    if crash:
        machine.crash_cluster(2, at=CRASH_AT)
    machine.run_until_idle(max_events=40_000_000)
    return machine, clients


def run_sweep():
    curves = {}
    for name, loss, garble, crash in REGIMES:
        machine, clients = run_regime(loss, garble, crash)
        summary = machine.metrics.histogram("latency.request").summary()
        queue = machine.metrics.histogram("latency.queue_wait")
        curves[name] = {
            "loss_rate": loss,
            "garble_rate": garble,
            "server_crash": crash,
            "completion_ticks": machine.sim.now,
            "request": summary,
            "queue_wait": queue.summary() if queue is not None else None,
            "client_exits": [machine.exits.get(pid) for pid in clients],
        }
    return curves


def test_f4_latency_under_fault(benchmark, table_printer):
    curves = run_once(benchmark, run_sweep)
    rows = []
    for name, _, _, _ in REGIMES:
        req = curves[name]["request"]
        rows.append([name, req["count"], req["p50"], req["p90"],
                     req["p99"], req["max"],
                     curves[name]["completion_ticks"]])
    table_printer(format_table(
        ["fault regime", "requests", "p50", "p90", "p99", "max",
         "completion (ticks)"],
        rows, title="F4: OLTP request latency under fault "
                    "(virtual ticks, deterministic)"))

    base = curves["baseline"]["request"]
    degraded = curves["degraded-bus"]["request"]
    crash = curves["crash-rollforward"]["request"]
    compound = curves["crash-on-degraded-bus"]["request"]
    failover = curves["failover-grade-bus"]["request"]

    # Exactly-once still holds in every regime: all replies arrived,
    # all clients exited clean — latency is the whole price.
    for name in curves:
        assert curves[name]["request"]["count"] == EXPECTED_REQUESTS
        assert all(code == 0 for code in curves[name]["client_exits"])

    # Fault tolerance is a tail phenomenon: the crash leaves the
    # median untouched (requests outside the crash window never see
    # it) while p99 absorbs the whole recovery stall.
    assert crash["p50"] == base["p50"]
    assert crash["p99"] > 10 * base["p99"]

    # p99 escalates monotonically with regime severity.
    assert base["p99"] < degraded["p99"] < crash["p99"] <= compound["p99"]
    assert failover["p99"] > degraded["p99"]

    record_section("latency_under_fault", {
        "workload": (f"oltp bank ({N_CLIENTS} clients x {TXNS} txns, "
                     f"3 clusters, fullback server)"),
        "unit": "virtual ticks",
        "regimes": curves,
    })
