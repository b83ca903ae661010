"""F5 — the four-way recovery-design shootout, plus heartbeat vs poll
detection.

Section 2 of the paper surveys the era's recovery designs
qualitatively; F5 makes the comparison quantitative.  Four designs —
the paper's dual-backup rollforward (``auragen``), frequent whole-state
checkpointing (``checkpoint``), LLFT-style per-input reconciliation
(``llft``, arXiv:1004.1864) and message logging with sparse checkpoints
(``msglog``, arXiv:0911.3092) — protect the same OLTP bank server while
the seeded fault-campaign machinery aims six fault kinds at the
machine.  Every (design, kind) cell reports completion, mean
crash-handling latency and the request p99 under fault; the per-design
curves land in ``BENCH_core.json`` under ``recovery_shootout``.

Expected shape, asserted below:

* Every cell completes: all four designs survive all six fault kinds
  with every client reply delivered (the designs trade *cost*, never
  correctness).
* ``auragen`` owns the steady-state tail: under the non-crash kinds
  (``proc_fail``, ``bus_loss``) its p99 is no worse than any
  alternative's, and ``llft`` — which pays a sync on every input — is
  strictly the worst of the four.
* Replay length is visible under ``time_crash``: designs that replay a
  long suffix (``checkpoint``, ``llft``) pay a far larger p99 than the
  rollforward designs.
* Recovery latency is measured for every crash kind and absent for the
  kinds that never kill a cluster.

The second half prices *detection*: the heartbeat detector against
the baseline poll detector, on an identical crashed
machine.  Heartbeat detection at interval 4000 x (2 misses + 1) must
beat the 50k-tick poll — the acceptance number EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from repro import BackupMode, Machine, MachineConfig
from repro.baselines.designs import DESIGN_ORDER, run_shootout
from repro.metrics import format_table
from repro.workloads import TtyWriterProgram

from conftest import record_section, run_once

KINDS = ("time_crash", "sync_crash", "transmission_crash", "proc_fail",
         "crash_restore", "bus_loss")
CRASH_KINDS = ("time_crash", "sync_crash", "transmission_crash",
               "crash_restore")
TXNS = 12
CRASH_AT = 15_000
HB_INTERVAL = 4_000
HB_MISSES = 2


def _detection_machine(heartbeat: bool) -> Machine:
    config = MachineConfig(n_clusters=3, trace_enabled=True)
    if heartbeat:
        config.detector = "heartbeat"
        config.heartbeat_interval = HB_INTERVAL
        config.heartbeat_miss_threshold = HB_MISSES
    machine = Machine(config.validate())
    machine.spawn(TtyWriterProgram(lines=12, tag="a", compute=2_000),
                  cluster=2, sync_reads_threshold=3,
                  backup_mode=BackupMode.QUARTERBACK)
    machine.crash_cluster(2, at=CRASH_AT)
    machine.run_until_idle(max_events=5_000_000)
    return machine


def measure_detection():
    """Crash-to-detection latency: heartbeat monitor vs poll detector
    on the same crashed single-writer machine."""
    latencies = {}
    for name, heartbeat in (("poll", False), ("heartbeat", True)):
        machine = _detection_machine(heartbeat)
        begins = machine.trace.select("crash.handling_begin")
        latencies[name] = min(r.time for r in begins) - CRASH_AT
    return latencies


def run_f5():
    report = run_shootout(KINDS, txns_per_client=TXNS)
    return report, measure_detection()


def test_f5_recovery_design_shootout(benchmark, table_printer):
    report, detection = run_once(benchmark, run_f5)
    result = report.as_dict()
    p99 = result["p99_by_design"]
    recovery = result["recovery_by_design"]

    rows = []
    for design in DESIGN_ORDER:
        for kind in KINDS:
            cell = report.cell(design, kind)
            rows.append([design, kind, cell.request_p99,
                         cell.recovery_latency_mean, cell.syncs,
                         cell.checkpoints, cell.end_time])
    # One contiguous block (no blank line) so the EXPERIMENTS.md
    # generator captures both tables under the single F5 tag.
    table_printer(format_table(
        ["design", "fault kind", "request p99", "recovery mean",
         "syncs", "ckpts", "completion"],
        rows, title=f"F5: recovery-design shootout (3 clients x {TXNS} "
                    f"txns, virtual ticks, deterministic)")
        + "\n" + format_table(
        ["detector", "crash-to-detection (ticks)"],
        [["poll detector", detection["poll"]],
         [f"heartbeat ({HB_INTERVAL} x {HB_MISSES} misses)",
          detection["heartbeat"]]],
        title="crash-detection latency, heartbeat vs poll"))

    # Correctness is never traded: every design survives every kind.
    assert all(cell.completed for cell in report.cells)

    # Steady-state tail: auragen is never beaten on the non-crash
    # kinds, and llft's per-input sync makes it strictly the worst.
    for kind in ("proc_fail", "bus_loss"):
        for design in ("checkpoint", "llft", "msglog"):
            assert p99["auragen"][kind] <= p99[design][kind], \
                (design, kind)
        for design in ("auragen", "checkpoint", "msglog"):
            assert p99["llft"][kind] > p99[design][kind], (design, kind)

    # Replay length dominates the crash tail: a time_crash costs the
    # long-replay designs an order of magnitude over rollforward.
    assert p99["checkpoint"]["time_crash"] > 10 * p99["auragen"]["time_crash"]
    assert p99["msglog"]["time_crash"] <= p99["checkpoint"]["time_crash"]

    # Recovery latency exists exactly for the kinds that kill a cluster.
    for design in DESIGN_ORDER:
        for kind in CRASH_KINDS:
            assert recovery[design][kind] is not None, (design, kind)
        assert recovery[design]["proc_fail"] is None
        assert recovery[design]["bus_loss"] is None

    # Acceptance: heartbeat detection demonstrably beats polling.
    assert detection["heartbeat"] < detection["poll"]
    assert detection["heartbeat"] <= (HB_MISSES + 1) * HB_INTERVAL + 1_000

    record_section("recovery_shootout", {
        "workload": f"oltp bank (3 clients x {TXNS} txns, 3 clusters, "
                    f"fullback server)",
        "kinds": list(KINDS),
        "designs": list(DESIGN_ORDER),
        "p99_by_design": result["p99_by_design"],
        "recovery_by_design": result["recovery_by_design"],
        "detection_latency": {
            "poll": detection["poll"],
            "heartbeat": detection["heartbeat"],
            "heartbeat_interval": HB_INTERVAL,
            "heartbeat_miss_threshold": HB_MISSES,
        },
    })
