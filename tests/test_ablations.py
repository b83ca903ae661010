"""Regression tests for the E13 ablations (``tests/ablations.py``): they
must actually break recovery, proving the mechanisms are load-bearing,
and they are method patches, not machine options."""

import pytest

from repro import Machine, MachineConfig
from repro.workloads import TtyWriterProgram
from tests.ablations import no_saved_queues, no_send_suppression


def writer_run(crash_at=15_000):
    machine = Machine(MachineConfig(n_clusters=3, trace_enabled=False))
    pid = machine.spawn(TtyWriterProgram(lines=12, tag="a", compute=2_000),
                        cluster=2, sync_reads_threshold=3)
    machine.crash_cluster(2, at=crash_at)
    machine.run(until=600_000)
    return machine, pid


def test_ablations_default_off():
    # No machine option turns an ablation on: only the patches do.
    with pytest.raises(TypeError):
        MachineConfig(ablate_send_suppression=True)


def test_without_saved_queues_recovery_stalls():
    baseline, pid = writer_run()
    assert baseline.exits[pid] == 0
    # Recovery is broken by construction: the promoted writer either
    # stalls forever (no saved acks to replay) or trips over routing
    # entries that were never created (no saved open replies).
    with no_saved_queues():
        try:
            machine, pid = writer_run()
        except Exception:
            return  # the machine itself fell over: conclusively broken
    assert machine.exits.get(pid) != 0 or \
        machine.tty_output() != baseline.tty_output()
    assert machine.metrics.counter("ablation.backup_copies_dropped") > 0


def test_without_suppression_duplicates_reach_device():
    baseline, pid = writer_run()
    with no_send_suppression():
        machine, pid = writer_run()
    # Re-sent prints reach the terminal controller; only its dedup filter
    # (the last line of defense) keeps the screen clean.
    assert machine.metrics.counter("recovery.sends_suppressed") == 0
    assert machine.metrics.counter("tty.duplicates_dropped") > 0
