"""Tests for the raw disk server and cluster restoration details."""

from repro.programs import Compute, Exit, Open, StateProgram, Write
from repro.workloads import TtyWriterProgram
from tests.conftest import make_machine


class RawWorker(StateProgram):
    """Write blocks through the raw server, read them back, verify."""

    name = "raw_worker"
    start_state = "open"

    def __init__(self, blocks: int = 6) -> None:
        self._blocks = blocks

    def declare(self, space):
        space.declare("i", 1)
        space.declare("ok", 1)

    def init(self, mem, regs):
        super().init(mem, regs)
        mem.set("i", 0)
        mem.set("ok", 1)

    def state_open(self, ctx):
        ctx.goto("opened")
        return Open("raw:0")

    def state_opened(self, ctx):
        ctx.regs["fd"] = ctx.rv
        ctx.goto("write")
        return Compute(10)

    def state_write(self, ctx):
        i = ctx.mem.get("i")
        if i >= self._blocks:
            ctx.mem.set("i", 0)
            ctx.goto("read")
            return Compute(10)
        ctx.goto("written")
        return Write(ctx.regs["fd"], ("rwrite", i, (i, i + 1, i + 2)),
                     await_reply=True)

    def state_written(self, ctx):
        ctx.mem.set("i", ctx.mem.get("i") + 1)
        ctx.goto("write")
        return Compute(10)

    def state_read(self, ctx):
        i = ctx.mem.get("i")
        if i >= self._blocks:
            return Exit(0 if ctx.mem.get("ok") else 1)
        ctx.goto("checked")
        return Write(ctx.regs["fd"], ("rread", i), await_reply=True)

    def state_checked(self, ctx):
        i = ctx.mem.get("i")
        tag, data = ctx.rv
        if tag != "block" or data is None or tuple(data) != (i, i + 1, i + 2):
            ctx.mem.set("ok", 0)
        ctx.mem.set("i", i + 1)
        ctx.goto("read")
        return Compute(10)


def test_raw_block_roundtrip():
    machine = make_machine()
    pid = machine.spawn(RawWorker(blocks=5), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[pid] == 0


def test_raw_read_missing_block_is_none():
    class MissReader(StateProgram):
        name = "miss_reader"
        start_state = "open"

        def state_open(self, ctx):
            ctx.goto("opened")
            return Open("raw:0")

        def state_opened(self, ctx):
            ctx.regs["fd"] = ctx.rv
            ctx.goto("checked")
            return Write(ctx.regs["fd"], ("rread", 999), await_reply=True)

        def state_checked(self, ctx):
            tag, data = ctx.rv
            return Exit(0 if (tag, data) == ("block", None) else 1)

    machine = make_machine()
    pid = machine.spawn(MissReader(), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[pid] == 0


def test_raw_server_survives_primary_cluster_crash():
    def run(crash_at=None):
        machine = make_machine()
        pid = machine.spawn(RawWorker(blocks=8), cluster=2,
                            sync_reads_threshold=4)
        if crash_at is not None:
            machine.crash_cluster(0, at=crash_at)
        machine.run_until_idle(max_events=30_000_000)
        return machine, pid

    baseline, pid = run()
    assert baseline.exits[pid] == 0
    machine, pid = run(crash_at=20_000)
    assert machine.exits[pid] == 0
    assert machine.metrics.counter("server.promotions") >= 1


def test_raw_and_fs_use_separate_disks():
    machine = make_machine()
    assert machine.disks["rawdisk"] is not machine.disks["disk0"]
    assert machine.raw_harness.device is machine.disks["rawdisk"]


# -- cluster restoration details -------------------------------------------------

def test_restore_requires_prior_crash():
    import pytest
    from repro import MachineError

    machine = make_machine()
    with pytest.raises(MachineError):
        machine.restore_cluster(1)


def test_restored_cluster_accepts_new_processes():
    machine = make_machine()
    machine.crash_cluster(2)
    machine.run(until=80_000)
    machine.restore_cluster(2)
    pid = machine.spawn(TtyWriterProgram(lines=3, tag="n"), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[pid] == 0
    assert machine.tty_output()[-3:] == ["n:0", "n:1", "n:2"]


def test_restored_kernel_allocates_fresh_id_epoch():
    machine = make_machine()
    old_pid = machine.spawn(TtyWriterProgram(lines=30, tag="a",
                                             compute=2_000),
                            cluster=2, sync_reads_threshold=3)
    machine.crash_cluster(2, at=10_000)
    machine.run(until=80_000)
    machine.restore_cluster(2)
    new_pid = machine.spawn(TtyWriterProgram(lines=2, tag="b"), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    # The promoted old process (now elsewhere) and the new one coexist.
    assert new_pid != old_pid
    assert machine.exits[old_pid] == 0
    assert machine.exits[new_pid] == 0


def test_restore_then_second_crash_of_other_cluster():
    """After a crash + restore, the machine tolerates the next single
    failure (re-protection gives halfbacks their backups back)."""
    from repro import BackupMode

    machine = make_machine(n_clusters=3)
    pid = machine.spawn(TtyWriterProgram(lines=50, tag="h", compute=2_500),
                        cluster=2, sync_reads_threshold=3,
                        backup_mode=BackupMode.HALFBACK)
    machine.crash_cluster(2, at=15_000)     # promoted to cluster 0
    machine.run(until=90_000)
    machine.restore_cluster(2)              # new backup re-created in 2
    machine.run(until=150_000)
    machine.crash_cluster(0, at=160_000)    # kills the promoted primary
    machine.run_until_idle(max_events=40_000_000)
    baseline = make_machine(n_clusters=3)
    baseline.spawn(TtyWriterProgram(lines=50, tag="h", compute=2_500),
                   cluster=2)
    baseline.run_until_idle(max_events=40_000_000)
    assert machine.exits[pid] == 0
    assert machine.tty_output() == baseline.tty_output()
