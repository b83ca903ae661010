"""Focused tests for the server layer: the active-backup framework,
device dedup, file-server protocol details, process-server services."""

import pytest

from repro.messages.payloads import ServerSync
from repro.servers import TtyDevice
from repro.workloads import (FileWorkerProgram, MemoryChurnProgram,
                             TtyWriterProgram)
from repro.programs import Compute, Exit, Open, Read, StateProgram, Write
from tests.conftest import make_machine
from tests.test_rawserver_restore import RawWorker


# -- TtyDevice dedup ------------------------------------------------------------

def test_device_accepts_unique_keys():
    device = TtyDevice()
    assert device.write("a", key=(1, 0))
    assert device.write("b", key=(1, 1))
    assert device.output_texts() == ["a", "b"]


def test_device_drops_duplicate_keys():
    device = TtyDevice()
    assert device.write("a", key=(1, 0))
    assert not device.write("a", key=(1, 0))
    assert device.output_texts() == ["a"]


def test_device_none_key_never_deduped():
    device = TtyDevice()
    assert device.write("x", key=None)
    assert device.write("x", key=None)
    assert device.output_texts() == ["x", "x"]


def test_device_keys_scoped_per_client():
    device = TtyDevice()
    assert device.write("a", key=(1, 0))
    assert device.write("b", key=(2, 0))
    assert device.output_texts() == ["a", "b"]


# -- server sync framework ---------------------------------------------------------

def test_server_syncs_sent_and_applied():
    machine = make_machine(server_sync_requests=6)
    machine.spawn(TtyWriterProgram(lines=20, tag="s", compute=500),
                  cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.metrics.counter("server.syncs_sent") >= 2
    assert machine.metrics.counter("server.syncs_applied") >= 2


def test_server_sync_discards_exactly_serviced(quiet_config):
    machine = make_machine(server_sync_requests=6)
    machine.spawn(TtyWriterProgram(lines=20, tag="s", compute=500),
                  cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    tty_pid = machine.directory.server("tty").pid
    backup_kernel = machine.kernels[1]
    # After the final server sync, saved queues hold only the unserviced
    # tail — far fewer than the 40+ requests serviced in total.
    saved = sum(len(e.queue)
                for e in backup_kernel.routing.entries_for_pid(tty_pid)
                if e.is_backup)
    serviced = machine.metrics.counter("server.requests_discarded")
    assert serviced >= 12
    assert saved < 20


#: One client per peripheral server, each driving that server's traffic.
SERVER_CLIENTS = {
    "page": lambda: MemoryChurnProgram(pages=4, rounds=12, compute=500,
                                       total_pages=16),
    "fs": lambda: FileWorkerProgram(records=10, tag="f"),
    "tty": lambda: TtyWriterProgram(lines=12, tag="t", compute=500),
    "raw": lambda: RawWorker(blocks=6),
}


def _server_run(server, crash_at=None):
    machine = make_machine(server_sync_requests=3)
    pid = machine.spawn(SERVER_CLIENTS[server](), cluster=2,
                        sync_reads_threshold=3, sync_time_threshold=3_000)
    if crash_at is not None:
        machine.crash_cluster(0, at=crash_at)
    machine.run_until_idle(max_events=30_000_000)
    return machine, pid


@pytest.mark.parametrize("server", sorted(SERVER_CLIENTS))
def test_every_peripheral_server_runs_the_active_backup_protocol(server):
    machine, pid = _server_run(server)
    assert machine.exits[pid] == 0
    harness = getattr(machine, f"{server}_harness")
    primary = machine.kernels[0].pcbs[harness.pid]
    assert primary.regs.get("_server_sync_seq", 0) >= 2
    # The backup's saved requests are exactly the ones the primary has
    # serviced since its last server sync: every earlier one was trimmed.
    space = primary.space
    unsynced = dict(space.read_word(space.address_of("serviced")))
    saved = {entry.channel_id: len(entry.queue)
             for entry in machine.kernels[1].routing.entries_for_pid(
                 harness.pid)
             if entry.is_backup and entry.queue}
    assert saved == unsynced

    # Crash the primaries' cluster mid-run: the backup is promoted and
    # the client sees what it saw without the crash.
    crashed, crashed_pid = _server_run(server, crash_at=machine.sim.now // 2)
    promoted = getattr(crashed, f"{server}_harness")
    assert promoted.primary_cluster == 1
    assert crashed.metrics.counter("server.promotions") >= 4
    assert crashed.exits == machine.exits
    assert crashed.tty_output() == machine.tty_output()


def test_fs_allocated_channels_dont_collide_with_kernel_ids():
    from repro.servers.fileserver import FS_CHANNEL_BASE
    from repro.types import ID_SPACE

    # 32 clusters of 1M ids each stay below the file server's base.
    assert 32 * ID_SPACE < FS_CHANNEL_BASE


# -- file server protocol ------------------------------------------------------------

class SizeChecker(StateProgram):
    """Writes then queries fsize, exits with the size."""

    name = "size_checker"
    start_state = "open"

    def declare(self, space):
        space.declare("unused", 1)

    def state_open(self, ctx):
        ctx.goto("opened")
        return Open("file:sized")

    def state_opened(self, ctx):
        ctx.regs["fd"] = ctx.rv
        ctx.goto("written")
        return Write(ctx.regs["fd"], ("fwrite", 5, (1, 2, 3)),
                     await_reply=True)

    def state_written(self, ctx):
        ctx.goto("sized")
        return Write(ctx.regs["fd"], ("fsize",), await_reply=True)

    def state_sized(self, ctx):
        tag, size = ctx.rv
        return Exit(size)


def test_file_size_query():
    machine = make_machine()
    pid = machine.spawn(SizeChecker(), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[pid] == 8  # offset 5 + 3 words


class BadOpener(StateProgram):
    name = "bad_opener"
    start_state = "open"

    def state_open(self, ctx):
        ctx.goto("opened")
        return Open("garbage:name")

    def state_opened(self, ctx):
        # Error opens return fd None.
        return Exit(0 if ctx.rv is None else 1)


def test_open_unknown_scheme_returns_error():
    machine = make_machine()
    pid = machine.spawn(BadOpener(), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[pid] == 0


def test_two_files_are_independent():
    machine = make_machine()
    a = machine.spawn(FileWorkerProgram(path="left", records=5, tag="L"),
                      cluster=1)
    b = machine.spawn(FileWorkerProgram(path="right", records=5, tag="R"),
                      cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[a] == 0 and machine.exits[b] == 0
    assert sorted(machine.tty_output()) == ["L:PASS", "R:PASS"]


# -- process server -------------------------------------------------------------------

class PingPongPS(StateProgram):
    """Pings the process server and exits 0 on pong."""

    name = "ps_pinger"
    start_state = "send"

    def state_send(self, ctx):
        ctx.goto("reply")
        return Write(1, ("ping",), await_reply=True)  # fd 1 = ps channel

    def state_reply(self, ctx):
        return Exit(0 if ctx.rv == ("pong",) else 1)


def test_process_server_ping():
    machine = make_machine()
    pid = machine.spawn(PingPongPS(), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[pid] == 0


class RegistryUser(StateProgram):
    name = "registry_user"
    start_state = "register"

    def state_register(self, ctx):
        ctx.goto("query")
        return Write(1, ("register", ctx.pid, 2))

    def state_query(self, ctx):
        ctx.goto("answer")
        return Write(1, ("whereis", ctx.pid), await_reply=True)

    def state_answer(self, ctx):
        tag, cluster = ctx.rv
        return Exit(0 if (tag, cluster) == ("at", 2) else 1)


def test_process_server_registry():
    machine = make_machine()
    pid = machine.spawn(RegistryUser(), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[pid] == 0
