"""White-box tests of kernel internals: allocation, the deterministic
consumption rule (``which``), suppression, delivery handling."""

import pytest

from repro.kernel.kernel import KernelError
from repro.messages.message import (Delivery, DeliveryRole, Message,
                                    MessageKind, QueuedMessage)
from repro.messages.routing import PeerKind, RoutingEntry
from repro.programs import BusyProgram, IdleProgram
from repro.types import ID_SPACE
from tests.conftest import make_machine


@pytest.fixture
def machine():
    return make_machine()


@pytest.fixture
def kernel(machine):
    return machine.kernels[0]


def spawn_pcb(machine, cluster=2, **kwargs):
    pid = machine.spawn(BusyProgram(steps=100, cost_per_step=1_000),
                        cluster=cluster, **kwargs)
    return machine.kernels[cluster].pcbs[pid]


# -- allocation -------------------------------------------------------------

def test_pid_allocation_is_cluster_partitioned(machine):
    pid0 = machine.kernels[0].alloc_pid()
    pid1 = machine.kernels[1].alloc_pid()
    assert pid0 // ID_SPACE == 0
    assert pid1 // ID_SPACE == 1
    assert pid0 != pid1


def test_channel_and_msg_ids_monotonic(kernel):
    assert kernel.alloc_channel_id() < kernel.alloc_channel_id()
    assert kernel.next_msg_id() < kernel.next_msg_id()


def test_fd_allocation_sequential(machine):
    pcb = spawn_pcb(machine)
    fd_a = pcb.alloc_fd(12345)
    fd_b = pcb.alloc_fd(12346)
    assert fd_b == fd_a + 1
    assert pcb.channel_for_fd(fd_a) == 12345


def test_wellknown_channels_created_at_spawn(machine):
    pcb = spawn_pcb(machine)
    assert pcb.signal_channel is not None
    assert pcb.page_channel is not None
    # fs and ps channels have descriptors 0 and 1.
    assert pcb.fs_channel_fd == 0
    assert pcb.ps_channel_fd == 1
    kernel = machine.kernels[pcb.cluster_id]
    assert len(kernel.routing.entries_for_pid(pcb.pid)) == 4


# -- the deterministic consumption rule (7.5.1) -------------------------------

def queue_message(kernel, entry, payload, seqno):
    message = Message(
        msg_id=seqno, kind=MessageKind.DATA, src_pid=1, dst_pid=entry.owner_pid,
        channel_id=entry.channel_id, payload=payload, size_bytes=16,
        deliveries=())
    entry.queue.append(QueuedMessage(message=message, arrival_seqno=seqno))


def test_try_consume_single_fd_fifo(machine):
    pcb = spawn_pcb(machine)
    kernel = machine.kernels[pcb.cluster_id]
    chan = pcb.fds[pcb.fs_channel_fd]
    entry = kernel.routing.require(chan, pcb.pid)
    queue_message(kernel, entry, "first", 10)
    queue_message(kernel, entry, "second", 11)
    assert kernel.try_consume(pcb, (pcb.fs_channel_fd,))[1] == "first"
    assert kernel.try_consume(pcb, (pcb.fs_channel_fd,))[1] == "second"
    assert kernel.try_consume(pcb, (pcb.fs_channel_fd,)) is None


def test_try_consume_picks_lowest_arrival_seqno_across_channels(machine):
    """The ``which`` rule: cross-channel choice follows cluster arrival
    order, never fd order."""
    pcb = spawn_pcb(machine)
    kernel = machine.kernels[pcb.cluster_id]
    fs_entry = kernel.routing.require(pcb.fds[pcb.fs_channel_fd], pcb.pid)
    ps_entry = kernel.routing.require(pcb.fds[pcb.ps_channel_fd], pcb.pid)
    queue_message(kernel, fs_entry, "late", 20)
    queue_message(kernel, ps_entry, "early", 7)
    fd, payload = kernel.try_consume(
        pcb, (pcb.fs_channel_fd, pcb.ps_channel_fd))
    assert payload == "early"
    fd, payload = kernel.try_consume(
        pcb, (pcb.fs_channel_fd, pcb.ps_channel_fd))
    assert payload == "late"


def test_try_consume_empty_fds_means_all(machine):
    pcb = spawn_pcb(machine)
    kernel = machine.kernels[pcb.cluster_id]
    ps_entry = kernel.routing.require(pcb.fds[pcb.ps_channel_fd], pcb.pid)
    queue_message(kernel, ps_entry, "hello", 5)
    fd, payload = kernel.try_consume(pcb, ())
    assert payload == "hello"
    assert fd == pcb.ps_channel_fd


def test_try_consume_counts_reads(machine):
    pcb = spawn_pcb(machine)
    kernel = machine.kernels[pcb.cluster_id]
    entry = kernel.routing.require(pcb.fds[pcb.fs_channel_fd], pcb.pid)
    queue_message(kernel, entry, "x", 1)
    before = pcb.reads_since_sync
    kernel.try_consume(pcb, (pcb.fs_channel_fd,))
    assert pcb.reads_since_sync == before + 1
    assert entry.reads_since_sync == 1
    assert entry.changed_since_sync


def test_try_consume_bad_fd_raises(machine):
    pcb = spawn_pcb(machine)
    kernel = machine.kernels[pcb.cluster_id]
    with pytest.raises(KernelError):
        kernel.try_consume(pcb, (99,))


def test_bunch_read_picks_lowest_seqno_whatever_the_fd_insertion_order(
        machine):
    """``ReadAny(fds=())`` scans the fd map in place: the lowest head
    arrival seqno wins even when the map's insertion order is not fd
    order, and a tie goes to the lower fd."""
    pcb = spawn_pcb(machine)
    kernel = machine.kernels[pcb.cluster_id]
    pcb.fds = dict(reversed(list(pcb.fds.items())))
    assert list(pcb.fds) != sorted(pcb.fds)
    fs_fd, ps_fd = pcb.fs_channel_fd, pcb.ps_channel_fd
    fs_entry = kernel.routing.require(pcb.fds[fs_fd], pcb.pid)
    ps_entry = kernel.routing.require(pcb.fds[ps_fd], pcb.pid)
    queue_message(kernel, fs_entry, "fs-late", 9)
    queue_message(kernel, ps_entry, "ps-early", 4)
    assert kernel.try_consume(pcb, ()) == (ps_fd, "ps-early")
    queue_message(kernel, ps_entry, "ps-tied", 9)
    assert kernel.try_consume(pcb, ()) == (min(fs_fd, ps_fd), "fs-late")
    assert kernel.try_consume(pcb, ()) == (ps_fd, "ps-tied")
    assert kernel.try_consume(pcb, ()) is None


def test_bunch_read_matches_a_scan_in_sorted_fd_order(machine):
    """Randomized: the in-place scan picks what the sorted-order scan
    with a strict ``<`` picked, over shuffled fd maps and tied seqnos."""
    import random

    rng = random.Random(11)
    pcb = spawn_pcb(machine)
    kernel = machine.kernels[pcb.cluster_id]
    for chan in range(900_001, 900_007):
        kernel.routing.add(RoutingEntry(
            channel_id=chan, owner_pid=pcb.pid, is_backup=False,
            peer_pid=None, peer_cluster=None, peer_backup_cluster=None,
            fd=pcb.alloc_fd(chan)))
    entries = [kernel.routing.require(chan, pcb.pid)
               for chan in pcb.fds.values()]

    def sorted_scan():
        best = None
        for fd in sorted(pcb.fds):
            entry = kernel.routing.get(pcb.fds[fd], pcb.pid)
            if entry.queue and (best is None
                                or entry.queue[0].arrival_seqno < best[0]):
                best = (entry.queue[0].arrival_seqno, fd)
        return best

    for _ in range(200):
        items = list(pcb.fds.items())
        rng.shuffle(items)
        pcb.fds = dict(items)
        for entry in entries:
            entry.queue.clear()
            if rng.random() < 0.6:
                queue_message(kernel, entry, entry.channel_id,
                              rng.randrange(1, 5))
        expected = sorted_scan()
        got = kernel.try_consume(pcb, ())
        if expected is None:
            assert got is None
        else:
            assert got[0] == expected[1]


# -- compiled channel routes --------------------------------------------------------

def route_view(message):
    """A message's deliveries and per-cluster leg groups as plain values."""
    def leg(delivery):
        return (delivery.cluster_id, delivery.role, delivery.pid,
                delivery.channel_id)
    return ([leg(d) for d in message.deliveries],
            [(cluster, [(leg(d), label) for d, label in legs])
             for cluster, legs in message.leg_groups])


def test_route_cache_follows_every_routing_change():
    """The compiled route is rebuilt whenever the routing key changes:
    after each promotion, backup loss, backup re-creation and sender
    backup move, the next message routes exactly as a route built from
    scratch does, by the three-way rule of 5.1."""
    from repro.hardware.cluster import group_legs

    machine = make_machine(n_clusters=4)
    pcb = spawn_pcb(machine, cluster=0)
    kernel = machine.kernels[0]
    entry = kernel.routing.require(pcb.fds[pcb.fs_channel_fd], pcb.pid)
    entry.peer_kind = PeerKind.USER
    peer = entry.peer_pid

    def check():
        cached = kernel._build_channel_message(pcb, entry, "x", None,
                                               MessageKind.DATA)
        again = kernel._build_channel_message(pcb, entry, "y", None,
                                              MessageKind.DATA)
        assert again.deliveries is cached.deliveries  # compiled once
        entry.route = None
        scratch = kernel._build_channel_message(pcb, entry, "z", None,
                                                MessageKind.DATA)
        assert route_view(cached) == route_view(scratch)
        expected = [(entry.peer_cluster, DeliveryRole.PRIMARY_DEST, peer,
                     entry.channel_id)]
        if entry.peer_backup_cluster is not None:
            expected.append((entry.peer_backup_cluster,
                             DeliveryRole.DEST_BACKUP, peer,
                             entry.channel_id))
        if pcb.backup_cluster is not None:
            expected.append((pcb.backup_cluster, DeliveryRole.SENDER_BACKUP,
                             pcb.pid, entry.channel_id))
        assert route_view(cached)[0] == expected
        grouped = group_legs(MessageKind.DATA, cached.deliveries)
        assert route_view(cached)[1] == [
            (cluster, [((d.cluster_id, d.role, d.pid, d.channel_id), label)
                       for d, label in legs]) for cluster, legs in grouped]
        return route_view(cached)

    spare = [c for c in range(4) if c not in
             (entry.peer_cluster, entry.peer_backup_cluster)]
    seen = [check()]
    kernel.routing.repair_after_crash(entry.peer_backup_cluster)  # loses it
    assert entry.peer_backup_cluster is None
    seen.append(check())
    kernel.routing.apply_backup_ready(peer, spare[0])              # regains
    seen.append(check())
    kernel.routing.repair_after_crash(entry.peer_cluster)          # promoted
    assert entry.peer_cluster == spare[0]
    seen.append(check())
    kernel.routing.apply_backup_ready(peer, spare[1])
    seen.append(check())
    pcb.backup_cluster = next(c for c in range(1, 4)
                              if c != pcb.backup_cluster)         # moves
    seen.append(check())
    pcb.backup_cluster = None                                      # gone
    seen.append(check())
    assert all(a != b for a, b in zip(seen, seen[1:]))


# -- write suppression (5.4) -----------------------------------------------------

def test_send_suppressed_while_count_positive(machine):
    pcb = spawn_pcb(machine)
    kernel = machine.kernels[pcb.cluster_id]
    entry = kernel.routing.require(pcb.fds[pcb.fs_channel_fd], pcb.pid)
    entry.writes_since_sync = 2
    assert kernel.send_user_message(pcb, entry, "a") is False
    assert kernel.send_user_message(pcb, entry, "b") is False
    assert entry.writes_since_sync == 0
    # Count exhausted: the third send goes out for real.
    assert kernel.send_user_message(pcb, entry, "c") is True
    assert kernel.metrics.counter("recovery.sends_suppressed") == 2


def test_sender_backup_delivery_increments_count(machine):
    machine.run_until_idle()  # let boot traffic settle
    pcb = spawn_pcb(machine, cluster=0)
    backup_kernel = machine.kernels[pcb.backup_cluster]
    machine.run(until=machine.sim.now + 5_000)  # notice delivered; not exited
    # Simulate the SENDER_BACKUP leg for a message on the fs channel.
    chan = pcb.fds[pcb.fs_channel_fd]
    entry = backup_kernel.routing.get(chan, pcb.pid)
    assert entry is not None
    message = Message(
        msg_id=1, kind=MessageKind.DATA, src_pid=pcb.pid, dst_pid=2,
        channel_id=chan, payload="x", size_bytes=8,
        deliveries=(Delivery(pcb.backup_cluster,
                             DeliveryRole.SENDER_BACKUP, pcb.pid, chan),))
    backup_kernel.handle_delivery(
        message, message.deliveries[0], seqno=1)
    assert entry.writes_since_sync == 1


# -- delivery robustness -----------------------------------------------------------

def test_delivery_to_unknown_channel_dropped(machine, kernel):
    message = Message(
        msg_id=1, kind=MessageKind.DATA, src_pid=None, dst_pid=424242,
        channel_id=999999, payload="x", size_bytes=8,
        deliveries=(Delivery(0, DeliveryRole.PRIMARY_DEST, 424242, 999999),))
    kernel.handle_delivery(message, message.deliveries[0], seqno=1)
    assert machine.metrics.counter("msg.dropped_no_entry") == 1


def test_halted_kernel_ignores_deliveries(machine, kernel):
    kernel.halt()
    message = Message(
        msg_id=1, kind=MessageKind.DATA, src_pid=None, dst_pid=1,
        channel_id=1, payload="x", size_bytes=8,
        deliveries=(Delivery(0, DeliveryRole.PRIMARY_DEST, 1, 1),))
    kernel.handle_delivery(message, message.deliveries[0], seqno=1)
    assert machine.metrics.counter("msg.delivered_primary") == 0


def test_lazy_entry_applies_crash_knowledge(machine, kernel):
    """A saved request re-serviced after a crash names the sender's old
    cluster; the lazily created entry must point at its backup."""
    fs_pid = machine.directory.server("fs").pid
    kernel.known_dead.add(2)
    message = Message(
        msg_id=1, kind=MessageKind.DATA, src_pid=777, dst_pid=fs_pid,
        channel_id=555, payload="x", size_bytes=8,
        deliveries=(Delivery(0, DeliveryRole.PRIMARY_DEST, fs_pid, 555),),
        src_cluster=2, src_backup_cluster=0)
    kernel.handle_delivery(message, message.deliveries[0], seqno=1)
    entry = kernel.routing.get(555, fs_pid)
    assert entry is not None
    assert entry.peer_cluster == 0
    assert entry.peer_backup_cluster is None


# -- spawn / exit edge cases -----------------------------------------------------

def test_duplicate_pid_rejected(machine, kernel):
    pcb = kernel.create_process(IdleProgram(), None, notify_backup=False,
                                make_ready=False)
    with pytest.raises(KernelError):
        kernel.create_process(IdleProgram(), None, fixed_pid=pcb.pid,
                              notify_backup=False, make_ready=False)


def test_unprotected_process_never_syncs(machine):
    pid = machine.spawn(BusyProgram(steps=100, cost_per_step=5_000),
                        backup_mode=None, cluster=2,
                        sync_time_threshold=10_000)
    machine.run_until_idle()
    assert machine.exits[pid] == 0
    assert machine.metrics.counter("sync.performed") == 0
