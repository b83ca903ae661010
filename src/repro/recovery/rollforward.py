"""Backup promotion and rollforward (sections 6 and 7.10.2).

Promotion turns a :class:`~repro.kernel.pcb.BackupRecord` into a runnable
primary:

* registers and fd map come from the last applied sync;
* the address space starts empty and demand-faults in from the backup
  page account ("it will immediately page fault and gradually bring its
  address space into memory");
* the backup routing entries become live entries — their saved queues are
  the input replayed in the original order, and their writes-since-sync
  counts suppress the re-sending of messages the lost primary already
  sent;
* a backup that never synced (a short-lived child) restarts from the
  program's initial state instead, replaying its whole saved input.

Fullbacks get a new backup *before* the new primary runs: the promoted
state is shipped to a third cluster as a *full sync* (including
unconsumed queue snapshots), and the process becomes runnable when the
resulting BACKUP_READY broadcast returns.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..backup.modes import BackupMode
from ..backup.sync import clamp_alarm_remaining
from ..config import WORDS_PER_PAGE
from ..kernel.pcb import BackupRecord, ProcState, ProcessControlBlock
from ..kernel.nondet import NondetBuffer
from ..messages.payloads import BackupReady, PageAccountOp
from ..paging import AddressSpace
from ..types import ClusterId

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import ClusterKernel


def promote_backups(kernel: "ClusterKernel", crashed: ClusterId) -> int:
    """Promote every backup whose primary ran in the crashed cluster.
    Returns the number promoted."""
    count = 0
    for pid in sorted(kernel.backups):
        record = kernel.backups[pid]
        if record.home_cluster != crashed:
            continue
        promote(kernel, record, crashed)
        count += 1
    # Children that never synced have only a birth notice here.  If their
    # parent was promoted, its re-executed fork recreates them; if the
    # parent is gone (exited before the crash), restart them from the
    # notice directly so they are not lost.
    for pid in sorted(kernel.birth_notices):
        notice = kernel.birth_notices[pid]
        if kernel.birth_home.get(pid) != crashed:
            continue
        if pid in kernel.pcbs or pid in kernel.backups:
            continue
        if notice.parent_pid in kernel.pcbs:
            continue  # the promoted parent will re-fork it
        record = BackupRecord(
            pid=pid, program=notice.program, home_cluster=crashed,
            backup_cluster=kernel.cluster_id,
            backup_mode=notice.backup_mode, family_head=notice.family_head,
            is_server=kernel.birth_is_server.get(pid, False))
        promote(kernel, record, crashed)
        kernel.metrics.incr("recovery.orphan_restarts")
        count += 1
    return count


def promote(kernel: "ClusterKernel", record: BackupRecord,
            crashed: ClusterId) -> Optional[ProcessControlBlock]:
    """Bring one backup up as the new primary in this cluster."""
    pid = record.pid
    kernel.backups.pop(pid, None)
    if pid in kernel.pcbs:
        # Already promoted (defensive; promotion is idempotent per pid).
        return kernel.pcbs[pid]

    started = kernel.sim.now
    if record.synced_once:
        pcb = _promote_from_sync_state(kernel, record)
    else:
        pcb = _restart_from_initial_state(kernel, record)
    if pcb is None:
        kernel.metrics.incr("recovery.promotions_failed")
        return None

    pcb.recovering = True
    pcb.sync_seq = record.sync_seq
    # Flip the saved entries into live primary entries; associate fds.
    chan_to_fd = {chan: fd for fd, chan in pcb.fds.items()}
    for entry in sorted(kernel.routing.entries_for_pid(pid),
                        key=lambda e: e.channel_id):
        entry.is_backup = False
        if entry.fd is None:
            entry.fd = chan_to_fd.get(entry.channel_id)
        if entry.fd is None and record.is_server:
            # Server request channels are created lazily on arrival and
            # never pass through an open reply; give them descriptors now
            # so the server's bunch-over-all-fds read sees them.
            entry.fd = pcb.alloc_fd(entry.channel_id)

    # Re-arm alarms outstanding at the sync point (delivered signals are
    # deduplicated through the _sig_seen register).
    for seq, remaining in record.pending_alarms:
        kernel.schedule_alarm(pcb, seq, clamp_alarm_remaining(remaining))

    mode = record.backup_mode
    kernel.metrics.incr("recovery.promotions")
    kernel.metrics.incr(f"recovery.promotions_{mode.value}")
    kernel.trace.emit(started, "recovery.promote", pid=pid,
                      cluster=kernel.cluster_id, mode=mode.value,
                      synced=record.synced_once)

    if mode is BackupMode.FULLBACK:
        _recreate_fullback_backup(kernel, pcb, crashed)
    else:
        pcb.backup_cluster = None
        pcb.has_backup_process = False
        if mode is BackupMode.HALFBACK:
            pcb.lost_backup_in = crashed
        kernel.scheduler.make_ready(pcb)
    return pcb


def _promote_from_sync_state(kernel: "ClusterKernel",
                             record: BackupRecord
                             ) -> ProcessControlBlock:
    """The normal path: resume from the last synchronized state."""
    space = AddressSpace(WORDS_PER_PAGE)
    record.program.declare(space)
    space.evict_all()  # no pages resident: demand-fault from the account
    pcb = ProcessControlBlock(
        pid=record.pid, program=record.program,
        cluster_id=kernel.cluster_id, backup_cluster=None,
        backup_mode=record.backup_mode, family_head=record.family_head,
        parent=None, space=space, is_server=record.is_server,
        regs=dict(record.regs), fds=dict(record.fds),
        next_fd=record.next_fd,
        signal_channel=record.signal_channel,
        page_channel=record.page_channel,
        fs_channel_fd=record.fs_channel_fd,
        ps_channel_fd=record.ps_channel_fd,
        sync_reads_threshold=record.sync_reads_threshold,
        sync_time_threshold=record.sync_time_threshold)
    kernel.pcbs[record.pid] = pcb
    kernel.nondet_buffers[record.pid] = NondetBuffer()
    # The backup page account becomes the primary account before any
    # page-in can race with new page-outs (FIFO channel ordering).
    kernel._send_page_channel(pcb, PageAccountOp(op="promote",
                                                 pid=record.pid))
    return pcb


def _restart_from_initial_state(kernel: "ClusterKernel",
                                record: BackupRecord
                                ) -> Optional[ProcessControlBlock]:
    """A backup that never synced restarts from the program's initial
    state and replays its entire saved input (7.7: short-lived processes
    may never need a backup process or page account)."""
    notice = kernel.birth_notices.get(record.pid)
    if notice is not None:
        fixed_channels = {kind: chan for chan, kind in notice.channels}
    else:
        # Head-of-family record created at spawn: its well-known channel
        # ids live on the routing entries we already hold.
        fixed_channels = {}
        for kind, chan in _wellknown_from_record(kernel, record).items():
            if chan is not None:
                fixed_channels[kind] = chan
        if not fixed_channels:
            return None
    pcb = kernel.create_process(
        record.program, record.backup_mode,
        family_head=record.family_head, fixed_pid=record.pid,
        fixed_channels=fixed_channels, is_server=record.is_server,
        backup_cluster=None, notify_backup=False,
        adopt_existing_entries=True,
        sync_reads_threshold=record.sync_reads_threshold,
        sync_time_threshold=record.sync_time_threshold,
        make_ready=False)
    kernel.metrics.incr("recovery.restarts_from_initial")
    return pcb


def _wellknown_from_record(kernel: "ClusterKernel",
                           record: BackupRecord) -> dict:
    """Recover well-known channel ids from the record's synced fields or,
    failing that, from the entries held for the pid."""
    result = {"signal": record.signal_channel, "page": record.page_channel}
    fs_chan = record.fds.get(record.fs_channel_fd) \
        if record.fs_channel_fd is not None else None
    ps_chan = record.fds.get(record.ps_channel_fd) \
        if record.ps_channel_fd is not None else None
    if fs_chan is None or ps_chan is None or result["signal"] is None:
        # Never synced: reconstruct from the entries created at birth.
        entries = kernel.routing.entries_for_pid(record.pid)
        ids = [e.channel_id for e in entries]
        ids.sort()
        # Creation order: signal, fs, ps, page (see kernel creation path).
        if len(ids) >= 4:
            result = {"signal": ids[0], "fs": ids[1], "ps": ids[2],
                      "page": ids[3]}
        return result
    result["fs"] = fs_chan
    result["ps"] = ps_chan
    return result


def _recreate_fullback_backup(kernel: "ClusterKernel",
                              pcb: ProcessControlBlock,
                              crashed: ClusterId) -> None:
    """Fullback: ship the promoted (last-sync) state to a third cluster as
    a full sync; the process runs only once BACKUP_READY returns."""
    from ..backup.sync import perform_sync
    from ..kernel.directory import DirectoryError

    try:
        target = kernel.directory.fullback_backup_cluster(
            kernel.cluster_id, crashed)
    except DirectoryError:
        # Fewer than three live clusters: degrade to quarterback rather
        # than deadlock (documented deviation; the paper requires >= 3
        # clusters for fullbacks to exist at all).
        kernel.metrics.incr("recovery.fullback_degraded")
        pcb.backup_cluster = None
        pcb.has_backup_process = False
        kernel.scheduler.make_ready(pcb)
        return
    kernel.awaiting_backup_ready.add(pcb.pid)
    pcb.state = ProcState.BLOCKED_READ  # parked until BACKUP_READY
    # Promoted-from-sync: the page server already holds the right backup
    # account, so ship nothing.  Restarted-from-initial: its fresh pages
    # are resident and no account exists yet — ship them so a *second*
    # failure finds a complete backup.
    perform_sync(kernel, pcb, full=True, target_cluster=target,
                 ship_pages=bool(pcb.space.resident_pages()))
    kernel.metrics.incr("recovery.fullback_transfers")


def handle_backup_ready(kernel: "ClusterKernel",
                        payload: BackupReady) -> None:
    """BACKUP_READY broadcast: repair peer routing, release held traffic,
    and un-park a locally promoted fullback."""
    kernel.routing.apply_backup_ready(payload.pid, payload.backup_cluster)
    kernel.release_held_messages(payload.pid, payload.backup_cluster)
    # A re-protected well-known server updates the replicated placement
    # knowledge, so future failovers know where its new backup lives.
    for info in kernel.directory.servers.values():
        if info.pid == payload.pid \
                and info.primary_cluster != payload.backup_cluster:
            info.backup_cluster = payload.backup_cluster
    pcb = kernel.pcbs.get(payload.pid)
    if pcb is not None:
        if payload.backup_cluster != kernel.cluster_id:
            pcb.backup_cluster = payload.backup_cluster
            pcb.has_backup_process = True
        if pcb.pid in kernel.awaiting_backup_ready:
            kernel.awaiting_backup_ready.discard(pcb.pid)
            pcb.state = ProcState.BLOCKED_READ  # parked; now wake it
            kernel.scheduler.make_ready(pcb)
    kernel.metrics.incr("recovery.backup_ready_applied")


def handle_kernel_payload(kernel: "ClusterKernel", payload: Any) -> None:
    """Fallback for kernel messages without a dedicated kind."""
    kernel.metrics.incr("kernel.unhandled_payloads")
    kernel.trace.emit(kernel.sim.now, "kernel.unhandled",
                      cluster=kernel.cluster_id, payload=repr(payload))
