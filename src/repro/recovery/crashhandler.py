"""Crash handling (section 7.10.1).

When a cluster learns of a crash it:

0. disables outgoing transmission;
1. waits until every message that arrived before the notification has been
   distributed (so the latest sync from any lost primary is applied before
   its backup is brought up);
2. runs two very-high-priority crash-handling processes (modelled as a
   costed occupation of the work processors, during which normal
   scheduling pauses) that
   - repair the routing table: crashed primary destinations are replaced
     by their backups; channels to fullbacks go UNUSABLE until the new
     backup's location is known,
   - adjust the outgoing queue the same way, holding fullback traffic,
   - make runnable the backups of crashed quarterbacks and halfbacks,
   - initiate backup re-creation for fullbacks,
   - signal peripheral-server backups to begin recovery;
3. re-enables outgoing transmission.

Unaffected processes resume as soon as step 3 completes — experiment E6
measures exactly that window.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from ..messages.message import Delivery, DeliveryRole, Message
from ..messages.routing import EntryStatus
from ..types import ClusterId

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import ClusterKernel


#: Fixed overhead of scheduling the crash processes, plus per-touched-entry
#: repair cost, in ticks.
CRASH_BASE_COST = 2_000
CRASH_PER_ENTRY_COST = 20


def begin_crash_handling(kernel: "ClusterKernel",
                         crashed: ClusterId) -> None:
    """Entry point, called by the failure detector on each live cluster."""
    if not kernel.alive or crashed in kernel.known_dead:
        return
    kernel.known_dead.add(crashed)
    kernel.directory.mark_dead(crashed)
    kernel.cluster.disable_outgoing()
    kernel.crash_handling = True
    kernel.metrics.incr("recovery.crash_handlings")
    started = kernel.sim.now
    kernel.trace.emit(started, "crash.handling_begin",
                      cluster=kernel.cluster_id, crashed=crashed)
    # Barrier: queue the crash processes *behind* all deliveries already
    # submitted to the executive, satisfying 7.10.1's "only after all
    # messages have been distributed which arrived prior to notification".
    kernel.cluster.executive.submit(
        0, lambda: _run_crash_processes(kernel, crashed, started),
        label="crash_barrier")


def _run_crash_processes(kernel: "ClusterKernel", crashed: ClusterId,
                         started: int) -> None:
    from . import rollforward

    if not kernel.alive:
        return
    # Step 1: routing table repair.
    touched = kernel.routing.repair_after_crash(crashed)
    # Step 4: outgoing queue adjustment.
    held, rewritten = _adjust_outgoing(kernel, crashed)
    # Local PCBs that just lost their backup.
    _handle_lost_backups(kernel, crashed)
    # Steps 2 and 3: promote local backups of lost primaries.
    promoted = rollforward.promote_backups(kernel, crashed)
    # Step 5: peripheral-server backups begin recovery.
    for harness in list(kernel.server_registry.values()):
        harness.on_cluster_crash(kernel, crashed)
    # The page server may have moved: re-demand outstanding pages.
    kernel.reissue_pending_page_ins()

    cost = CRASH_BASE_COST + CRASH_PER_ENTRY_COST * (touched + rewritten)
    n_procs = max(1, len(kernel.cluster.work_processors))
    elapsed = cost // n_procs
    for proc in kernel.cluster.work_processors:
        kernel.metrics.add_busy(proc.resource_name, "crash_handling",
                                elapsed)

    def finish() -> None:
        if not kernel.alive:
            return
        kernel.crash_handling = False
        kernel.cluster.enable_outgoing()
        kernel.scheduler.dispatch()
        latency = kernel.sim.now - started
        kernel.metrics.record("recovery.crash_handle_latency", latency)
        kernel.trace.emit(kernel.sim.now, "crash.handling_end",
                          cluster=kernel.cluster_id, crashed=crashed,
                          touched=touched, promoted=promoted, held=held)

    kernel.sim.post(elapsed, finish)


def _adjust_outgoing(kernel: "ClusterKernel", crashed: ClusterId
                     ) -> tuple:
    """Rewrite queued outgoing messages whose destinations crashed
    (7.10.1 step 4).  Returns (held_count, rewritten_count)."""
    held = 0
    rewritten = 0
    new_queue: List[Message] = []
    for message in kernel.cluster.outgoing_snapshot():
        legs = list(message.deliveries)
        if not any(leg.cluster_id == crashed for leg in legs):
            new_queue.append(message)
            continue
        rewritten += 1
        primary_dead = [leg for leg in legs
                        if leg.cluster_id == crashed
                        and leg.role is DeliveryRole.PRIMARY_DEST]
        new_legs = [leg for leg in legs if leg.cluster_id != crashed]
        if primary_dead:
            dead_leg = primary_dead[0]
            backup_leg = next(
                (leg for leg in legs
                 if leg.role is DeliveryRole.DEST_BACKUP
                 and leg.pid == dead_leg.pid
                 and leg.cluster_id != crashed), None)
            if backup_leg is None:
                # Destination had no surviving backup: the message has
                # nowhere meaningful to go.
                kernel.metrics.incr("recovery.outgoing_dropped")
                continue
            entry = None
            if message.channel_id is not None and message.src_pid is not None:
                entry = kernel.routing.get(message.channel_id,
                                           message.src_pid)
            if entry is not None and entry.status is EntryStatus.UNUSABLE:
                # Fullback destination: hold until BACKUP_READY.
                kernel.held_for_pid.setdefault(dead_leg.pid, []).append(
                    message)
                held += 1
                continue
            new_legs = [leg for leg in new_legs if leg is not backup_leg]
            new_legs.append(Delivery(backup_leg.cluster_id,
                                     DeliveryRole.PRIMARY_DEST,
                                     dead_leg.pid, dead_leg.channel_id))
        if not new_legs:
            kernel.metrics.incr("recovery.outgoing_dropped")
            continue
        new_queue.append(Message(
            msg_id=message.msg_id, kind=message.kind,
            src_pid=message.src_pid, dst_pid=message.dst_pid,
            channel_id=message.channel_id, payload=message.payload,
            size_bytes=message.size_bytes, deliveries=tuple(new_legs),
            src_cluster=message.src_cluster,
            src_backup_cluster=message.src_backup_cluster,
            nondet_events=message.nondet_events))
    kernel.cluster.replace_outgoing(new_queue)
    return held, rewritten


def _handle_lost_backups(kernel: "ClusterKernel",
                         crashed: ClusterId) -> None:
    """Local primaries whose backup cluster crashed (7.10.1 step 3:
    "Fullbacks which are no longer backed up are located and linked for
    backup creation")."""
    from ..backup.modes import BackupMode

    for pcb in kernel.pcbs.values():
        if pcb.backup_cluster != crashed:
            continue
        pcb.backup_cluster = None
        pcb.has_backup_process = False
        if pcb.backup_mode is BackupMode.FULLBACK:
            try:
                target = kernel.directory.fullback_backup_cluster(
                    kernel.cluster_id, crashed)
            except Exception:
                kernel.metrics.incr("recovery.fullback_unplaceable")
                continue
            pcb.full_sync_target = target
            pcb.sync_forced = True
            kernel.metrics.incr("recovery.fullback_recreations")
            # A blocked process may not run for a long time; re-protect it
            # now rather than at its next step boundary.
            if pcb.state.value.startswith("blocked"):
                from ..backup.sync import perform_sync
                perform_sync(kernel, pcb)
        elif pcb.backup_mode is BackupMode.HALFBACK:
            pcb.lost_backup_in = crashed
            kernel.metrics.incr("recovery.halfback_waiting")
        else:
            kernel.metrics.incr("recovery.quarterback_unprotected")
