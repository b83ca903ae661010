"""The per-cluster Auros kernel.

Each cluster runs an independent kernel copy (section 7.2): it schedules
local processes, owns the cluster's routing table, performs message
delivery on the executive processor, triggers and applies syncs, and
cooperates with the recovery machinery.  Kernels are **not** synchronized
with one another — no backup may ever depend on kernel-local state, which
is why everything a backup needs travels in messages (sync payloads,
birth notices, saved queues).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from ..backup.modes import BackupMode
from ..config import PAGE_SIZE, WORDS_PER_PAGE, MachineConfig
from ..hardware.cluster import Cluster, group_legs
from ..messages.message import (Delivery, DeliveryRole, Message, MessageKind,
                                QueuedMessage)
from ..messages.payloads import (EOFMarker, ExitNotice, OpenReply,
                                 PageAccountOp, PageIn, PageOut, PageReply,
                                 SignalPayload)
from ..messages.routing import (EntryStatus, PeerKind, RoutingEntry,
                                RoutingTable)
from ..metrics import MetricSet
from ..paging import AddressSpace, MemoryTxn
from ..programs.program import Program
from ..sim import Simulator, TraceLog
from ..types import ChannelId, ClusterId, Fd, ID_SPACE, Pid, Ticks
from .directory import Directory
from .nondet import NondetBuffer, NondetSavedLog
from .pcb import (BackupRecord, BirthNotice, BlockInfo, ProcState,
                  ProcessControlBlock)


class KernelError(Exception):
    """Raised on kernel protocol violations (bad fd, unknown pid, ...)."""


#: Sentinel: let the directory's placement policy choose a backup cluster.
AUTO_BACKUP = "auto"

#: Payload size (bytes) charged for a message whose sender gives none.
DEFAULT_MESSAGE_BYTES = 128


#: Enum members read per message, as module constants: on CPython 3.11 a
#: member load on an Enum class goes through ``EnumType``'s
#: ``__getattr__`` slot hook, an order of magnitude slower than a global.
_PRIMARY_DEST = DeliveryRole.PRIMARY_DEST
_DEST_BACKUP = DeliveryRole.DEST_BACKUP
_SENDER_BACKUP = DeliveryRole.SENDER_BACKUP
_KERNEL = DeliveryRole.KERNEL
_UNUSABLE = EntryStatus.UNUSABLE
#: States ``wake_process`` readies (a tuple: ``in`` tests identity first,
#: where a set would call ``Enum.__hash__``).
_WAKEABLE = (ProcState.BLOCKED_READ, ProcState.BLOCKED_OPEN,
             ProcState.BLOCKED_PAGE)


def _compile_route(key: Tuple[Any, ...], src_pid: Pid,
                   channel_id: ChannelId) -> Tuple[Any, ...]:
    """A channel's three-way route (5.1) for routing key ``(peer cluster,
    peer backup, peer pid, sender's backup)``: the delivery tuple every
    message on the channel carries, and its per-cluster leg groups with
    their executive labels (``Message.leg_groups``).  Channel legs are never
    KERNEL legs, so no label depends on the message kind."""
    peer_cluster, peer_backup, peer_pid, sender_backup = key
    legs = [Delivery(peer_cluster, _PRIMARY_DEST, peer_pid, channel_id)]
    if peer_backup is not None:
        legs.append(Delivery(peer_backup, _DEST_BACKUP, peer_pid,
                             channel_id))
    if sender_backup is not None:
        legs.append(Delivery(sender_backup, _SENDER_BACKUP, src_pid,
                             channel_id))
    deliveries = tuple(legs)
    return key, deliveries, group_legs(MessageKind.DATA, deliveries)


#: Handler signature for pluggable privileged actions (registered by the
#: servers package): (kernel, pcb, action) -> (cost_ticks, result).
ActionHandler = Callable[["ClusterKernel", ProcessControlBlock, Any],
                         Tuple[Ticks, Any]]


class ClusterKernel:
    """Kernel instance for one cluster."""

    def __init__(self, cluster: Cluster, config: MachineConfig,
                 directory: Directory, sim: Simulator, metrics: MetricSet,
                 trace: TraceLog) -> None:
        from .scheduler import Scheduler  # local import: mutual reference

        self.cluster = cluster
        self.cluster_id = cluster.cluster_id
        self.config = config
        self.directory = directory
        self.sim = sim
        self.metrics = metrics
        self.trace = trace
        self.routing = RoutingTable(self.cluster_id)
        #: Hot-path aliases over stable internals (the routing dict and
        #: the metric stores are created once and mutated in place) and
        #: histogram recorders bound once: the method-call layer per
        #: delivery leg and per consumed message was measurable at
        #: benchmark event rates.
        self._route_get = self.routing._entries.get
        self._mcounters = metrics._counters
        self._record_depth_server = metrics.recorder("queue.depth.server")
        self._record_depth_user = metrics.recorder("queue.depth.user")
        self._record_queue_wait = metrics.recorder("latency.queue_wait")
        self.pcbs: Dict[Pid, ProcessControlBlock] = {}
        self.backups: Dict[Pid, BackupRecord] = {}
        self.birth_notices: Dict[Pid, BirthNotice] = {}
        self.birth_home: Dict[Pid, ClusterId] = {}
        self.birth_is_server: Dict[Pid, bool] = {}
        self._birth_by_fork: Dict[Tuple[Pid, int], BirthNotice] = {}
        self.nondet_saved = NondetSavedLog()
        self.nondet_buffers: Dict[Pid, NondetBuffer] = {}
        self.scheduler = Scheduler(self)
        self.alive = True
        self.crash_handling = False
        self.known_dead: Set[ClusterId] = set()
        #: Messages held because their destination is a fullback awaiting a
        #: new backup (7.10.1 step 4).
        self.held_for_pid: Dict[Pid, List[Message]] = {}
        #: Fullbacks promoted here, not runnable until BACKUP_READY.
        self.awaiting_backup_ready: Set[Pid] = set()
        #: Outstanding page-in requests (re-issued if the page server moves).
        self.pending_page_ins: Dict[Tuple[Pid, int], bool] = {}
        #: Individually failed processes that relocated to their backup
        #: cluster (section 10 extension): pid -> (cluster, backup).
        self.moved_pids: Dict[Pid, Tuple[Optional[ClusterId],
                                         Optional[ClusterId]]] = {}
        #: Pluggable privileged actions (disk ops, server sync, ...).
        self.action_handlers: Dict[Type, ActionHandler] = {}
        #: Hooks installed by the machine / recovery coordinator.
        self.on_exit: Optional[Callable[[Pid, int, ClusterId], None]] = None
        self.on_promote: Optional[Callable[[ProcessControlBlock], None]] = None
        #: Unrecoverable hardware fault (e.g. both disk drives dead): the
        #: machine converts it into a clean whole-cluster crash.
        self.on_fatal: Optional[Callable[[ClusterId, str], None]] = None
        self.server_registry: Dict[Pid, Any] = {}   # pid -> server harness
        #: The machine's heartbeat detector (repro.recovery.detector),
        #: installed post-construction like the bus fault layer; None
        #: with the poll detector alone.  Its probe/ack traffic arrives
        #: on the CRASH_NOTICE kernel leg, its only kernel hook.
        self.heartbeat = None
        self._next_pid = 1
        self._next_chan = 1
        self._next_msg = 1
        cluster.kernel = self

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def alloc_pid(self) -> Pid:
        pid = self.cluster_id * ID_SPACE + self._next_pid
        self._next_pid += 1
        return pid

    def alloc_channel_id(self) -> ChannelId:
        chan = self.cluster_id * ID_SPACE + self._next_chan
        self._next_chan += 1
        return chan

    def next_msg_id(self) -> int:
        msg_id = self.cluster_id * ID_SPACE + self._next_msg
        self._next_msg += 1
        return msg_id

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def create_process(self, program: Program, backup_mode: BackupMode,
                       *, parent: Optional[Pid] = None,
                       family_head: Optional[Pid] = None,
                       fixed_pid: Optional[Pid] = None,
                       fixed_channels: Optional[Dict[str, ChannelId]] = None,
                       is_server: bool = False,
                       backup_cluster: Any = AUTO_BACKUP,
                       notify_backup: bool = True,
                       adopt_existing_entries: bool = False,
                       sync_reads_threshold: Optional[int] = None,
                       sync_time_threshold: Optional[Ticks] = None,
                       make_ready: bool = True) -> ProcessControlBlock:
        """Create a primary process in this cluster.

        ``fixed_pid`` / ``fixed_channels`` are supplied when recovery
        re-forks a child from a birth notice, so identities match the lost
        primary.  ``adopt_existing_entries`` flips pre-existing backup
        routing entries (with their saved queues) into primary entries
        instead of creating fresh ones — the restart-from-initial-state
        recovery path.
        """
        pid = fixed_pid if fixed_pid is not None else self.alloc_pid()
        if pid in self.pcbs:
            raise KernelError(f"pid {pid} already exists in cluster "
                              f"{self.cluster_id}")
        space = AddressSpace(WORDS_PER_PAGE)
        program.declare(space)
        space.make_fully_resident()
        if backup_cluster == AUTO_BACKUP:
            if backup_mode is None:
                backup_cluster = None  # unprotected (baseline mode)
            else:
                backup_cluster = self.directory.default_backup_cluster(
                    self.cluster_id)
        pcb = ProcessControlBlock(
            pid=pid, program=program, cluster_id=self.cluster_id,
            backup_cluster=backup_cluster, backup_mode=backup_mode,
            family_head=family_head if family_head is not None else pid,
            parent=parent, space=space, is_server=is_server,
            sync_reads_threshold=(sync_reads_threshold
                                  if sync_reads_threshold is not None
                                  else self.config.sync_reads_threshold),
            sync_time_threshold=(sync_time_threshold
                                 if sync_time_threshold is not None
                                 else self.config.sync_time_threshold),
        )
        # Step-0 transaction: program initial state.
        txn = MemoryTxn(space)
        program.init(txn, pcb.regs)
        txn.commit()

        channels = fixed_channels or {}
        self._create_wellknown_channels(pcb, channels, adopt_existing_entries)
        self.pcbs[pid] = pcb
        self.nondet_buffers[pid] = NondetBuffer()
        self.metrics.incr("proc.created")
        self.trace.emit(self.sim.now, "proc.create", pid=pid,
                        cluster=self.cluster_id, program=program.name,
                        mode=backup_mode.value if backup_mode else None)
        if notify_backup and backup_cluster is not None:
            self._send_birth_notice(pcb, fork_index=-1, create_record=True)
        if make_ready:
            self.scheduler.make_ready(pcb)
        return pcb

    def _create_wellknown_channels(self, pcb: ProcessControlBlock,
                                   fixed: Dict[str, ChannelId],
                                   adopt: bool) -> None:
        """Give a new process its born-with channels: the signal channel,
        file-server channel, process-server channel and page channel."""
        def make(kind: str, server_name: Optional[str],
                 kernel_internal: bool = False) -> ChannelId:
            chan = fixed.get(kind)
            if chan is None:
                chan = self.alloc_channel_id()
            existing = self.routing.get(chan, pcb.pid)
            if existing is not None and adopt:
                existing.is_backup = False
                return chan
            if server_name is not None:
                info = self.directory.server(server_name)
                entry = RoutingEntry(
                    channel_id=chan, owner_pid=pcb.pid, is_backup=False,
                    peer_pid=info.pid, peer_cluster=info.primary_cluster,
                    peer_backup_cluster=info.backup_cluster,
                    peer_kind=PeerKind.SERVER,
                    kernel_internal=kernel_internal)
            else:
                entry = RoutingEntry(
                    channel_id=chan, owner_pid=pcb.pid, is_backup=False,
                    peer_pid=None, peer_cluster=None,
                    peer_backup_cluster=None, peer_kind=PeerKind.SERVER)
            self.routing.ensure(entry)
            return chan

        pcb.signal_channel = make("signal", None)
        fs_chan = make("fs", "fs")
        pcb.fs_channel_fd = pcb.alloc_fd(fs_chan)
        self.routing.require(fs_chan, pcb.pid).fd = pcb.fs_channel_fd
        ps_chan = make("ps", "proc")
        pcb.ps_channel_fd = pcb.alloc_fd(ps_chan)
        self.routing.require(ps_chan, pcb.pid).fd = pcb.ps_channel_fd
        pcb.page_channel = make("page", "page", kernel_internal=True)

    def wellknown_channel_map(self, pcb: ProcessControlBlock
                              ) -> Dict[str, ChannelId]:
        return {
            "signal": pcb.signal_channel,
            "fs": pcb.fds[pcb.fs_channel_fd],
            "ps": pcb.fds[pcb.ps_channel_fd],
            "page": pcb.page_channel,
        }

    def _send_birth_notice(self, pcb: ProcessControlBlock, fork_index: int,
                           create_record: bool) -> None:
        notice = BirthNotice(
            child_pid=pcb.pid, parent_pid=pcb.parent if pcb.parent else -1,
            family_head=pcb.family_head, program=pcb.program,
            backup_mode=pcb.backup_mode,
            channels=[(chan, kind) for kind, chan in
                      self.wellknown_channel_map(pcb).items()],
        )
        payload = {
            "notice": notice, "fork_index": fork_index,
            "create_record": create_record,
            "home_cluster": self.cluster_id,
            "is_server": pcb.is_server,
            "sync_reads_threshold": pcb.sync_reads_threshold,
            "sync_time_threshold": pcb.sync_time_threshold,
        }
        self.send_kernel_message(
            MessageKind.BIRTH_NOTICE, payload,
            (Delivery(pcb.backup_cluster, DeliveryRole.KERNEL, pcb.pid),),
            size=64)

    def fork_child(self, parent: ProcessControlBlock,
                   program: Program) -> Pid:
        """Fork: create a child in this cluster, family backup cluster.

        During recovery the re-executed fork consults stored birth notices
        (section 7.10.2): if the child already exists (it was promoted
        independently) the fork is skipped; otherwise the notice supplies
        the original pid and channel ids.
        """
        fork_index = parent.fork_count
        parent.fork_count += 1
        notice = self._birth_by_fork.get((parent.pid, fork_index))
        if parent.recovering and notice is not None:
            if notice.child_pid in self.pcbs:
                # Child was independently promoted; nothing to create.
                self.metrics.incr("recovery.forks_skipped")
                return notice.child_pid
            fixed_channels = {kind: chan for chan, kind in notice.channels}
            child = self.create_process(
                notice.program, notice.backup_mode,
                parent=parent.pid, family_head=parent.family_head,
                fixed_pid=notice.child_pid, fixed_channels=fixed_channels,
                backup_cluster=parent.backup_cluster,
                notify_backup=False, adopt_existing_entries=True)
            child.recovering = True
            self.metrics.incr("recovery.forks_replayed")
        else:
            child = self.create_process(
                program, parent.backup_mode, parent=parent.pid,
                family_head=parent.family_head,
                backup_cluster=parent.backup_cluster,
                notify_backup=False)
            if parent.backup_cluster is not None:
                self._send_birth_notice(child, fork_index=fork_index,
                                        create_record=False)
        if parent.backup_cluster is not None:
            parent.children_without_backup.add(child.pid)
        self.metrics.incr("proc.forks")
        return child.pid

    def exit_process(self, pcb: ProcessControlBlock, code: int) -> None:
        """Clean process exit: EOF markers to user peers, backup teardown,
        page account drop."""
        pcb.exit_code = code
        pcb.state = ProcState.EXITED
        # An exiting parent can no longer re-fork lost children during
        # recovery, so children without backups must sync and become
        # independently recoverable (the section 7.7 forced-sync rule,
        # applied at the last point the parent can enforce it).
        for child_pid in list(pcb.children_without_backup):
            child = self.pcbs.get(child_pid)
            if child is not None and not child.has_backup_process:
                child.sync_forced = True
        for entry in self.routing.entries_for_pid(pcb.pid):
            if entry.is_backup or entry.status is not EntryStatus.OPEN:
                continue
            if entry.peer_kind is PeerKind.USER and entry.peer_pid is not None:
                self.send_user_message(pcb, entry, EOFMarker(pcb.pid),
                                       size=16)
            entry.status = EntryStatus.CLOSED
        if pcb.backup_cluster is not None:
            self.send_kernel_message(
                MessageKind.CRASH_NOTICE,
                ExitNotice(pid=pcb.pid, code=code),
                (Delivery(pcb.backup_cluster, DeliveryRole.KERNEL, pcb.pid),),
                size=16)
        self._send_page_channel(pcb, PageAccountOp(op="drop", pid=pcb.pid))
        for entry in self.routing.entries_for_pid(pcb.pid):
            self.routing.remove(entry.channel_id, pcb.pid)
        del self.pcbs[pcb.pid]
        self.nondet_buffers.pop(pcb.pid, None)
        local_parent = self.pcbs.get(pcb.parent) if pcb.parent else None
        if local_parent is not None:
            local_parent.children_without_backup.discard(pcb.pid)
        self.metrics.incr("proc.exited")
        self.trace.emit(self.sim.now, "proc.exit", pid=pcb.pid, code=code,
                        cluster=self.cluster_id)
        if self.on_exit is not None:
            self.on_exit(pcb.pid, code, self.cluster_id)

    def halt(self) -> None:
        """The cluster crashed: freeze everything."""
        self.alive = False

    def close(self) -> None:
        """Halt for good and part with the scheduler, so that neither is
        held in a reference cycle and both are freed by refcount once
        the machine (or, for a crashed incarnation, the last stale event
        naming it) lets go.  Everything posted against a kernel checks
        ``alive`` first, which is all a closed kernel still answers."""
        self.alive = False
        if self.scheduler is not None:
            self.scheduler.close()
            self.scheduler = None

    def fatal_hardware(self, reason: str) -> None:
        """Unrecoverable hardware under this kernel (both drives of a
        mirrored disk dead, say): record it and hand the cluster to the
        machine's fatal hook, which crashes it cleanly so the failure
        travels the ordinary detector path."""
        if not self.alive:
            return
        self.metrics.incr("kernel.fatal_hardware")
        self.trace.emit(self.sim.now, "kernel.fatal",
                        cluster=self.cluster_id, reason=reason)
        if self.on_fatal is not None:
            self.on_fatal(self.cluster_id, reason)
        else:
            self.halt()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send_user_message(self, pcb: ProcessControlBlock,
                          entry: RoutingEntry, payload: Any,
                          size: Optional[int] = None,
                          kind: MessageKind = MessageKind.DATA) -> bool:
        """Send on a channel with full three-way routing (5.1).

        Returns ``False`` when the send was *suppressed*: the process is
        rolling forward and the entry's writes-since-sync count shows the
        lost primary already sent this message (5.4).
        """
        if entry.writes_since_sync > 0:
            entry.writes_since_sync -= 1
            self.metrics.incr("recovery.sends_suppressed")
            self.trace.emit(self.sim.now, "recovery.suppress",
                            pid=pcb.pid, chan=entry.channel_id)
            return False
        if entry.status is _UNUSABLE:
            # Destination is a fullback awaiting its new backup: hold.
            message = self._build_channel_message(pcb, entry, payload, size,
                                                  kind)
            self.held_for_pid.setdefault(entry.peer_pid, []).append(message)
            self.metrics.incr("recovery.messages_held")
            return True
        if entry.peer_cluster is None:
            # The peer died without a surviving backup (a quarterback
            # casualty): there is nowhere to deliver.  Drop rather than
            # fault the sender — the transport-level analogue of writing
            # to a vanished correspondent.
            self.metrics.incr("msg.dropped_peer_gone")
            self.trace.emit(self.sim.now, "msg.peer_gone", pid=pcb.pid,
                            chan=entry.channel_id)
            return True
        message = self._build_channel_message(pcb, entry, payload, size, kind)
        entry.changed_since_sync = True
        self.cluster.send(message)
        self._mcounters["msg.sent"] += 1
        return True

    def _build_channel_message(self, pcb: ProcessControlBlock,
                               entry: RoutingEntry, payload: Any,
                               size: Optional[int],
                               kind: MessageKind) -> Message:
        peer_pid = entry.peer_pid
        if entry.peer_cluster is None or peer_pid is None:
            raise KernelError(
                f"channel {entry.channel_id} has no routable peer")
        sender_backup = (None if entry.kernel_internal
                         else pcb.backup_cluster)
        key = (entry.peer_cluster, entry.peer_backup_cluster, peer_pid,
               sender_backup)
        route = entry.route
        if route is None or route[0] != key:
            route = entry.route = _compile_route(key, pcb.pid,
                                                 entry.channel_id)
        nondet: Tuple[Any, ...] = ()
        if sender_backup is not None:
            buffer = self.nondet_buffers.get(pcb.pid)
            if buffer is not None and buffer.pending:
                nondet = buffer.take_for_piggyback()
        msg_id = self.cluster_id * ID_SPACE + self._next_msg
        self._next_msg += 1
        return Message(
            msg_id, kind, pcb.pid, peer_pid, entry.channel_id, payload,
            size if size is not None else DEFAULT_MESSAGE_BYTES,
            route[1], self.cluster_id, pcb.backup_cluster, nondet, route[2])

    def _send_page_channel(self, pcb: ProcessControlBlock,
                           payload: Any, size: int = 32) -> None:
        """Kernel-generated page traffic: to the page server primary plus a
        saved copy at its backup; never counted at the sender's backup
        (page traffic is regenerated, not replayed — see DESIGN.md)."""
        info = self.directory.server("page")
        deliveries = [Delivery(info.primary_cluster,
                               DeliveryRole.PRIMARY_DEST, info.pid,
                               pcb.page_channel)]
        if info.backup_cluster is not None:
            deliveries.append(Delivery(info.backup_cluster,
                                       DeliveryRole.DEST_BACKUP, info.pid,
                                       pcb.page_channel))
        message = Message(
            msg_id=self.next_msg_id(), kind=MessageKind.DATA,
            src_pid=pcb.pid, dst_pid=info.pid, channel_id=pcb.page_channel,
            payload=payload, size_bytes=size, deliveries=tuple(deliveries),
            src_cluster=self.cluster_id, src_backup_cluster=None)
        self.cluster.send(message)

    def send_page_out(self, pcb: ProcessControlBlock, page_no: int,
                      data: Any, sync_seq: int) -> None:
        self._send_page_channel(
            pcb, PageOut(pid=pcb.pid, page_no=page_no, data=data,
                         sync_seq=sync_seq),
            size=PAGE_SIZE)
        self.metrics.incr("paging.pages_shipped")

    def send_kernel_message(self, kind: MessageKind, payload: Any,
                            deliveries: Tuple[Delivery, ...],
                            size: int = 64,
                            src_pid: Optional[Pid] = None,
                            src_backup_cluster: Optional[ClusterId] = None,
                            channel_id: Optional[ChannelId] = None) -> None:
        message = Message(
            msg_id=self.next_msg_id(), kind=kind, src_pid=src_pid,
            dst_pid=None, channel_id=channel_id, payload=payload,
            size_bytes=size, deliveries=deliveries,
            src_cluster=self.cluster_id,
            src_backup_cluster=src_backup_cluster)
        self.cluster.send(message)

    def release_held_messages(self, pid: Pid,
                              backup_cluster: ClusterId) -> None:
        """BACKUP_READY arrived for ``pid``: re-address and send held
        messages, now with the new backup's DEST_BACKUP leg."""
        held = self.held_for_pid.pop(pid, None)
        if not held:
            return
        for message in held:
            entry = None
            if message.channel_id is not None and message.src_pid is not None:
                entry = self.routing.get(message.channel_id, message.src_pid)
            if entry is None or entry.peer_cluster is None:
                continue
            deliveries = [Delivery(entry.peer_cluster,
                                   DeliveryRole.PRIMARY_DEST, pid,
                                   message.channel_id),
                          Delivery(backup_cluster, DeliveryRole.DEST_BACKUP,
                                   pid, message.channel_id)]
            for leg in message.deliveries:
                if leg.role is DeliveryRole.SENDER_BACKUP:
                    deliveries.append(leg)
            self.cluster.send(Message(
                msg_id=message.msg_id, kind=message.kind,
                src_pid=message.src_pid, dst_pid=pid,
                channel_id=message.channel_id, payload=message.payload,
                size_bytes=message.size_bytes, deliveries=tuple(deliveries),
                src_cluster=message.src_cluster,
                src_backup_cluster=message.src_backup_cluster,
                nondet_events=message.nondet_events))
            self.metrics.incr("recovery.messages_released")

    # ------------------------------------------------------------------
    # delivery (executive-processor context)
    # ------------------------------------------------------------------

    def handle_delivery(self, message: Message, delivery: Delivery,
                        seqno: int) -> None:
        if not self.alive:
            return
        role = delivery.role
        if role is _PRIMARY_DEST:
            self._deliver_primary(message, delivery, seqno)
        elif role is _DEST_BACKUP:
            self._deliver_dest_backup(message, delivery, seqno)
        elif role is _SENDER_BACKUP:
            self._deliver_sender_backup(message, delivery)
        elif role is _KERNEL:
            self._deliver_kernel(message, delivery)

    def _deliver_primary(self, message: Message, delivery: Delivery,
                         seqno: int) -> None:
        payload = message.payload
        if isinstance(payload, PageReply):
            self._handle_page_reply(payload)
            return
        pid = delivery.pid
        entry = self._route_get((message.channel_id, pid))
        if isinstance(payload, OpenReply) and payload.error is None:
            self._ensure_open_reply_entry(payload, pid, is_backup=False)
        if entry is None:
            entry = self._lazy_server_entry(message, delivery,
                                            is_backup=False)
        if entry is None:
            self.metrics.incr("msg.dropped_no_entry")
            self.trace.emit(self.sim.now, "msg.drop",
                            cluster=self.cluster_id, msg=message.describe())
            return
        pcb = self.pcbs.get(pid)
        is_server = (pid in self.server_registry
                     or (pcb is not None and pcb.is_server))
        queue = entry.queue
        queue.append(QueuedMessage(message, seqno, self.sim.now))
        self._mcounters["msg.delivered_primary"] += 1
        (self._record_depth_server if is_server
         else self._record_depth_user)(len(queue))
        if pcb is not None and pcb.block is not None:
            self._maybe_wake(pcb, entry)

    def _deliver_dest_backup(self, message: Message, delivery: Delivery,
                             seqno: int) -> None:
        payload = message.payload
        if isinstance(payload, OpenReply) and payload.error is None:
            self._ensure_open_reply_entry(payload, delivery.pid,
                                          is_backup=True)
        entry = self._route_get((message.channel_id, delivery.pid))
        if entry is None:
            entry = self._lazy_server_entry(message, delivery,
                                            is_backup=True)
        if entry is None:
            self.metrics.incr("msg.dropped_no_backup_entry")
            return
        entry.queue.append(QueuedMessage(message, seqno, self.sim.now))
        self._mcounters["msg.delivered_backup"] += 1
        # If the backup was already promoted here, a sender that has not
        # yet repaired its routing sent this leg to the old backup
        # location, which is now the live primary — treat it as a primary
        # delivery and wake any blocked reader.
        pcb = self.pcbs.get(delivery.pid)
        if pcb is not None:
            self._maybe_wake(pcb, entry)

    def _deliver_sender_backup(self, message: Message,
                               delivery: Delivery) -> None:
        entry = self._route_get((message.channel_id, delivery.pid))
        if entry is None:
            self.metrics.incr("msg.dropped_no_sender_entry")
            return
        entry.writes_since_sync += 1
        if message.nondet_events:
            self.nondet_saved.append(delivery.pid, message.nondet_events)
        self._mcounters["msg.counted_sender_backup"] += 1

    def _deliver_kernel(self, message: Message, delivery: Delivery) -> None:
        from ..backup import manager as backup_manager
        from ..recovery import rollforward

        payload = message.payload
        if message.kind is MessageKind.SYNC:
            backup_manager.apply_sync(self, payload)
        elif message.kind is MessageKind.BIRTH_NOTICE:
            backup_manager.apply_birth_notice(self, payload)
        elif message.kind is MessageKind.BACKUP_READY:
            rollforward.handle_backup_ready(self, payload)
        elif isinstance(payload, ExitNotice):
            backup_manager.apply_exit_notice(self, payload)
        elif isinstance(payload, dict) and payload.get("op") == "proc_failed":
            from ..recovery import procfail
            procfail.handle_proc_failed(self, payload)
        elif message.kind is MessageKind.CRASH_NOTICE:
            # Baseline detection is poll-based (repro.recovery.detector);
            # with the heartbeat detector on, this leg also carries its
            # probe/ack verification traffic.
            if self.heartbeat is not None:
                self.heartbeat.on_notice(self, payload)
        else:
            rollforward.handle_kernel_payload(self, payload)

    def _current_peer_route(self, peer_pid: Optional[Pid],
                            peer_cluster: Optional[ClusterId],
                            peer_backup: Optional[ClusterId]
                            ) -> Tuple[Optional[ClusterId],
                                       Optional[ClusterId]]:
        """Apply crash knowledge to peer routing carried in a payload.

        Requests and open replies re-serviced after a failover still name
        the peer's *pre-failure* location; a new entry built from them
        must point at the promoted destination, exactly as crash repair
        rewrote the entries that already existed (7.10.1 step 1).  Both
        whole-cluster crashes (``known_dead``) and individual-process
        failures (``moved_pids``, section 10 extension) are applied.
        """
        moved = self.moved_pids.get(peer_pid) if peer_pid is not None \
            else None
        if moved is not None:
            peer_cluster, peer_backup = moved
        if peer_cluster in self.known_dead:
            peer_cluster, peer_backup = peer_backup, None
        if peer_backup in self.known_dead:
            peer_backup = None
        return peer_cluster, peer_backup

    def _ensure_open_reply_entry(self, reply: OpenReply, owner: Pid,
                                 is_backup: bool) -> None:
        """Arrival of an open reply creates the channel's routing entry at
        this cluster (7.4.1)."""
        if self.routing.get(reply.channel_id, owner) is not None:
            return
        peer_cluster, peer_backup = self._current_peer_route(
            reply.peer_pid, reply.peer_cluster, reply.peer_backup_cluster)
        self.routing.add(RoutingEntry(
            channel_id=reply.channel_id, owner_pid=owner,
            is_backup=is_backup, peer_pid=reply.peer_pid,
            peer_cluster=peer_cluster,
            peer_backup_cluster=peer_backup,
            peer_kind=(PeerKind.SERVER if reply.peer_is_server
                       else PeerKind.USER),
            peer_fullback=reply.peer_fullback))
        self.metrics.incr("chan.entries_created")

    def _lazy_server_entry(self, message: Message, delivery: Delivery,
                           is_backup: bool) -> Optional[RoutingEntry]:
        """Create a server-side entry on first request arrival: requests
        carry their reply routing in the envelope."""
        target = delivery.pid
        known = (target in self.pcbs or target in self.backups
                 or target in self.server_registry)
        if not known or message.src_pid is None:
            return None
        peer_cluster, peer_backup = self._current_peer_route(
            message.src_pid, message.src_cluster,
            message.src_backup_cluster)
        entry = RoutingEntry(
            channel_id=message.channel_id, owner_pid=target,
            is_backup=is_backup, peer_pid=message.src_pid,
            peer_cluster=peer_cluster,
            peer_backup_cluster=peer_backup,
            peer_kind=PeerKind.USER)
        self.routing.add(entry)
        if not is_backup:
            pcb = self.pcbs.get(target)
            if pcb is not None:
                entry.fd = pcb.alloc_fd(message.channel_id)
        self.metrics.incr("chan.entries_created_lazy")
        return entry

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def try_consume(self, pcb: ProcessControlBlock, fds: Tuple[Fd, ...]
                    ) -> Optional[Tuple[Fd, Any]]:
        """Consume the next message across ``fds`` by the deterministic
        rule: lowest cluster-arrival sequence number wins (7.5.1).

        An empty ``fds`` means "every open descriptor" — the bunch servers
        use, since their channels appear dynamically as clients connect.
        """
        pid = pcb.pid
        if len(fds) == 1:
            # Fast path for the dominant single-descriptor read/reply
            # wait: no candidate scan, no best-of bookkeeping.
            fd = fds[0]
            chan = pcb.fds.get(fd)
            if chan is None:
                raise KernelError(f"pid {pid}: bad fd {fd}")
            entry = self._route_get((chan, pid))
            if entry is None or not entry.queue:
                return None
        elif fds:
            best: Optional[Tuple[int, Fd, RoutingEntry]] = None
            for fd in fds:
                chan = pcb.fds.get(fd)
                if chan is None:
                    raise KernelError(f"pid {pid}: bad fd {fd}")
                entry = self._route_get((chan, pid))
                if entry is None or not entry.queue:
                    continue
                seqno = entry.queue[0].arrival_seqno
                if best is None or seqno < best[0]:
                    best = (seqno, fd, entry)
            if best is None:
                return None
            _, fd, entry = best
        else:
            # A bunch over every open descriptor, scanned in place in fd
            # insertion order.  Lowest head seqno wins and a tie goes to
            # the lower fd: exactly the pick of a scan in sorted fd order.
            best_seqno = best_fd = best_entry = None
            route_get = self._route_get
            for fd, chan in pcb.fds.items():
                entry = route_get((chan, pid))
                if entry is None or not entry.queue:
                    continue
                seqno = entry.queue[0].arrival_seqno
                if best_entry is None or seqno < best_seqno \
                        or (seqno == best_seqno and fd < best_fd):
                    best_seqno, best_fd, best_entry = seqno, fd, entry
            if best_entry is None:
                return None
            fd, entry = best_fd, best_entry
        queued = entry.queue.pop(0)
        entry.reads_since_sync += 1
        entry.changed_since_sync = True
        pcb.reads_since_sync += 1
        self._mcounters["msg.reads"] += 1
        self._record_queue_wait(self.sim.now - queued.arrival_time)
        return fd, queued.message.payload

    def _maybe_wake(self, pcb: ProcessControlBlock,
                    entry: RoutingEntry) -> None:
        block = pcb.block
        if block is None:
            return
        if block.kind in ("read", "read_any", "reply", "open"):
            if not block.fds:  # bunch over all descriptors
                if entry.fd is not None:
                    self.wake_process(pcb)
                return
            fds = pcb.fds
            channel_id = entry.channel_id
            for fd in block.fds:
                if fds.get(fd) == channel_id:
                    self.wake_process(pcb)
                    return

    def wake_process(self, pcb: ProcessControlBlock) -> None:
        if pcb.state in _WAKEABLE:
            self.scheduler.make_ready(pcb)

    # ------------------------------------------------------------------
    # paging
    # ------------------------------------------------------------------

    def page_fault(self, pcb: ProcessControlBlock, page_no: int) -> None:
        """A step touched a non-resident page: demand it from the page
        server's backup account (7.10.2)."""
        pcb.state = ProcState.BLOCKED_PAGE
        pcb.block = BlockInfo(kind="page", page_no=page_no)
        key = (pcb.pid, page_no)
        if key not in self.pending_page_ins:
            self.pending_page_ins[key] = True
            self._send_page_channel(
                pcb, PageIn(pid=pcb.pid, page_no=page_no, from_backup=True,
                            reply_cluster=self.cluster_id))
            self.metrics.incr("paging.faults")
        self.trace.emit(self.sim.now, "paging.fault", pid=pcb.pid,
                        page=page_no)

    def _handle_page_reply(self, reply: PageReply) -> None:
        self.pending_page_ins.pop((reply.pid, reply.page_no), None)
        pcb = self.pcbs.get(reply.pid)
        if pcb is None:
            return
        pcb.space.install_page(reply.page_no, reply.data)
        self.metrics.incr("paging.pages_restored")
        if pcb.state is ProcState.BLOCKED_PAGE and pcb.block is not None \
                and pcb.block.page_no == reply.page_no:
            self.scheduler.make_ready(pcb)

    def reissue_pending_page_ins(self) -> None:
        """The page server failed over: re-send outstanding page requests
        to its new location."""
        for (pid, page_no) in list(self.pending_page_ins):
            pcb = self.pcbs.get(pid)
            if pcb is None:
                self.pending_page_ins.pop((pid, page_no), None)
                continue
            self._send_page_channel(
                pcb, PageIn(pid=pid, page_no=page_no, from_backup=True,
                            reply_cluster=self.cluster_id))
            self.metrics.incr("paging.faults_reissued")

    # ------------------------------------------------------------------
    # signals and alarms
    # ------------------------------------------------------------------

    def schedule_alarm(self, pcb: ProcessControlBlock, seq: int,
                       delay: Ticks) -> None:
        deadline = self.sim.now + delay
        pcb.pending_alarms.append((seq, deadline))
        self.sim.post(delay, self._fire_alarm, (pcb.pid, seq))

    def _fire_alarm(self, pid: Pid, seq: int) -> None:
        if not self.alive:
            return
        pcb = self.pcbs.get(pid)
        if pcb is None:
            return
        if not any(s == seq for s, _ in pcb.pending_alarms):
            return
        pcb.pending_alarms = [(s, d) for s, d in pcb.pending_alarms
                              if s != seq]
        self.post_signal(pcb, SignalPayload(signal="alarm", seq=seq))

    def post_signal(self, pcb: ProcessControlBlock,
                    payload: SignalPayload) -> None:
        """Queue an asynchronous signal on the process's signal channel —
        "all asynchronous signals are sent via message" (7.5.2), so the
        backup cluster saves a copy too."""
        deliveries = [Delivery(pcb.cluster_id, DeliveryRole.PRIMARY_DEST,
                               pcb.pid, pcb.signal_channel)]
        if pcb.backup_cluster is not None:
            deliveries.append(Delivery(pcb.backup_cluster,
                                       DeliveryRole.DEST_BACKUP, pcb.pid,
                                       pcb.signal_channel))
        self.send_kernel_message(MessageKind.SIGNAL, payload,
                                 tuple(deliveries), size=16,
                                 channel_id=pcb.signal_channel)
        self.metrics.incr("signal.posted")

    def check_signals(self, pcb: ProcessControlBlock) -> Optional[
            SignalPayload]:
        """Step-boundary signal check (7.5.2).

        Ignored and duplicate signals are removed and counted as a read.
        Returns a signal the program wants to handle (the scheduler forces
        a sync first), or None.
        """
        entry = self._route_get((pcb.signal_channel, pcb.pid))
        if entry is None or not entry.queue:
            # Runs once per step; the queue is almost always empty.
            return None
        handled = getattr(pcb.program, "handled_signals", ())
        while entry.queue:
            payload = entry.queue[0].message.payload
            if not isinstance(payload, SignalPayload):
                entry.queue.pop(0)
                continue
            seen = pcb.regs.get("_sig_seen", 0)
            if payload.seq <= seen or payload.signal not in handled:
                entry.queue.pop(0)
                entry.reads_since_sync += 1
                entry.changed_since_sync = True
                pcb.reads_since_sync += 1
                self.metrics.incr("signal.ignored")
                continue
            return payload
        return None

    def peek_signal(self, pcb: ProcessControlBlock) -> SignalPayload:
        """The head signal, without consuming it (the handler runs first:
        if it page-faults the whole step retries with the signal still
        queued)."""
        entry = self.routing.require(pcb.signal_channel, pcb.pid)
        return entry.queue[0].message.payload

    def consume_signal(self, pcb: ProcessControlBlock) -> SignalPayload:
        """Pop the head signal (after the pre-handling sync)."""
        entry = self.routing.require(pcb.signal_channel, pcb.pid)
        payload = entry.queue.pop(0).message.payload
        entry.reads_since_sync += 1
        entry.changed_since_sync = True
        pcb.reads_since_sync += 1
        pcb.regs["_sig_seen"] = payload.seq
        self.metrics.incr("signal.handled")
        return payload

    # ------------------------------------------------------------------
    # nondeterministic events (section 10 extension)
    # ------------------------------------------------------------------

    def _consume_nondet(self, pcb: ProcessControlBlock,
                        kind: str) -> Tuple[bool, Any]:
        """During rollforward, pop the next logged event of the expected
        kind.  Returns ``(replayed, value)``; ``replayed=False`` means no
        evidence survived and the event may be performed afresh
        (section 10's consistency argument)."""
        if not pcb.recovering:
            return False, None
        try:
            logged_kind, value = self.nondet_saved.consume(pcb.pid)
        except LookupError:
            self.metrics.incr("nondet.fresh_during_recovery")
            return False, None
        if logged_kind != kind:
            # Log desynchronization would indicate a nondeterministic
            # program; surface it loudly rather than replay garbage.
            raise KernelError(
                f"pid {pcb.pid}: nondet log expected {kind!r}, "
                f"found {logged_kind!r}")
        self.metrics.incr("nondet.replayed")
        return True, value

    def _record_nondet(self, pcb: ProcessControlBlock, kind: str,
                       value: Any) -> None:
        buffer = self.nondet_buffers.get(pcb.pid)
        if buffer is not None:
            buffer.record((kind, value))
        self.metrics.incr("nondet.events")

    def read_clock(self, pcb: ProcessControlBlock) -> Ticks:
        """Privileged local clock read, logged for replay (section 10)."""
        replayed, value = self._consume_nondet(pcb, "clock")
        if not replayed:
            value = self.sim.now
        self._record_nondet(pcb, "clock", value)
        return value

    def poll_read(self, pcb: ProcessControlBlock, fd: Fd) -> Any:
        """Non-blocking read (section 10 asynchronous-read extension).

        The empty/non-empty *outcome* is the nondeterministic event; the
        message content itself is ordinary saved input.  Replay: a logged
        hit consumes the next saved message, a logged miss touches
        nothing — reproducing the primary's exact poll sequence.
        """
        replayed, got = self._consume_nondet(pcb, "poll")
        if replayed:
            if got:
                result = self.try_consume(pcb, (fd,))
                if result is None:
                    raise KernelError(
                        f"pid {pcb.pid}: poll replay found no saved "
                        f"message on fd {fd}")
                payload = result[1]
            else:
                payload = None
        else:
            result = self.try_consume(pcb, (fd,))
            payload = result[1] if result is not None else None
        self._record_nondet(pcb, "poll", payload is not None)
        self.metrics.incr("nondet.polls")
        return payload

    # ------------------------------------------------------------------
    # pluggable privileged actions
    # ------------------------------------------------------------------

    def register_action_handler(self, action_type: Type,
                                handler: ActionHandler) -> None:
        self.action_handlers[action_type] = handler
