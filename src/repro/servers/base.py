"""Peripheral-server framework: active backups (section 7.9).

Peripheral servers differ from user processes in two ways the paper calls
out: they are memory-resident (no page account to roll forward from) and
they talk to devices directly (driver requests/answers never reach the
backup cluster).  The solution is an **active backup**: a running process
in the device's other ported cluster that

* waits for explicit :class:`~repro.messages.payloads.ServerSync`
  messages from the primary and uses them to update its internal state
  and discard saved client requests already serviced;
* on promotion (crash handling step 5 "backups of peripheral servers are
  signaled to begin recovery") reattaches the device through its own port
  and services the remaining saved requests, with re-sent replies
  suppressed by the ordinary writes-since-sync counts.

:class:`PeripheralServerProgram` is the one home of that protocol: it
counts serviced requests per channel, ships the server sync every N
requests, applies it at the backup and reattaches the device on
promotion.  The page, file, tty and raw servers subclass it and supply
only their request-service states.  This module also provides the
privileged actions server programs use and the
:class:`PeripheralServerHarness` that wires a primary/backup pair into two
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type, TYPE_CHECKING

from ..backup.modes import BackupMode
from ..kernel.pcb import ProcessControlBlock
from ..messages.message import (Delivery, DeliveryRole, Message, MessageKind,
                                QueuedMessage)
from ..messages.payloads import ServerSync
from ..messages.routing import PeerKind, RoutingEntry
from ..programs.actions import Action, Compute, Read, ReadAny
from ..programs.program import StateProgram, StepContext
from ..types import ChannelId, ClusterId, Fd, Pid, Ticks

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import ClusterKernel


# ---------------------------------------------------------------------------
# privileged actions available to server programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelOf(Action):
    """Resolve a file descriptor to its (promotion-stable) channel id."""

    fd: Fd


@dataclass(frozen=True)
class FdOfChannel(Action):
    """Resolve a channel id back to the current file descriptor."""

    channel_id: ChannelId


@dataclass(frozen=True)
class LookupServer(Action):
    """Read a well-known server's location from the replicated directory.
    Result: ``(pid, primary_cluster, backup_cluster)``."""

    name: str


@dataclass(frozen=True)
class SendServerSync(Action):
    """Primary -> active backup: ship internal state and per-channel
    serviced counts (7.9).  Result: True."""

    state: Any
    serviced: Tuple[Tuple[ChannelId, int], ...]


@dataclass(frozen=True)
class ApplyServerSync(Action):
    """Active backup: apply a received ServerSync — trim saved request
    queues and zero reply-suppression counts.  (The program updates its
    own memory from ``payload.state`` itself.)  Result: True."""

    payload: ServerSync


@dataclass(frozen=True)
class ResourceOp(Action):
    """Operate on the harness's ``device`` (page store, shadow fs, tty
    controller, raw disk).  The harness's resource handler interprets ``op``;
    the action result is whatever it returns, and the cost it reports is
    charged to the work processor."""

    op: str
    args: Tuple[Any, ...] = ()


# ---------------------------------------------------------------------------
# the active-backup protocol
# ---------------------------------------------------------------------------

class PeripheralServerProgram(StateProgram):
    """The section 7.9 active-backup protocol every peripheral server runs.

    The primary reads any client channel, hands the request to
    :meth:`serve` and, once the service path reaches state ``count``,
    counts it against its channel.  Every ``sync_every`` requests (or on
    a kernel ``("resync",)`` request) it ships a server sync carrying the
    memory cells named in :attr:`state_cells` and the per-channel
    serviced counts.  The backup reads only the sync channel: it applies
    each sync (trimming its saved requests and restoring the cells) and,
    on ``("promote",)``, reattaches the device through its own port with
    ``ResourceOp("attach")`` and continues as the primary.

    Subclasses set ``name``, :attr:`state_cells` and, for a server whose
    sync rides a device flush, :attr:`flush_before_sync`, and implement
    :meth:`serve` plus the states it continues through.
    """

    start_state = "route"
    #: Memory cells shipped in every server sync and restored by the
    #: backup; each starts as ``()``.
    state_cells: Tuple[str, ...] = ()
    #: Issue ``ResourceOp("flush")`` before each sync, so the message
    #: carries only small state (the file server, section 7.9).
    flush_before_sync = False

    def declare(self, space) -> None:
        for cell in self.state_cells + ("serviced", "since_sync"):
            space.declare(cell, 1)

    def init(self, mem, regs) -> None:
        super().init(mem, regs)
        for cell in self.state_cells:
            mem.set(cell, ())
        mem.set("serviced", ())    # tuple of (channel_id, count)
        mem.set("since_sync", 0)   # requests since last server sync

    def serve(self, ctx: StepContext, fd: Any, payload: Any) -> Action:
        """Start servicing one client request; the path ends at state
        ``count``."""
        raise NotImplementedError

    # -- primary path --------------------------------------------------------

    def state_route(self, ctx: StepContext) -> Action:
        if ctx.regs.get("server_mode") == "backup":
            ctx.goto("backup_got")
            return Read(fd=ctx.regs["sync_fd"])
        ctx.goto("dispatch")
        return ReadAny(fds=())

    def state_dispatch(self, ctx: StepContext) -> Action:
        fd, payload = ctx.rv
        if payload == ("resync",):
            return self._sync(ctx)
        ctx.regs["_cur_fd"] = fd
        return self.serve(ctx, fd, payload)

    def state_count(self, ctx: StepContext) -> Action:
        ctx.goto("count_done")
        return ChannelOf(fd=ctx.regs["_cur_fd"])

    def state_count_done(self, ctx: StepContext) -> Action:
        channel = ctx.rv
        serviced = dict(ctx.mem.get("serviced"))
        if channel is not None:
            serviced[channel] = serviced.get(channel, 0) + 1
        ctx.mem.set("serviced", tuple(sorted(serviced.items())))
        since = ctx.mem.get("since_sync") + 1
        ctx.mem.set("since_sync", since)
        if since >= ctx.regs.get("sync_every", 32):
            return self._sync(ctx)
        ctx.goto("route")
        return Compute(5)

    def _sync(self, ctx: StepContext) -> Action:
        if self.flush_before_sync:
            ctx.goto("flushed")
            return ResourceOp(op="flush")
        return self.state_flushed(ctx)

    def state_flushed(self, ctx: StepContext) -> Action:
        """Ship the server sync (after the device flush, if any)."""
        state = None
        if self.state_cells:
            state = tuple(ctx.mem.get(cell) for cell in self.state_cells)
        ctx.goto("sync_sent")
        return SendServerSync(state=state, serviced=ctx.mem.get("serviced"))

    def state_sync_sent(self, ctx: StepContext) -> Action:
        ctx.mem.set("serviced", ())
        ctx.mem.set("since_sync", 0)
        ctx.goto("route")
        return Compute(5)

    # -- backup path ---------------------------------------------------------

    def state_backup_got(self, ctx: StepContext) -> Action:
        payload = ctx.rv
        if isinstance(payload, ServerSync):
            ctx.regs["_sync_payload"] = payload
            ctx.goto("backup_state")
            return ApplyServerSync(payload=payload)
        if payload == ("promote",):
            ctx.regs["server_mode"] = "primary"
            ctx.goto("route")
            return ResourceOp(op="attach")
        ctx.goto("route")
        return Compute(5)

    def state_backup_state(self, ctx: StepContext) -> Action:
        payload: ServerSync = ctx.regs["_sync_payload"]
        if payload.state is not None:
            for cell, value in zip(self.state_cells, payload.state):
                ctx.mem.set(cell, value)
        ctx.goto("route")
        return Compute(5)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

ResourceHandler = Callable[["PeripheralServerHarness", "ClusterKernel",
                            ProcessControlBlock, str, Tuple[Any, ...]],
                           Tuple[Ticks, Any]]


class ServerError(Exception):
    """Raised on server framework misuse."""


class PeripheralServerHarness:
    """Wires one peripheral server (primary + active backup) into the
    machine.

    ``device`` is the server's device or resource (page store, shadow
    fs, tty controller, raw disk); ``resource_handler`` implements
    :class:`ResourceOp` against it.  The handler receives the kernel
    actually executing, so port reattachment after promotion is just "use
    the current cluster".
    """

    def __init__(self, name: str, program: Type[PeripheralServerProgram],
                 device: Any, ports: Tuple[ClusterId, ClusterId],
                 resource_handler: ResourceHandler,
                 sync_every_requests: int = 32) -> None:
        self.name = name
        self.program = program
        self.device = device
        self.ports = ports
        self.resource_handler = resource_handler
        self.sync_every_requests = sync_every_requests
        self.pid: Optional[Pid] = None
        self.sync_channel: Optional[ChannelId] = None
        #: Device-input channels (e.g. the terminal multiplexor feed):
        #: wired at both ports at boot and re-wired on backup reinstall.
        self.device_channels: list = []
        self.primary_cluster: ClusterId = ports[0]
        self.backup_cluster: Optional[ClusterId] = ports[1]

    # -- installation -----------------------------------------------------

    def install(self, kernel_a: "ClusterKernel", kernel_b: "ClusterKernel",
                pid: Pid) -> None:
        """Create the primary (in ``kernel_a``) and active backup (in
        ``kernel_b``), plus the server-sync channel between them."""
        self.pid = pid
        self.sync_channel = kernel_a.alloc_channel_id()
        register_server_actions(kernel_a)
        register_server_actions(kernel_b)
        kernel_a.server_registry[pid] = self
        kernel_b.server_registry[pid] = self
        kernel_a.scheduler.make_ready(self._create_process(
            kernel_a, "primary", kernel_b.cluster_id))
        kernel_b.scheduler.make_ready(self._create_process(
            kernel_b, "backup", kernel_a.cluster_id))

    def _create_process(self, kernel: "ClusterKernel", server_mode: str,
                        peer_cluster: ClusterId) -> ProcessControlBlock:
        """One incarnation of the server in ``kernel``, wired to its
        peer at ``peer_cluster`` and not yet ready to run."""
        pcb = kernel.create_process(
            self.program(), BackupMode.HALFBACK,
            fixed_pid=self.pid, is_server=True,
            backup_cluster=peer_cluster if server_mode == "primary"
            else None,
            notify_backup=False,
            sync_reads_threshold=10 ** 9, sync_time_threshold=10 ** 15,
            make_ready=False)
        self._wire_sync_channel(kernel, pcb, peer_cluster)
        pcb.regs.update({
            "server_mode": server_mode,
            "my_cluster": kernel.cluster_id,
            "sync_every": self.sync_every_requests,
        })
        return pcb

    def _wire_sync_channel(self, kernel: "ClusterKernel",
                           pcb: ProcessControlBlock,
                           peer_cluster: ClusterId) -> None:
        entry = RoutingEntry(
            channel_id=self.sync_channel, owner_pid=self.pid,
            is_backup=False, peer_pid=self.pid, peer_cluster=peer_cluster,
            peer_backup_cluster=None, peer_kind=PeerKind.SERVER)
        kernel.routing.add(entry)
        fd = pcb.alloc_fd(self.sync_channel)
        entry.fd = fd
        pcb.regs["sync_fd"] = fd

    def reinstall_backup(self, restored_kernel: "ClusterKernel",
                         primary_kernel: "ClusterKernel") -> None:
        """Re-create the active backup on a restored cluster (the server
        analogue of halfback re-protection, section 7.3: peripheral
        servers get new backups "only when the cluster in which the
        original primary ran is returned to service").

        The new backup starts from the device's durable state (it reloads
        disk/account state at promotion anyway); explicit server syncs
        resume at the primary's next threshold.  A BACKUP_READY broadcast
        re-attaches DEST_BACKUP legs on every client channel.
        """
        from ..messages.message import Delivery, DeliveryRole, MessageKind
        from ..messages.payloads import BackupReady

        restored = restored_kernel.cluster_id
        if restored not in self.ports or restored == self.primary_cluster:
            raise ServerError(
                f"server {self.name}: cluster {restored} is not the "
                f"device's free port")
        self.backup_cluster = restored
        restored_kernel.server_registry[self.pid] = self

        backup = self._create_process(restored_kernel, "backup",
                                      self.primary_cluster)
        for channel_id in self.device_channels:
            restored_kernel.routing.ensure(RoutingEntry(
                channel_id=channel_id, owner_pid=self.pid, is_backup=True,
                peer_pid=None, peer_cluster=None, peer_backup_cluster=None,
                peer_kind=PeerKind.SERVER, opened_since_sync=False))
        # Transfer the primary's client channels (with their unconsumed
        # queues) so a later promotion can reach every parked requester --
        # the server-side analogue of a halfback's full sync.
        max_seqno = 0
        for entry in primary_kernel.routing.entries_for_pid(self.pid):
            if entry.channel_id == self.sync_channel or entry.is_backup:
                continue
            if restored_kernel.routing.get(entry.channel_id,
                                           self.pid) is not None:
                continue
            copied = RoutingEntry(
                channel_id=entry.channel_id, owner_pid=self.pid,
                is_backup=True, peer_pid=entry.peer_pid,
                peer_cluster=entry.peer_cluster,
                peer_backup_cluster=entry.peer_backup_cluster,
                peer_kind=entry.peer_kind, opened_since_sync=False)
            for queued in entry.queue:
                copied.queue.append(QueuedMessage(
                    message=queued.message,
                    arrival_seqno=queued.arrival_seqno,
                    arrival_time=restored_kernel.sim.now))
                max_seqno = max(max_seqno, queued.arrival_seqno)
            restored_kernel.routing.add(copied)
        if max_seqno:
            restored_kernel.cluster.ensure_seqno_at_least(max_seqno)
        restored_kernel.scheduler.make_ready(backup)

        primary = primary_kernel.pcbs.get(self.pid)
        if primary is not None:
            primary.backup_cluster = restored
            primary.lost_backup_in = None
        sync_entry = primary_kernel.routing.get(self.sync_channel, self.pid)
        if sync_entry is not None:
            sync_entry.peer_cluster = restored
        info = primary_kernel.directory.server(self.name)
        info.backup_cluster = restored
        deliveries = tuple(
            Delivery(cid, DeliveryRole.KERNEL, self.pid)
            for cid in primary_kernel.directory.live_clusters())
        primary_kernel.send_kernel_message(
            MessageKind.BACKUP_READY,
            BackupReady(pid=self.pid, backup_cluster=restored),
            deliveries, size=32)
        # Close the re-protection window now: make the primary ship its
        # current state instead of waiting for its next threshold sync.
        self._inject_request(primary_kernel, ("resync",))
        primary_kernel.metrics.incr("server.backups_reinstalled")

    # -- crash handling hook ------------------------------------------------

    def _inject_request(self, kernel: "ClusterKernel",
                        payload: Tuple[Any, ...]) -> None:
        """Queue a kernel-originated request on the server's sync channel
        at ``kernel`` and wake the server."""
        pcb = kernel.pcbs.get(self.pid)
        if pcb is None:
            return
        sync_entry = kernel.routing.require(self.sync_channel, self.pid)
        message = Message(
            msg_id=kernel.next_msg_id(), kind=MessageKind.DATA,
            src_pid=None, dst_pid=self.pid, channel_id=self.sync_channel,
            payload=payload, size_bytes=16,
            deliveries=(Delivery(kernel.cluster_id,
                                 DeliveryRole.PRIMARY_DEST, self.pid,
                                 self.sync_channel),))
        sync_entry.queue.append(QueuedMessage(
            message=message,
            arrival_seqno=kernel.cluster.next_arrival_seqno(),
            arrival_time=kernel.sim.now))
        kernel.wake_process(pcb)

    def on_cluster_crash(self, kernel: "ClusterKernel",
                         crashed: ClusterId) -> None:
        """Called during crash handling on every cluster holding a piece
        of this server."""
        if crashed == self.primary_cluster \
                and kernel.cluster_id == self.backup_cluster:
            self._promote(kernel)
        elif crashed == self.backup_cluster \
                and kernel.cluster_id == self.primary_cluster:
            self.backup_cluster = None
            pcb = kernel.pcbs.get(self.pid)
            if pcb is not None:
                pcb.backup_cluster = None
                pcb.lost_backup_in = crashed
            kernel.metrics.incr("server.backup_lost")

    def _promote(self, kernel: "ClusterKernel") -> None:
        """Signal the active backup to begin recovery (7.10.1 step 5)."""
        pcb = kernel.pcbs.get(self.pid)
        if pcb is None:
            return
        old_primary = self.primary_cluster
        self.primary_cluster = kernel.cluster_id
        self.backup_cluster = None
        pcb.backup_cluster = None
        pcb.lost_backup_in = old_primary
        # Flip saved entries into live ones, assigning descriptors in
        # deterministic (channel id) order.
        for entry in sorted(kernel.routing.entries_for_pid(self.pid),
                            key=lambda e: e.channel_id):
            if entry.is_backup:
                entry.is_backup = False
                if entry.fd is None:
                    entry.fd = pcb.alloc_fd(entry.channel_id)
        # Deliver the recovery signal on the sync channel so the blocked
        # backup loop wakes into its recovery state.
        self._inject_request(kernel, ("promote",))
        kernel.metrics.incr("server.promotions")
        kernel.trace.emit(kernel.sim.now, "server.promote",
                          server=self.name, cluster=kernel.cluster_id)


# ---------------------------------------------------------------------------
# action handlers
# ---------------------------------------------------------------------------

def register_server_actions(kernel: "ClusterKernel") -> None:
    """Install the privileged-action handlers once per kernel."""
    if ChannelOf in kernel.action_handlers:
        return
    kernel.register_action_handler(ChannelOf, _handle_channel_of)
    kernel.register_action_handler(FdOfChannel, _handle_fd_of)
    kernel.register_action_handler(LookupServer, _handle_lookup)
    kernel.register_action_handler(SendServerSync, _handle_send_sync)
    kernel.register_action_handler(ApplyServerSync, _handle_apply_sync)
    kernel.register_action_handler(ResourceOp, _handle_resource_op)


def _handle_channel_of(kernel: "ClusterKernel", pcb: ProcessControlBlock,
                       action: ChannelOf) -> Tuple[Ticks, Any]:
    return 0, pcb.fds.get(action.fd)


def _handle_fd_of(kernel: "ClusterKernel", pcb: ProcessControlBlock,
                  action: FdOfChannel) -> Tuple[Ticks, Any]:
    for fd, chan in pcb.fds.items():
        if chan == action.channel_id:
            return 0, fd
    return 0, None


def _handle_lookup(kernel: "ClusterKernel", pcb: ProcessControlBlock,
                   action: LookupServer) -> Tuple[Ticks, Any]:
    info = kernel.directory.server(action.name)
    return 0, (info.pid, info.primary_cluster, info.backup_cluster)


def _handle_send_sync(kernel: "ClusterKernel", pcb: ProcessControlBlock,
                      action: SendServerSync) -> Tuple[Ticks, Any]:
    harness = kernel.server_registry.get(pcb.pid)
    if harness is None:
        raise ServerError(f"pid {pcb.pid} is not a peripheral server")
    seq = pcb.regs.get("_server_sync_seq", 0) + 1
    pcb.regs["_server_sync_seq"] = seq
    payload = ServerSync(server_pid=pcb.pid, seq=seq, state=action.state,
                         serviced=tuple(action.serviced))
    entry = kernel.routing.require(harness.sync_channel, pcb.pid)
    if harness.backup_cluster is None:
        kernel.metrics.incr("server.syncs_skipped_no_backup")
        return 0, False
    kernel.send_user_message(pcb, entry, payload, size=128)
    kernel.metrics.incr("server.syncs_sent")
    return 0, True


def _handle_apply_sync(kernel: "ClusterKernel", pcb: ProcessControlBlock,
                       action: ApplyServerSync) -> Tuple[Ticks, Any]:
    payload = action.payload
    trimmed_total = 0
    for channel_id, count in payload.serviced:
        entry = kernel.routing.get(channel_id, pcb.pid)
        if entry is None:
            continue
        trimmed = min(count, len(entry.queue))
        del entry.queue[:trimmed]
        trimmed_total += trimmed
        entry.writes_since_sync = 0
    kernel.metrics.incr("server.syncs_applied")
    kernel.metrics.incr("server.requests_discarded", trimmed_total)
    return 0, trimmed_total


def _handle_resource_op(kernel: "ClusterKernel", pcb: ProcessControlBlock,
                        action: ResourceOp) -> Tuple[Ticks, Any]:
    harness = kernel.server_registry.get(pcb.pid)
    if harness is None:
        raise ServerError(f"pid {pcb.pid} is not a peripheral server")
    return harness.resource_handler(harness, kernel, pcb, action.op,
                                    action.args)
