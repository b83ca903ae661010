"""The file server (sections 7.4.1 and 7.9).

One file server is associated with each file system.  It plays two roles:

* **name service**: ``open`` requests arrive on every process's standing
  file-server channel.  ``file:`` names open a file (the new channel's
  peer is the file server itself), ``tty:`` names hand back a channel to
  the tty server, and ``chan:`` names rendezvous-pair two openers into a
  user-to-user channel — the paper's channel-pairing behaviour;
* **file service**: reads and writes on file channels against the
  shadow-block filesystem.

Active backup per section 7.9: the server syncs by *flushing its cache to
the dual-ported disk* and then sending only its small pending state and
per-channel serviced counts — "we avoid sending a large amount of
information to the backup via the message system".
"""

from __future__ import annotations

from typing import Any, Tuple, TYPE_CHECKING

from ..fs.shadowfs import ShadowFS
from ..messages.payloads import OpenReply, OpenRequest
from ..programs.actions import Action, Compute, Write
from ..programs.program import StepContext
from ..types import Ticks
from .base import (ChannelOf, FdOfChannel, LookupServer,
                   PeripheralServerHarness, PeripheralServerProgram,
                   ResourceOp)

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import ClusterKernel
    from ..kernel.pcb import ProcessControlBlock

#: File-server-allocated channel ids live far above every kernel
#: allocator's range, so the two id spaces never collide.
FS_CHANNEL_BASE = 1_000_000_000


class FileServerProgram(PeripheralServerProgram):
    """State machine for the file server's request loop."""

    name = "file_server"
    state_cells = ("chanmap",   # tuple of (channel_id, file name)
                   "pending")   # tuple of (name, OpenRequest)
    flush_before_sync = True

    def serve(self, ctx: StepContext, fd: Any, payload: Any) -> Action:
        ctx.regs["_cur_req"] = payload
        if isinstance(payload, OpenRequest):
            return self._dispatch_open(ctx, payload)
        if isinstance(payload, tuple) and payload \
                and payload[0] in ("fwrite", "fread", "fsize"):
            ctx.goto("file_op_chan")
            return ChannelOf(fd=fd)
        # Unknown request: ignore it (still counted as serviced).
        ctx.goto("count")
        return Compute(10)

    # -- open handling --------------------------------------------------------

    def _dispatch_open(self, ctx: StepContext,
                       request: OpenRequest) -> Action:
        name = request.name
        if name.startswith("file:"):
            ctx.goto("open_file_created")
            return ResourceOp(op="create", args=(name[5:],))
        if name.startswith("tty:"):
            ctx.goto("open_server_lookup")
            return LookupServer(name="tty")
        if name.startswith("raw:"):
            ctx.goto("open_server_lookup")
            return LookupServer(name="raw")
        if name.startswith("chan:"):
            return self._dispatch_pair(ctx, request)
        ctx.goto("open_error")
        return Compute(10)

    def state_open_error(self, ctx: StepContext) -> Action:
        request: OpenRequest = ctx.regs["_cur_req"]
        ctx.goto("count")
        return Write(ctx.regs["_cur_fd"],
                     OpenReply(name=request.name, channel_id=-1,
                               peer_pid=-1, peer_cluster=-1,
                               peer_backup_cluster=None,
                               peer_is_server=False,
                               error=f"cannot open {request.name!r}"))

    def state_open_file_created(self, ctx: StepContext) -> Action:
        ctx.goto("open_self_lookup")
        return LookupServer(name="fs")

    def state_open_self_lookup(self, ctx: StepContext) -> Action:
        request: OpenRequest = ctx.regs["_cur_req"]
        pid, primary, backup = ctx.rv
        channel_id = self._alloc_channel(request)
        chanmap = dict(ctx.mem.get("chanmap"))
        chanmap[channel_id] = request.name[5:]
        ctx.mem.set("chanmap", tuple(sorted(chanmap.items())))
        ctx.goto("count")
        return Write(ctx.regs["_cur_fd"],
                     OpenReply(name=request.name, channel_id=channel_id,
                               peer_pid=pid, peer_cluster=primary,
                               peer_backup_cluster=backup,
                               peer_is_server=True))

    def state_open_server_lookup(self, ctx: StepContext) -> Action:
        request: OpenRequest = ctx.regs["_cur_req"]
        pid, primary, backup = ctx.rv
        channel_id = self._alloc_channel(request)
        ctx.goto("count")
        return Write(ctx.regs["_cur_fd"],
                     OpenReply(name=request.name, channel_id=channel_id,
                               peer_pid=pid, peer_cluster=primary,
                               peer_backup_cluster=backup,
                               peer_is_server=True))

    def _dispatch_pair(self, ctx: StepContext,
                       request: OpenRequest) -> Action:
        pending = dict(ctx.mem.get("pending"))
        name = request.name
        first = pending.pop(name, None)
        if first is None:
            pending[name] = request
            ctx.mem.set("pending", tuple(sorted(pending.items(),
                                                key=lambda kv: kv[0])))
            # The opener stays blocked until a partner arrives (the read
            # of the open reply is synchronous); nothing to send yet, but
            # the request still counts as serviced so the backup discards
            # it — the pairing state itself rides the server sync.
            ctx.goto("count")
            return Compute(10)
        ctx.mem.set("pending", tuple(sorted(pending.items(),
                                            key=lambda kv: kv[0])))
        channel_id = self._alloc_channel(first)
        ctx.regs["_pair_first"] = first
        ctx.regs["_pair_chan"] = channel_id
        ctx.goto("pair_first_fd")
        return FdOfChannel(channel_id=first.reply_channel)

    def state_pair_first_fd(self, ctx: StepContext) -> Action:
        first: OpenRequest = ctx.regs["_pair_first"]
        second: OpenRequest = ctx.regs["_cur_req"]
        channel_id = ctx.regs["_pair_chan"]
        first_fd = ctx.rv
        ctx.regs["_pair_first_fd"] = first_fd
        ctx.goto("pair_second_reply")
        # Reply to the first opener, naming the second as its peer.
        return Write(first_fd,
                     OpenReply(name=first.name, channel_id=channel_id,
                               peer_pid=second.opener_pid,
                               peer_cluster=second.opener_cluster,
                               peer_backup_cluster=
                               second.opener_backup_cluster,
                               peer_is_server=False,
                               peer_fullback=second.opener_fullback))

    def state_pair_second_reply(self, ctx: StepContext) -> Action:
        first: OpenRequest = ctx.regs["_pair_first"]
        second: OpenRequest = ctx.regs["_cur_req"]
        channel_id = ctx.regs["_pair_chan"]
        ctx.goto("count")
        return Write(ctx.regs["_cur_fd"],
                     OpenReply(name=second.name, channel_id=channel_id,
                               peer_pid=first.opener_pid,
                               peer_cluster=first.opener_cluster,
                               peer_backup_cluster=
                               first.opener_backup_cluster,
                               peer_is_server=False,
                               peer_fullback=first.opener_fullback))

    @staticmethod
    def _alloc_channel(request) -> int:
        """Channel id as a pure function of the opener's identity and its
        per-process open counter — identical no matter which incarnation
        of the file server services (or re-services) the request, and
        collision-free for processes opening < 256 channels."""
        return (FS_CHANNEL_BASE + request.opener_pid * 256
                + request.opener_seq % 256)

    # -- file operations --------------------------------------------------------

    def state_file_op_chan(self, ctx: StepContext) -> Action:
        channel_id = ctx.rv
        chanmap = dict(ctx.mem.get("chanmap"))
        name = chanmap.get(channel_id)
        request = ctx.regs["_cur_req"]
        if name is None:
            ctx.goto("count")
            return Write(ctx.regs["_cur_fd"], ("error", "not a file channel"))
        op = request[0]
        ctx.goto("file_op_done")
        if op == "fwrite":
            _, offset, words = request
            return ResourceOp(op="write", args=(name, offset, tuple(words)))
        if op == "fread":
            _, offset, count = request
            return ResourceOp(op="read", args=(name, offset, count))
        return ResourceOp(op="size", args=(name,))

    def state_file_op_done(self, ctx: StepContext) -> Action:
        request = ctx.regs["_cur_req"]
        ctx.goto("count")
        if request[0] == "fwrite":
            return Write(ctx.regs["_cur_fd"], ("ok",))
        if request[0] == "fread":
            return Write(ctx.regs["_cur_fd"], ("data", ctx.rv))
        return Write(ctx.regs["_cur_fd"], ("size", ctx.rv))


def fs_resource_handler(harness: PeripheralServerHarness,
                        kernel: "ClusterKernel",
                        pcb: "ProcessControlBlock", op: str,
                        args: Tuple[Any, ...]) -> Tuple[Ticks, Any]:
    """ResourceOp implementation over the harness's :class:`ShadowFS`."""
    shadowfs: ShadowFS = harness.device
    if op == "create":
        (name,) = args
        shadowfs.create(name)
        return 0, True
    if op == "write":
        name, offset, words = args
        cost = shadowfs.write(name, offset, words)
        return cost, True
    if op == "read":
        name, offset, count = args
        data, cost = shadowfs.read(name, offset, count)
        return cost, data
    if op == "size":
        (name,) = args
        return 0, shadowfs.size(name)
    if op == "flush":
        disk_cost = shadowfs.flush()
        # Flush transfers run on the peripheral processor (7.1); the
        # server issues them and continues.
        kernel.metrics.add_busy(f"disk[fs.c{kernel.cluster_id}]", "flush",
                                disk_cost)
        return kernel.config.costs.disk_issue, True
    if op == "attach":
        shadowfs.reattach(kernel.cluster_id)
        return shadowfs.reload(), True
    raise ValueError(f"file server: unknown resource op {op!r}")
