"""The page server (sections 7.6 and 7.9).

A peripheral server associated with the paging disk.  It keeps one page
account for each primary process and one for its backup; a process's sync
makes the backup account identical to the primary's, and after a crash the
promoted process demand-pages from the (promoted) backup account.

The server itself is backed up actively: page traffic addressed to it is
saved at its backup's cluster, periodic server syncs let the backup
discard serviced traffic, and on promotion the backup reattaches the
dual-ported paging disk through its own port and replays the unserviced
tail (every page-store operation is an idempotent redo).
"""

from __future__ import annotations

from typing import Any, Tuple, TYPE_CHECKING

from ..config import PAGE_SIZE
from ..messages.message import Delivery, DeliveryRole, MessageKind
from ..messages.payloads import (PageAccountOp, PageIn, PageOut, PageReply,
                                 SyncPayload)
from ..paging.store import PageStore
from ..programs.actions import Action, Compute
from ..programs.program import StepContext
from ..types import Ticks
from .base import (PeripheralServerHarness, PeripheralServerProgram,
                   ResourceOp)

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import ClusterKernel
    from ..kernel.pcb import ProcessControlBlock


class PageServerProgram(PeripheralServerProgram):
    """Services page traffic: page-outs, page-in fetches, process syncs
    and page-account maintenance, each one redo operation on the store."""

    name = "page_server"

    def serve(self, ctx: StepContext, fd: Any, payload: Any) -> Action:
        ctx.goto("count")
        if isinstance(payload, PageOut):
            return ResourceOp(op="page_out",
                              args=(payload.pid, payload.page_no,
                                    payload.data))
        if isinstance(payload, PageIn):
            return ResourceOp(op="fetch_and_reply",
                              args=(payload.pid, payload.page_no,
                                    payload.from_backup,
                                    payload.reply_cluster))
        if isinstance(payload, SyncPayload):
            return ResourceOp(op="sync", args=(payload.pid,))
        if isinstance(payload, PageAccountOp):
            return ResourceOp(op=payload.op, args=(payload.pid,))
        return Compute(5)  # unknown traffic: ignore (still counted)


def page_resource_handler(harness: PeripheralServerHarness,
                          kernel: "ClusterKernel",
                          pcb: "ProcessControlBlock", op: str,
                          args: Tuple[Any, ...]) -> Tuple[Ticks, Any]:
    """ResourceOp implementation over the harness's :class:`PageStore`."""
    store: PageStore = harness.device
    if op == "attach":
        store.reattach(kernel.cluster_id)
        return 0, True
    if op == "page_out":
        pid, page_no, data = args
        disk_cost = store.page_out(pid, page_no, data)
        # The transfer itself runs on the peripheral processor; the server
        # only issues it (section 7.1's processor split).
        kernel.metrics.add_busy(f"disk[page.c{kernel.cluster_id}]",
                                "page_out", disk_cost)
        return kernel.config.costs.disk_issue, True
    if op == "fetch_and_reply":
        pid, page_no, from_backup, reply_cluster = args
        data, cost = store.fetch(pid, page_no, from_backup=from_backup)
        kernel.send_kernel_message(
            MessageKind.DATA,
            PageReply(pid=pid, page_no=page_no, data=data),
            (Delivery(reply_cluster, DeliveryRole.PRIMARY_DEST, pid, None),),
            size=PAGE_SIZE if data else 32)
        return cost, True
    if op == "sync":
        (pid,) = args
        return store.sync(pid), True
    if op == "promote":
        (pid,) = args
        if store.has_accounts(pid):
            store.promote(pid)
        return 0, True
    if op == "drop":
        (pid,) = args
        store.drop_accounts(pid)
        return 0, True
    raise ValueError(f"page server: unknown resource op {op!r}")
