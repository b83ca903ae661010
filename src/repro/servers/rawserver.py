"""The raw disk server (section 7.6).

"A raw server is associated with each disk to handle requests for direct
access rather than via a file system."  Clients open ``raw:0`` through the
file server and issue block-level reads and writes; the server performs
them against its dual-ported mirrored disk.

Like the other peripheral servers it runs with an active backup: client
requests are saved at the backup's cluster, periodic server syncs carry
only serviced counts (the data is already on the dual-ported disk), and a
promoted backup reattaches through its own port and re-services the
unserviced tail — block writes are idempotent redo operations.
"""

from __future__ import annotations

from typing import Any, Tuple, TYPE_CHECKING

from ..hardware.disk import MirroredDisk
from ..programs.actions import Action, Compute, Write
from ..programs.program import StepContext
from ..types import Ticks
from .base import (PeripheralServerHarness, PeripheralServerProgram,
                   ResourceOp)

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import ClusterKernel
    from ..kernel.pcb import ProcessControlBlock


class RawServerProgram(PeripheralServerProgram):
    """Request loop for direct block access.

    Protocol (on a channel opened as ``raw:<n>``):
    ``("rwrite", block_no, words)`` -> ``("ok",)``
    ``("rread", block_no)``         -> ``("block", words-or-None)``
    """

    name = "raw_server"

    def serve(self, ctx: StepContext, fd: Any, payload: Any) -> Action:
        if isinstance(payload, tuple) and payload:
            if payload[0] == "rwrite" and len(payload) == 3:
                _, block_no, words = payload
                ctx.goto("write_done")
                return ResourceOp(op="write",
                                  args=(block_no, tuple(words)))
            if payload[0] == "rread" and len(payload) == 2:
                ctx.goto("read_done")
                return ResourceOp(op="read", args=(payload[1],))
        ctx.goto("count")
        return Compute(5)

    def state_write_done(self, ctx: StepContext) -> Action:
        ctx.goto("count")
        return Write(ctx.regs["_cur_fd"], ("ok",))

    def state_read_done(self, ctx: StepContext) -> Action:
        ctx.goto("count")
        return Write(ctx.regs["_cur_fd"], ("block", ctx.rv))


def raw_resource_handler(harness: PeripheralServerHarness,
                         kernel: "ClusterKernel",
                         pcb: "ProcessControlBlock", op: str,
                         args: Tuple[Any, ...]) -> Tuple[Ticks, Any]:
    disk: MirroredDisk = harness.device
    if op == "write":
        block_no, words = args
        disk_cost = disk.write(kernel.cluster_id, block_no, words)
        kernel.metrics.add_busy(f"disk[raw.c{kernel.cluster_id}]", "write",
                                disk_cost)
        return kernel.config.costs.disk_issue, True
    if op == "read":
        (block_no,) = args
        data, cost = disk.read(kernel.cluster_id, block_no)
        return cost, data
    if op == "attach":
        return 0, True
    raise ValueError(f"raw server: unknown resource op {op!r}")
