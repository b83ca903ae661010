"""The tty server and terminal device (sections 7.6 and 7.9).

A tty server runs in each cluster having terminals; ours serves the
machine's dual-ported terminal multiplexor.  Clients open ``tty:<n>``
through the file server and then:

* ``("twrite", text, pid, seq)`` — print ``text``.  The ``(pid, seq)`` key
  (a deterministic per-client counter) lets the device controller discard
  duplicate prints when a promoted backup server re-services requests the
  lost primary already completed — the output-commit guard.
* ``("tread", ...)`` — receive the next input line; the request parks in
  the server until input arrives.

The device's output log is the machine's externally visible behaviour:
experiment E8 compares it between failure-free and crashed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Set, Tuple, TYPE_CHECKING

from ..programs.actions import Action, Compute, Write
from ..programs.program import StepContext
from ..types import Ticks
from .base import (ChannelOf, FdOfChannel, PeripheralServerHarness,
                   PeripheralServerProgram, ResourceOp)

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import ClusterKernel
    from ..kernel.pcb import ProcessControlBlock


@dataclass
class TtyDevice:
    """The dual-ported terminal controller.

    ``output`` is the authoritative external record.  ``write`` drops
    duplicates by key — modelling a controller FIFO that acknowledges by
    sequence number, which is what makes recovery exactly-once as far as
    the user at the terminal can tell.
    """

    name: str = "tty0"
    output: List[Tuple[Any, str]] = field(default_factory=list)
    _seen_keys: Set[Any] = field(default_factory=set)
    pending_input: List[str] = field(default_factory=list)

    def write(self, text: str, key: Any) -> bool:
        """Print ``text``; returns False if the key was a duplicate."""
        if key is not None:
            if key in self._seen_keys:
                return False
            self._seen_keys.add(key)
        self.output.append((key, text))
        return True

    def output_texts(self) -> List[str]:
        return [text for _, text in self.output]


class TtyServerProgram(PeripheralServerProgram):
    """Request loop: writes go to the device, reads pair with input."""

    name = "tty_server"
    state_cells = ("input_buf",      # tuple of pending input lines
                   "pending_reads")  # tuple of channel ids, FIFO

    def serve(self, ctx: StepContext, fd: Any, payload: Any) -> Action:
        ctx.regs["_cur_req"] = payload
        if isinstance(payload, tuple) and payload:
            tag = payload[0]
            if tag == "input":
                return self._handle_input(ctx, payload[1])
            if tag == "twrite":
                _, text, pid, seq = payload
                ctx.goto("write_done")
                key = None if pid is None else (pid, seq)
                return ResourceOp(op="write", args=(text, key))
            if tag == "tread":
                return self._handle_read(ctx)
        ctx.goto("count")
        return Compute(5)

    # -- output path ------------------------------------------------------------

    def state_write_done(self, ctx: StepContext) -> Action:
        ctx.goto("count")
        return Write(ctx.regs["_cur_fd"], ("ok",))

    # -- input path ----------------------------------------------------------------

    def _handle_input(self, ctx: StepContext, text: str) -> Action:
        pending = list(ctx.mem.get("pending_reads"))
        if pending:
            channel = pending.pop(0)
            ctx.mem.set("pending_reads", tuple(pending))
            ctx.regs["_reply_text"] = text
            ctx.goto("input_reply_fd")
            return FdOfChannel(channel_id=channel)
        buffered = list(ctx.mem.get("input_buf"))
        buffered.append(text)
        ctx.mem.set("input_buf", tuple(buffered))
        ctx.goto("count")
        return Compute(5)

    def state_input_reply_fd(self, ctx: StepContext) -> Action:
        ctx.goto("count")
        return Write(ctx.rv, ("line", ctx.regs["_reply_text"]))

    def _handle_read(self, ctx: StepContext) -> Action:
        buffered = list(ctx.mem.get("input_buf"))
        if buffered:
            text = buffered.pop(0)
            ctx.mem.set("input_buf", tuple(buffered))
            ctx.goto("count")
            return Write(ctx.regs["_cur_fd"], ("line", text))
        # Park the request by channel id (stable across promotion).
        ctx.goto("read_parked")
        return ChannelOf(fd=ctx.regs["_cur_fd"])

    def state_read_parked(self, ctx: StepContext) -> Action:
        pending = list(ctx.mem.get("pending_reads"))
        pending.append(ctx.rv)
        ctx.mem.set("pending_reads", tuple(pending))
        ctx.goto("count")
        return Compute(5)


def tty_resource_handler(harness: PeripheralServerHarness,
                         kernel: "ClusterKernel",
                         pcb: "ProcessControlBlock", op: str,
                         args: Tuple[Any, ...]) -> Tuple[Ticks, Any]:
    """ResourceOp implementation over the harness's :class:`TtyDevice`."""
    device: TtyDevice = harness.device
    if op == "write":
        text, key = args
        accepted = device.write(text, key)
        if not accepted:
            kernel.metrics.incr("tty.duplicates_dropped")
        else:
            kernel.metrics.incr("tty.lines_printed")
        return 200, accepted
    if op == "attach":
        return 0, True
    raise ValueError(f"tty server: unknown resource op {op!r}")
