"""Process scheduling and the step-execution engine.

Work processors run processes action by action.  At every step boundary
the engine performs the paper's kernel duties in a fixed order:

1. resolve whatever the process was blocked on (message arrival, open
   reply, page-in);
2. sync if a trigger fired — reads-since-sync, execution time, or a forced
   sync (7.8);
3. deliver a pending asynchronous signal, forcing a sync just prior to
   handling it (7.5.2);
4. run one program step inside a memory/register transaction and perform
   the returned action.

A :class:`~repro.paging.PageFault` aborts the step with no side effects;
the process blocks until the page server supplies the page, then the step
re-runs — that is how a freshly promoted backup "gradually brings its
address space into memory" (7.10.2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, TYPE_CHECKING

from ..hardware.disk import DiskError
from ..hardware.processor import WorkProcessor
from ..messages.payloads import EOFMarker, OpenReply
from ..messages.routing import EntryStatus, PeerKind
from ..paging import MemoryTxn, PageFault
from ..programs.actions import (Alarm, Close, Compute, Exit, Fork, GetPid,
                                GetTime, Open, Poll, Read, ReadAny,
                                ReadClock, Write, Yield)
from ..programs.program import StepContext
from ..types import Pid, Ticks
from .pcb import BlockInfo, ProcState, ProcessControlBlock

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import ClusterKernel


class SchedulerError(Exception):
    """Raised when a program returns an unhandled action type."""


#: Syscall actions whose handling is deferred whole to ``_finish_syscall``
#: after the syscall-overhead delay (everything except Compute/Exit, the
#: entry-time-valued GetPid/ReadClock/Poll, and custom privileged actions).
_DEFERRED_SYSCALLS = (Read, Write, ReadAny, Open, Close, Fork, GetTime,
                      Alarm, Yield)

#: Exact-type membership test for the deferred set.  Actions are frozen
#: dataclasses that are never subclassed (custom privileged actions go
#: through ``kernel.action_handlers``, which is already keyed by exact
#: type), so ``__class__ in set`` replaces a nine-way isinstance scan.
_DEFERRED_SET = frozenset(_DEFERRED_SYSCALLS)

#: Entry-time-valued syscalls: result defined at syscall *entry* (see
#: ``_perform_action``); the int tags pick the branch after one lookup.
_ENTRY_KIND = {GetPid: 0, ReadClock: 1, Poll: 2}


class Scheduler:
    """Per-cluster ready queue plus the action interpreter.

    Two-level priority: server processes (and crash handling, which runs
    through a separate gate) ahead of normal user processes, matching the
    paper's "very high priority" treatment of system work.

    The step engine is the hottest non-loop code in the repository, so it
    trades a little uniformity for allocation avoidance (measured on the
    dense OLTP workload):

    * one :class:`StepContext` + :class:`MemoryTxn` pair is cached per
      PCB and reset per step instead of allocated per step;
    * continuations are posted handle-free as a bound method plus a
      ``(proc, pcb)`` argument tuple (``sim.post``): no closure, no
      event handle and no label per scheduled step;
    * a continuation enters the step body directly (``_continue`` has
      just made the liveness and identity checks ``_step`` would
      repeat), and a ``Compute`` result is charged and re-posted at the
      tail of the step without a trip through ``_perform_action``;
    * `sim.post`, the continuation methods and the busy store are bound
      once at construction;
    * action dispatch is exact-type dict lookups instead of isinstance
      chains.
    """

    def __init__(self, kernel: "ClusterKernel") -> None:
        self.kernel = kernel
        self._ready_high: Deque[Pid] = deque()
        self._ready_normal: Deque[Pid] = deque()
        # Hot-path bindings (kernel.sim/metrics are fixed for the
        # kernel's lifetime; a revived cluster builds a fresh kernel).
        self._post = kernel.sim.post
        self._step_cb = self._step
        self._continue_cb = self._continue
        # The busy store itself (mutated in place, never replaced): the
        # per-step user/syscall charges skip even the add_busy call layer.
        self._busy_acc = kernel.metrics._busy
        self._syscall_overhead = kernel.config.costs.syscall_overhead
        self._quantum = kernel.config.costs.quantum
        self._finishers = {
            Read: self._do_read,
            Write: self._do_write,
            ReadAny: self._do_read_any,
            Open: self._do_open,
            Close: self._do_close,
            Fork: self._do_fork,
            GetTime: self._do_gettime,
            Alarm: self._do_alarm,
            Yield: self._do_yield,
        }

    def close(self) -> None:
        """Let go of the bound-method aliases through which this object
        holds itself.  The kernel has halted for good, so a continuation
        still on the event heap arrives, sees that and returns."""
        self._step_cb = self._continue_cb = None
        self._finishers = {}

    # -- queue management ---------------------------------------------------

    def make_ready(self, pcb: ProcessControlBlock) -> None:
        if pcb.state in (ProcState.RUNNING, ProcState.READY,
                         ProcState.EXITED):
            if pcb.state is ProcState.READY:
                self.dispatch()
            return
        pcb.state = ProcState.READY
        # pcb.block stays: _step resolves the pending action on resume.
        queue = self._ready_high if pcb.is_server else self._ready_normal
        queue.append(pcb.pid)
        self.dispatch()

    def _pop_ready(self) -> Optional[ProcessControlBlock]:
        for queue in (self._ready_high, self._ready_normal):
            while queue:
                pid = queue.popleft()
                pcb = self.kernel.pcbs.get(pid)
                if pcb is not None and pcb.state is ProcState.READY:
                    return pcb
        return None

    def has_ready(self) -> bool:
        # Reached on every expired quantum, almost always with nothing
        # queued: answer that case without building the scan.
        if not self._ready_high and not self._ready_normal:
            return False
        pcbs = self.kernel.pcbs
        for queue in (self._ready_high, self._ready_normal):
            for pid in queue:
                pcb = pcbs.get(pid)
                if pcb is not None and pcb.state is ProcState.READY:
                    return True
        return False

    def dispatch(self) -> None:
        """Assign ready processes to idle work processors."""
        kernel = self.kernel
        if not kernel.alive or kernel.crash_handling:
            return
        for proc in kernel.cluster.work_processors:
            if proc.current_pid is not None:  # proc.idle, sans descriptor
                continue
            pcb = self._pop_ready()
            if pcb is None:
                return
            self._assign(proc, pcb)

    def _assign(self, proc: WorkProcessor, pcb: ProcessControlBlock) -> None:
        pcb.state = ProcState.RUNNING
        pcb.on_processor = proc.index
        pcb.quantum_used = 0
        proc.current_pid = pcb.pid
        cost = self.kernel.config.costs.context_switch
        self._charge(proc, pcb, cost, "context_switch")
        self._post(cost, self._step_cb, (proc, pcb))

    def _release(self, proc: WorkProcessor,
                 pcb: Optional[ProcessControlBlock]) -> None:
        proc.current_pid = None
        if pcb is not None:
            pcb.on_processor = None
        self.dispatch()

    def _charge(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                cost: Ticks, activity: str) -> None:
        self.kernel.metrics.add_busy(proc.resource_name, activity, cost)
        pcb.note_exec(cost)

    def _gone(self, pcb: ProcessControlBlock) -> bool:
        """Has this exact PCB been exited, failed, or replaced (a restart
        reuses the pid but not the object) since the continuation was
        scheduled?"""
        return (not self.kernel.alive
                or self.kernel.pcbs.get(pcb.pid) is not pcb
                or pcb.state is ProcState.EXITED)

    # -- the step engine ------------------------------------------------------

    def _step(self, proc: WorkProcessor, pcb: ProcessControlBlock) -> None:
        """A step posted across a delay (context switch, sync or
        checkpoint stall): the cluster may have crashed and the process
        exited or been replaced meanwhile."""
        kernel = self.kernel
        if not kernel.alive:
            return
        # _gone(), inlined: alive was just checked.
        if kernel.pcbs.get(pcb.pid) is not pcb \
                or pcb.state is ProcState.EXITED:
            self._release(proc, pcb)
            return
        self._run_step(proc, pcb)

    def _run_step(self, proc: WorkProcessor,
                  pcb: ProcessControlBlock) -> None:
        """The step body.  The caller has established, in this same
        event, that the kernel is alive and ``pcb`` is the live PCB."""
        kernel = self.kernel

        # 1. Resolve a pending block.
        block = pcb.block
        if block is not None:
            if block.kind != "page":
                if not self._resolve_block(proc, pcb):
                    return  # still blocked; processor released inside
            else:
                pcb.block = None  # page installed; the step below retries

        # 2a. Baseline checkpointing (section 2 comparison), if enabled.
        if pcb.checkpoint_every is not None \
                and pcb.backup_cluster is not None \
                and pcb.ops_since_checkpoint >= pcb.checkpoint_every:
            self._do_checkpoint(proc, pcb)
            return

        # 2b. Sync triggers (7.8), pcb.sync_due() inlined — this check
        # runs once per step for every protected process.  A pending
        # full-sync target (backup re-creation) fires even when the
        # process currently has no backup cluster at all.
        if (pcb.backup_cluster is not None or
                pcb.full_sync_target is not None) \
                and (pcb.sync_forced
                     or pcb.reads_since_sync >= pcb.sync_reads_threshold
                     or pcb.exec_since_sync >= pcb.sync_time_threshold):
            self._do_sync(proc, pcb)
            return

        # 3. Asynchronous signals (7.5.2): sync just prior to handling.
        # The empty-queue early-out of kernel.check_signals is inlined —
        # it runs once per step and the queue is almost always empty.
        entry = kernel._route_get((pcb.signal_channel, pcb.pid))
        if entry is not None and entry.queue \
                and kernel.check_signals(pcb) is not None:
            if pcb.backup_cluster is not None:
                self._do_sync(proc, pcb, then_signal=True)
                return
            self._handle_signal(proc, pcb)
            return

        # 4. One program step, inside the PCB's cached transaction
        # context (reset here; allocated once per PCB).
        try:
            ctx = pcb._sched_ctx
            txn = ctx.mem
            txn._writes.clear()
            txn.pages_touched.clear()
        except AttributeError:
            txn = MemoryTxn(pcb.space)
            ctx = StepContext(pid=pcb.pid, mem=txn, regs=pcb.regs)
            pcb._sched_ctx = ctx
        ctx.regs = regs = pcb.regs.copy()
        try:
            action = pcb.program.step(ctx)
        except PageFault as fault:
            kernel.page_fault(pcb, fault.page_no)
            self._release(proc, pcb)
            return
        # Commit the step's memory and register effects, then act.
        if txn._writes:
            txn.commit()
        pcb.regs = regs
        pcb.total_steps += 1
        pcb.ops_since_checkpoint += 1
        if action.__class__ is Compute:
            # The commonest result by far: charge it and post the
            # continuation here (pcb.note_exec inlined).
            cost = action.cost
            self._busy_acc[(proc.resource_name, "user")] += cost
            pcb.exec_since_sync += cost
            pcb.quantum_used += cost
            self._post(cost, self._continue_cb, (proc, pcb))
            return
        self._perform_action(proc, pcb, action)

    def _resolve_block(self, proc: WorkProcessor,
                       pcb: ProcessControlBlock) -> bool:
        """Try to complete the blocked action.  Returns True when the
        process may continue (block resolved), False when it re-blocked."""
        kernel = self.kernel
        block = pcb.block
        assert block is not None
        result = kernel.try_consume(pcb, block.fds)
        if result is None:
            pcb.state = (ProcState.BLOCKED_OPEN if block.kind == "open"
                         else ProcState.BLOCKED_READ)
            self._release(proc, pcb)
            return False
        fd, payload = result
        if block.since is not None:
            # End-to-end request latency (write ... await_reply -> reply
            # consumed) and plain read-wait, in virtual ticks.  Metrics
            # only: never traced, never synced, so traces and digests
            # are untouched.
            waited = kernel.sim.now - block.since
            if block.kind == "reply":
                kernel._record_hist("latency.request", waited)
            elif block.kind in ("read", "read_any"):
                kernel._record_hist("latency.read_wait", waited)
        if block.kind == "read_any":
            pcb.regs["rv"] = (fd, payload)
        elif block.kind == "open":
            pcb.regs["rv"] = self._finish_open(pcb, payload)
        else:  # "read" / "reply"
            pcb.regs["rv"] = payload
        pcb.block = None
        return True

    def _finish_open(self, pcb: ProcessControlBlock, payload: Any) -> Any:
        if not isinstance(payload, OpenReply):
            raise SchedulerError(
                f"pid {pcb.pid}: expected OpenReply, got {payload!r}")
        if payload.error is not None:
            return None
        fd = pcb.alloc_fd(payload.channel_id)
        entry = self.kernel.routing.get(payload.channel_id, pcb.pid)
        if entry is not None:
            entry.fd = fd
        return fd

    def _do_checkpoint(self, proc: WorkProcessor,
                       pcb: ProcessControlBlock) -> None:
        from ..baselines.checkpointing import perform_checkpoint

        stall = perform_checkpoint(self.kernel, pcb)
        self._charge(proc, pcb, stall, "checkpoint_stall")
        self._post(stall, self._step_cb, (proc, pcb))

    def _do_sync(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                 then_signal: bool = False) -> None:
        from ..backup.sync import perform_sync

        stall = perform_sync(self.kernel, pcb)
        self._charge(proc, pcb, stall, "sync_stall")
        pcb.exec_since_sync = 0
        self._post(stall,
                   self._signal_after_sync if then_signal else self._step_cb,
                   (proc, pcb))

    def _signal_after_sync(self, proc: WorkProcessor,
                           pcb: ProcessControlBlock) -> None:
        if not self.kernel.alive:
            return
        if self._gone(pcb):
            self._release(proc, pcb)
            return
        self._handle_signal(proc, pcb)

    def _handle_signal(self, proc: WorkProcessor,
                       pcb: ProcessControlBlock) -> None:
        kernel = self.kernel
        # Run the handler against the *peeked* signal: if it page-faults
        # (a freshly promoted backup handling a replayed signal), nothing
        # has been consumed or committed and the whole step retries once
        # the page arrives.
        payload = kernel.peek_signal(pcb)
        txn = MemoryTxn(pcb.space)
        regs = dict(pcb.regs)
        ctx = StepContext(pid=pcb.pid, mem=txn, regs=regs)
        try:
            pcb.program.on_signal(ctx, payload)
        except PageFault as fault:
            kernel.page_fault(pcb, fault.page_no)
            self._release(proc, pcb)
            return
        kernel.consume_signal(pcb)
        regs["_sig_seen"] = payload.seq  # survives the regs swap below
        txn.commit()
        pcb.regs = regs
        cost = self._syscall_overhead
        self._charge(proc, pcb, cost, "signal")
        self._post(cost, self._continue_cb, (proc, pcb))

    # -- action interpretation ---------------------------------------------

    def _perform_action(self, proc: WorkProcessor,
                        pcb: ProcessControlBlock, action: Any) -> None:
        kernel = self.kernel
        cls = action.__class__

        if cls is Exit:
            kernel.exit_process(pcb, action.code)
            self._release(proc, pcb)
            return

        # Everything else pays syscall entry/exit.
        overhead = self._syscall_overhead
        self._busy_acc[(proc.resource_name, "syscall")] += overhead
        pcb.note_exec(overhead)

        entry_kind = _ENTRY_KIND.get(cls)
        if entry_kind is not None:
            # The result is defined at syscall *entry* (read_clock records
            # a nondeterministic-event value that must not shift by the
            # overhead delay), so set rv now and schedule a bare continue
            # — _continue re-checks liveness itself.
            if entry_kind == 0:  # GetPid
                pcb.regs["rv"] = pcb.pid
            elif entry_kind == 1:  # ReadClock
                pcb.regs["rv"] = kernel.read_clock(pcb)
            else:  # Poll
                pcb.regs["rv"] = kernel.poll_read(pcb, action.fd)
            self._post(overhead, self._continue_cb, (proc, pcb))
            return

        if cls in _DEFERRED_SET:
            # The liveness checks and the action-type dispatch both run
            # after the overhead delay, inside _finish_syscall.
            self._post(overhead, self._finish_syscall, (proc, pcb, action))
            return

        handler = kernel.action_handlers.get(cls)
        if handler is None:
            raise SchedulerError(
                f"pid {pcb.pid}: unknown action {action!r}")
        try:
            cost, rv = handler(kernel, pcb, action)
        except DiskError as error:
            # Unrecoverable peripheral hardware (e.g. both mirrored
            # drives dead).  Surface it as a clean whole-cluster crash
            # through the detector path — never as an exception escaping
            # the event loop.
            kernel.fatal_hardware(str(error))
            return
        pcb.regs["rv"] = rv
        if cost:
            self._charge(proc, pcb, cost, "privileged")
        self._post(overhead + cost, self._continue_cb, (proc, pcb))

    def _finish_syscall(self, proc: WorkProcessor,
                        pcb: ProcessControlBlock, action: Any) -> None:
        """The post-overhead half of a blocking/IO syscall."""
        kernel = self.kernel
        if not kernel.alive:
            return
        if kernel.pcbs.get(pcb.pid) is not pcb \
                or pcb.state is ProcState.EXITED:
            self._release(proc, pcb)
            return
        self._finishers[action.__class__](proc, pcb, action)

    def _do_read(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                 action: Read) -> None:
        self._begin_block(proc, pcb, "read", (action.fd,))

    def _do_read_any(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                     action: ReadAny) -> None:
        self._begin_block(proc, pcb, "read_any", tuple(action.fds))

    def _do_yield(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                  action: Yield) -> None:
        pcb.regs["rv"] = True
        self._requeue(proc, pcb)

    def _begin_block(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                     kind: str, fds: tuple) -> None:
        pcb.block = BlockInfo(kind=kind, fds=fds,
                              since=self.kernel.sim.now)
        if self._resolve_block(proc, pcb):
            self._continue(proc, pcb)

    def _do_write(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                  action: Write) -> None:
        kernel = self.kernel
        chan = pcb.channel_for_fd(action.fd)
        if chan is None:
            raise SchedulerError(f"pid {pcb.pid}: write on bad fd "
                                 f"{action.fd}")
        entry = kernel.routing.require(chan, pcb.pid)
        kernel.send_user_message(pcb, entry, action.payload,
                                 size=action.size_bytes)
        if action.await_reply:
            self._begin_block(proc, pcb, "reply", (action.fd,))
        else:
            pcb.regs["rv"] = True
            self._continue(proc, pcb)

    def _do_open(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                 action: Open) -> None:
        from ..messages.payloads import OpenRequest
        from ..backup.modes import BackupMode

        kernel = self.kernel
        fs_fd = pcb.fs_channel_fd
        chan = pcb.channel_for_fd(fs_fd)
        entry = kernel.routing.require(chan, pcb.pid)
        opener_seq = pcb.regs.get("_open_seq", 0) + 1
        pcb.regs["_open_seq"] = opener_seq
        request = OpenRequest(
            name=action.name, opener_pid=pcb.pid,
            opener_cluster=kernel.cluster_id,
            opener_backup_cluster=pcb.backup_cluster,
            reply_channel=chan,
            opener_fullback=(pcb.backup_mode is BackupMode.FULLBACK),
            opener_seq=opener_seq)
        kernel.send_user_message(pcb, entry, request, size=64)
        self._begin_block(proc, pcb, "open", (fs_fd,))

    def _do_close(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                  action: Close) -> None:
        kernel = self.kernel
        chan = pcb.channel_for_fd(action.fd)
        if chan is None:
            raise SchedulerError(f"pid {pcb.pid}: close on bad fd "
                                 f"{action.fd}")
        entry = kernel.routing.require(chan, pcb.pid)
        if entry.peer_kind is PeerKind.USER and entry.peer_pid is not None \
                and entry.status is EntryStatus.OPEN:
            kernel.send_user_message(pcb, entry, EOFMarker(pcb.pid),
                                     size=16)
        entry.status = EntryStatus.CLOSED
        pcb.closed_since_sync.append(chan)
        del pcb.fds[action.fd]
        pcb.regs["rv"] = True
        self._continue(proc, pcb)

    def _do_fork(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                 action: Fork) -> None:
        child_pid = self.kernel.fork_child(pcb, action.child_program)
        pcb.regs["rv"] = child_pid
        self._continue(proc, pcb)

    def _do_gettime(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                    action: GetTime = None) -> None:
        kernel = self.kernel
        chan = pcb.channel_for_fd(pcb.ps_channel_fd)
        entry = kernel.routing.require(chan, pcb.pid)
        kernel.send_user_message(pcb, entry, ("time",), size=16)
        self._begin_block(proc, pcb, "reply", (pcb.ps_channel_fd,))

    def _do_alarm(self, proc: WorkProcessor, pcb: ProcessControlBlock,
                  action: Alarm) -> None:
        seq = pcb.regs.get("_alarm_seq", 0) + 1
        pcb.regs["_alarm_seq"] = seq
        self.kernel.schedule_alarm(pcb, seq, action.delay)
        pcb.regs["rv"] = True
        self._continue(proc, pcb)

    # -- continuation / quantum -------------------------------------------

    def _continue(self, proc: WorkProcessor,
                  pcb: ProcessControlBlock) -> None:
        kernel = self.kernel
        if not kernel.alive:
            return
        # _gone() inlined (alive just checked), plus the RUNNING check.
        if kernel.pcbs.get(pcb.pid) is not pcb \
                or pcb.state is not ProcState.RUNNING:
            self._release(proc, pcb)
            return
        if kernel.crash_handling:
            self._requeue(proc, pcb)
            return
        if pcb.quantum_used >= self._quantum and self.has_ready():
            self._requeue(proc, pcb)
            return
        # Straight into the body: every check _step makes was made above.
        self._run_step(proc, pcb)

    def _requeue(self, proc: WorkProcessor,
                 pcb: ProcessControlBlock) -> None:
        pcb.state = ProcState.READY
        queue = self._ready_high if pcb.is_server else self._ready_normal
        queue.append(pcb.pid)
        self._release(proc, pcb)
