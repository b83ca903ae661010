"""The deterministic program model.

Section 4 states the requirement our whole reproduction hangs on: "If two
processes start out in the identical state, and receive identical input,
they will perform identically and thus produce identical output."

A :class:`Program` is the *behaviour* of a process, written as a state
machine.  It must keep **all** of its state in two places:

* the paged address space (declared via :meth:`declare`, accessed through
  the step's :class:`~repro.paging.MemoryTxn`), and
* the small register file (``ctx.regs``), carried in sync messages.

The Program object itself must stay immutable after construction — the
kernel enforces nothing, but a program that caches state on ``self``
breaks rollforward in ways the equivalence tests (E8) will catch.

Each :meth:`step` returns one :class:`~repro.programs.actions.Action`.  The
kernel commits the step's memory/register writes only when the action can
proceed; a :class:`~repro.paging.PageFault` aborts the attempt side-effect
free and the step re-runs once the page is resident.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..paging import AddressSpace, MemoryTxn
from ..types import Pid
from .actions import Action, Compute, Exit


class ProgramError(Exception):
    """Raised when a program violates the model (bad state name, etc.)."""


class StepContext:
    """What a program sees during one step.

    ``regs`` is a scratch copy of the register file: mutations commit with
    the step.  ``rv`` (property) is the result of the previous action.
    Deliberately absent: wall-clock time, cluster id, scheduling facts —
    everything section 7.5 calls "environmental" and hides from processes.

    A plain ``__slots__`` class: one is allocated for every program step
    the machine executes.
    """

    __slots__ = ("pid", "mem", "regs")

    def __init__(self, pid: Pid, mem: MemoryTxn,
                 regs: Dict[str, Any]) -> None:
        self.pid = pid
        self.mem = mem
        self.regs = regs

    @property
    def rv(self) -> Any:
        """Result of the previous action (None on the first step)."""
        return self.regs.get("rv")

    def goto(self, state: str) -> None:
        """Set the control state dispatched by :class:`StateProgram`."""
        self.regs["pc"] = state


class Program:
    """Behaviour of a process.  Subclass and implement :meth:`step`.

    ``name`` labels traces and metrics.  Override :meth:`declare` to lay
    out the address space and :meth:`init` to write initial values (runs
    once at original process creation; a re-forked child during recovery
    runs it again, which is correct because it is the *initial* state).
    """

    name = "program"

    def declare(self, space: AddressSpace) -> None:
        """Declare named memory regions.  Must be deterministic: it runs
        again on the backup cluster to rebuild the identical layout."""

    def init(self, mem: MemoryTxn, regs: Dict[str, Any]) -> None:
        """Write initial memory/register values (step-0 transaction)."""

    def step(self, ctx: StepContext) -> Action:
        """Perform one deterministic step; return the next action."""
        raise NotImplementedError

    def on_signal(self, ctx: StepContext, signal: Any) -> None:
        """Handle an asynchronous signal (section 7.5.2).  The kernel
        forces a sync before invoking this, so a post-crash backup handles
        the signal at exactly the same point.  Default: ignore (the
        delivery still counts as a read-since-sync)."""


class StateProgram(Program):
    """A Program whose steps dispatch on a named control state.

    Subclasses set ``start_state`` and define ``state_<name>(self, ctx)``
    methods; each returns an Action and typically calls ``ctx.goto`` to
    select the next state.  The control state lives in the ``pc`` register,
    so it is synced and restored like any other process state.

    Example::

        class Ping(StateProgram):
            name = "ping"
            start_state = "send"

            def state_send(self, ctx):
                ctx.goto("recv")
                return Write(ctx.regs["peer_fd"], "ping")

            def state_recv(self, ctx):
                ctx.goto("send")
                return Read(ctx.regs["peer_fd"])
    """

    start_state = "start"

    def init(self, mem: MemoryTxn, regs: Dict[str, Any]) -> None:
        regs["pc"] = self.start_state

    def step(self, ctx: StepContext) -> Action:
        # Handler lookup is per step on the hottest path in the
        # simulator, so handlers are memoized per state name (the set of
        # states is small and fixed per program class) — as the class's
        # plain functions, not bound methods, which would make every
        # program hold itself in a reference cycle.
        state = ctx.regs.get("pc", self.start_state)
        try:
            handler = self._handlers[state]
        except (AttributeError, KeyError):
            handler = getattr(type(self), f"state_{state}", None)
            if handler is None:
                raise ProgramError(
                    f"{self.name}: no handler for state "
                    f"{state!r}") from None
            if not hasattr(self, "_handlers"):
                self._handlers: Dict[str, Callable[..., Action]] = {}
            self._handlers[state] = handler
        return handler(self, ctx)


class IdleProgram(Program):
    """A program that exits immediately (useful in tests)."""

    name = "idle"

    def step(self, ctx: StepContext) -> Action:
        return Exit(0)


class BusyProgram(Program):
    """Compute for a fixed number of steps, then exit.

    State: the remaining-step counter, kept in a register.
    """

    name = "busy"

    def __init__(self, steps: int = 10, cost_per_step: int = 1000) -> None:
        self._steps = steps
        self._cost = cost_per_step

    def init(self, mem: MemoryTxn, regs: Dict[str, Any]) -> None:
        regs["remaining"] = self._steps

    def step(self, ctx: StepContext) -> Action:
        remaining = ctx.regs.get("remaining", 0)
        if remaining <= 0:
            return Exit(0)
        ctx.regs["remaining"] = remaining - 1
        return Compute(self._cost)
