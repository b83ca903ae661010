"""Deterministic fault injection against a running :class:`Machine`.

The repo's hand-written tests crash clusters at a handful of fixed
virtual times.  The paper's claim is stronger: recovery must work under
*any* crash timing — squarely inside a sync, mid bus transmission, while
another cluster's recovery is still in progress, or as a second fault on
top of the first.  This module provides the aiming mechanism:

* **schedule-driven points** — crash/restore/process-failure actions at
  absolute virtual times (``crash_at`` and friends);
* **semantic trigger points** — actions armed on the *Nth* occurrence of
  a trace category matching a detail filter (:class:`TracePoint`), via
  the :meth:`~repro.sim.trace.TraceLog.subscribe` hook.  "The 2nd sync of
  pid 7", "the first bus transmission from cluster 1", "the moment any
  cluster begins crash handling" are all one-liner triggers.

Determinism: a trigger never mutates the machine from inside the emit —
it schedules the action through the simulator at ``now`` (a zero-delay
event), so the current event completes untouched and the action lands at
a reproducible position in the event order.  Every injected action also
emits a ``fault.inject`` trace record, making the full fault schedule
part of the run's byte-comparable timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.machine import Machine
from ..sim.trace import TraceRecord
from ..types import ClusterId, Pid, Ticks


@dataclass(frozen=True)
class TracePoint:
    """The ``nth`` trace record of ``category`` whose detail matches every
    ``(key, value)`` pair in ``match``.  An omitted key matches anything.

    ``after`` ignores records earlier than that virtual time.  A freshly
    spawned top-level process whose birth notice has not yet escaped its
    cluster is unrecoverable by design (there is no parent whose replayed
    fork would re-create it, section 7.7), so campaign triggers aim past
    the boot window — the same >= 2ms floor the equivalence property
    tests use.
    """

    category: str
    nth: int = 1
    match: Tuple[Tuple[str, Any], ...] = ()
    after: int = 0

    def matches(self, record: TraceRecord) -> bool:
        if record.category != self.category or record.time < self.after:
            return False
        return all(record.detail.get(key) == value
                   for key, value in self.match)

    def describe(self) -> str:
        filters = " ".join(f"{k}={v}" for k, v in self.match)
        return f"{self.category}#{self.nth}" + (f"[{filters}]" if filters
                                                else "")


#: Convenience constructors for the trigger points the campaign uses.

def nth_sync(nth: int = 1, pid: Optional[Pid] = None,
             cluster: Optional[ClusterId] = None,
             after: int = 0) -> TracePoint:
    """The Nth ``sync.primary`` — optionally of one pid or one cluster."""
    match = []
    if pid is not None:
        match.append(("pid", pid))
    if cluster is not None:
        match.append(("cluster", cluster))
    return TracePoint("sync.primary", nth, tuple(match), after)


def nth_transmission(nth: int = 1, src: Optional[ClusterId] = None,
                     after: int = 0) -> TracePoint:
    """The Nth ``bus.transmit`` — optionally from one source cluster."""
    match = (("src", src),) if src is not None else ()
    return TracePoint("bus.transmit", nth, match, after)


def recovery_begin(nth: int = 1, cluster: Optional[ClusterId] = None,
                   after: int = 0) -> TracePoint:
    """The Nth ``crash.handling_begin`` — a recovery is now in progress."""
    match = (("cluster", cluster),) if cluster is not None else ()
    return TracePoint("crash.handling_begin", nth, match, after)


def nth_promotion(nth: int = 1, after: int = 0) -> TracePoint:
    """The Nth backup promotion (``recovery.promote``)."""
    return TracePoint("recovery.promote", nth, (), after)


@dataclass
class _Armed:
    point: TracePoint
    action: Callable[[TraceRecord], None]
    seen: int = 0
    fired: bool = False


@dataclass
class InjectionRecord:
    """One fault the injector actually delivered."""

    time: Ticks
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)


class FaultInjector:
    """Arms crash/restore/process-failure actions on a machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        machine.injectors.append(self)
        self._armed: List[_Armed] = []
        #: Trace categories we already subscribed for.  The injector
        #: listens per category (the TraceLog's indexed dispatch), so a
        #: trigger armed on ``sync.primary`` pays nothing for the flood
        #: of ``bus.*`` records a run emits.
        self._subscribed: set = set()
        #: Every fault delivered, in delivery order (campaign reports and
        #: the metrics-sanity invariant read this).
        self.injected: List[InjectionRecord] = []

    def detach(self) -> None:
        """Stop listening (armed but unfired triggers never fire).

        Also drops the armed triggers themselves: a detached injector
        that is re-armed later must not have its *old* triggers silently
        counting records again alongside the new ones.
        """
        self.machine.trace.unsubscribe(self._on_record)
        self._subscribed.clear()
        self._armed.clear()

    # ------------------------------------------------------------------
    # schedule-driven points
    # ------------------------------------------------------------------

    def _post_at(self, time: Ticks, fn: Callable[..., None],
                 args: tuple) -> None:
        sim = self.machine.sim
        sim.post(time - sim.now, fn, args)

    def crash_at(self, cluster: ClusterId, time: Ticks) -> None:
        """Hard-crash ``cluster`` at absolute virtual ``time``."""
        self._post_at(time, self._do_crash, (cluster,))

    def restore_at(self, cluster: ClusterId, time: Ticks) -> None:
        """Return ``cluster`` to service at ``time`` (no-op if it is not
        down then — e.g. the planned crash itself never happened)."""
        self._post_at(time, self._do_restore, (cluster,))

    def fail_process_at(self, pid: Pid, time: Ticks) -> None:
        """Fail one process at ``time`` if it is still running somewhere
        (a process that already exited is left alone)."""
        self._post_at(time, self._do_fail_process, (pid,))

    def fail_drive_at(self, disk: str, which: int, time: Ticks) -> None:
        """Fail one drive of a mirrored disk at ``time`` (no-op if that
        drive is already dead)."""
        self._post_at(time, self._do_fail_drive, (disk, which))

    # ------------------------------------------------------------------
    # semantic trigger points
    # ------------------------------------------------------------------

    def on(self, point: TracePoint,
           action: Callable[[TraceRecord], None]) -> None:
        """Arm ``action`` to run (as a zero-delay event) when ``point``
        occurs.  The triggering record is passed to the action."""
        self._armed.append(_Armed(point=point, action=action))
        if point.category not in self._subscribed:
            self._subscribed.add(point.category)
            self.machine.trace.subscribe(self._on_record,
                                         categories=(point.category,))

    def crash_on(self, point: TracePoint,
                 cluster: Optional[ClusterId] = None,
                 from_detail: Optional[str] = None) -> None:
        """Crash a cluster when ``point`` occurs.

        The victim is ``cluster`` if given, else the cluster named by the
        triggering record's ``from_detail`` key (e.g. ``"src"`` on
        ``bus.transmit``, ``"cluster"`` on ``sync.primary``) — "crash the
        cluster that is doing this, while it is doing it".
        """
        key = from_detail if from_detail is not None else "cluster"

        def action(record: TraceRecord) -> None:
            victim = cluster if cluster is not None \
                else record.detail.get(key)
            if victim is not None:
                self._do_crash(victim)

        self.on(point, action)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _on_record(self, record: TraceRecord) -> None:
        for armed in self._armed:
            if armed.fired or not armed.point.matches(record):
                continue
            armed.seen += 1
            if armed.seen < armed.point.nth:
                continue
            armed.fired = True
            # Never act inside the emitting event: a zero-delay event
            # lands deterministically right after it at the same tick.
            self.machine.sim.post(0, armed.action, (record,))

    def _do_crash(self, cluster: ClusterId) -> None:
        if not self.machine.clusters[cluster].alive:
            return
        self._record("crash", cluster=cluster)
        self.machine.crash_cluster(cluster)

    def _do_restore(self, cluster: ClusterId) -> None:
        if self.machine.clusters[cluster].alive:
            return
        self._record("restore", cluster=cluster)
        self.machine.restore_cluster(cluster)

    def _do_fail_drive(self, disk: str, which: int) -> None:
        mirrored = self.machine.disks.get(disk)
        if mirrored is None or mirrored._drives[which].failed:
            return
        self._record("drive_fail", disk=disk, drive=which)
        mirrored.fail_drive(which)

    def _do_fail_process(self, pid: Pid) -> None:
        from ..recovery.procfail import fail_process

        for kernel in self.machine.kernels:
            if kernel.alive and pid in kernel.pcbs:
                self._record("procfail", pid=pid)
                fail_process(kernel, pid)
                return

    def _record(self, kind: str, **detail: Any) -> None:
        now = self.machine.sim.now
        self.injected.append(InjectionRecord(time=now, kind=kind,
                                             detail=detail))
        self.machine.trace.emit(now, "fault.inject", kind=kind, **detail)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def crashes_delivered(self) -> int:
        return sum(1 for rec in self.injected if rec.kind == "crash")

    def describe_injected(self) -> List[str]:
        return [f"t={rec.time} {rec.kind} "
                + " ".join(f"{k}={v}" for k, v in rec.detail.items())
                for rec in self.injected]
