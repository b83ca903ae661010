"""Conservative intra-run parallel dispatch: :class:`ParallelMachineLoop`.

The campaign engine (PR 6) parallelizes *across* runs — independent
machines on worker processes.  This module is the other axis: worker
threads *inside one run*, partitioned by cluster affinity, with the
classic conservative-DES safety argument (Chandy/Misra): two clusters
can only influence each other through the intercluster bus, and a bus
transfer costs at least ``CostModel.bus_latency`` ticks, so events less
than one bus latency apart on *different* clusters cannot have a
causal path between them.  The loop therefore advances time in
*lookahead windows* of that width, hands each cluster's events to a
sticky per-cluster worker inside the window, and barriers at every
window edge.

What the conservative argument does **not** license here is reordering:
the repository's determinism contract is *byte-identical traces*, which
pins the total ``(time, priority, seq)`` order — including insertion-seq
tie-breaking, which any cross-partition overlap would scramble the
moment two actions push events that tie on ``(time, priority)``.  The
loop therefore uses an **ordered handoff**: within a window, event
groups flow to partition workers in exact global key order, and each
handoff completes before the next begins.  That preserves serial
semantics bit for bit (the byte-identity gate in CI holds by
construction, healthy and fault paths alike) at the price of restricting
the attainable overlap to dispatch bookkeeping — and on CPython the GIL
serializes even that.

This makes honest measurement load-bearing rather than optional:
``repro bench --run-jobs N`` times the parallel loop against the serial
loop on the same workload and records the ratio.  When the ratio falls
below :data:`RATIO_FLOOR` (0.95 — the acceptance floor: parallel mode
must never cost more than 5% over serial), the loop **degrades**: it
routes subsequent runs through the serial fast path, reusing the same
requested-vs-effective jobs accounting the campaign pool introduced
(``jobs_requested`` / ``jobs_effective``), so asking for intra-run
parallelism can never make a run slower than not asking.  A one-core
box degrades at construction, before any thread is spawned.

The machinery is exercised for real in non-degraded mode — thread
workers, sticky cluster affinity, window barriers, dirty-flag fallback —
so a runtime without a GIL (or a future machine model with provably
bus-isolated kernels) inherits a working engine and simply starts
winning the measured-ratio gate instead of losing it.
"""

from __future__ import annotations

import threading
from queue import SimpleQueue
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from .events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.machine import Machine

#: Minimum acceptable parallel/serial events-per-second ratio.  Below
#: this the loop auto-degrades to the serial fast path.
RATIO_FLOOR = 0.95

#: Affinity value for events that may touch machine-global state (bus,
#: failure detector, fault injection).  Globals execute on the
#: coordinating thread.
GLOBAL = -1


def _affinity(action: Any) -> int:
    """Map an event's callable to its cluster partition, or :data:`GLOBAL`.

    A bound method of an object that names its cluster (``cluster_id`` on
    the per-cluster :class:`~repro.kernel.scheduler.Scheduler`,
    :class:`~repro.hardware.processor.ExecutiveProcessor` and kernel)
    belongs to that cluster.  Anything else — the bus, the detector,
    fault injection, plain functions and closures — is conservatively
    global: misclassification can cost overlap, never correctness,
    because ordered handoff preserves the total order regardless of
    which worker runs a group.
    """
    cluster = getattr(getattr(action, "__self__", None), "cluster_id", None)
    return cluster if isinstance(cluster, int) else GLOBAL


class _Worker(threading.Thread):
    """One partition worker: executes handed-off event groups in order.

    The coordinator blocks on each group's completion before releasing
    the next (ordered handoff), so at most one action runs at a time
    machine-wide and the queue put/get pairs give the necessary
    happens-before edges for every shared structure the actions touch.
    """

    def __init__(self, index: int) -> None:
        super().__init__(name=f"sim-partition-{index}", daemon=True)
        self.inbox: SimpleQueue = SimpleQueue()
        self.start()

    def run(self) -> None:
        while True:
            item = self.inbox.get()
            if item is None:
                return
            group, watch_heap, reply = item
            executed = 0
            tail: Optional[List[Event]] = None
            error: Optional[BaseException] = None
            try:
                for position, event in enumerate(group):
                    if event.cancelled:
                        continue
                    executed += 1
                    event.action(*event.args)
                    if watch_heap.same_time_dirty:
                        tail = group[position + 1:]
                        break
            except BaseException as exc:  # re-raised by the coordinator
                error = exc
            reply.put((executed, tail, error))

    def stop(self) -> None:
        self.inbox.put(None)


class ParallelMachineLoop:
    """Windowed, partition-affine event dispatch for one machine run.

    Construct over a built machine, then call :meth:`run` /
    :meth:`run_until_idle` instead of the simulator's.  ``jobs``
    follows the campaign pool's convention: ``0`` means one worker per
    CPU, explicit requests are clamped to the CPU count, and the
    effective count is further capped at the cluster count (workers map
    to clusters).  An effective count below two degrades to the plain
    serial loop at construction; a recorded measured ratio below
    :data:`RATIO_FLOOR` degrades later runs (see module docstring).
    """

    def __init__(self, machine: "Machine", jobs: int = 0,
                 lookahead: Optional[int] = None,
                 measured_ratio: Optional[float] = None,
                 force: bool = False) -> None:
        from ..exec.pool import resolve_jobs

        self.machine = machine
        self.jobs_requested = jobs
        if force and jobs >= 2:
            # The byte-identity gate runs the parallel machinery even on
            # boxes the CPU clamp would degrade (identity must hold
            # everywhere CI lands, including one-core runners).
            resolved = min(jobs, machine.config.n_clusters)
        else:
            resolved = min(resolve_jobs(jobs), machine.config.n_clusters)
        self.jobs_effective = resolved
        #: The safe-window width: the minimum time for one cluster's
        #: actions to become visible to another (one bus latency).
        self.lookahead = (lookahead if lookahead is not None
                          else machine.config.costs.bus_latency)
        if self.lookahead < 1:
            raise SimulationError(
                f"lookahead must be >= 1 tick, got {self.lookahead}")
        self.measured_ratio = measured_ratio
        self.degraded = False
        self.degrade_reason: Optional[str] = None
        self.windows = 0
        self.parallel_windows = 0
        self.handoffs = 0
        self._workers: List[_Worker] = []
        if resolved < 2:
            self._degrade("fewer than two workers after the CPU/cluster "
                          "clamp")
        if measured_ratio is not None and measured_ratio < RATIO_FLOOR:
            self._degrade(f"measured ratio {measured_ratio:.3f} below "
                          f"the {RATIO_FLOOR} floor")

    # -- degrade accounting -------------------------------------------------

    def _degrade(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.degrade_reason = reason
            self.jobs_effective = 1
        self.close()

    def record_measured_ratio(self, ratio: float) -> bool:
        """Feed back a parallel/serial throughput measurement (the bench
        harness computes it).  Returns True when the loop degraded."""
        self.measured_ratio = ratio
        if ratio < RATIO_FLOOR:
            self._degrade(f"measured ratio {ratio:.3f} below the "
                          f"{RATIO_FLOOR} floor")
        return self.degraded

    def close(self) -> None:
        """Stop worker threads (idempotent; safe on a degraded loop)."""
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    def stats(self) -> Dict[str, Any]:
        """Run accounting for reports: window and handoff counts, the
        jobs clamp, and the degrade state."""
        return {
            "jobs_requested": self.jobs_requested,
            "jobs_effective": self.jobs_effective,
            "lookahead": self.lookahead,
            "windows": self.windows,
            "parallel_windows": self.parallel_windows,
            "handoffs": self.handoffs,
            "degraded": self.degraded,
            "degrade_reason": self.degrade_reason,
            "measured_ratio": self.measured_ratio,
        }

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Mirror of :meth:`~repro.sim.loop.Simulator.run` (same bound
        semantics, same return value, same event accounting)."""
        sim = self.machine.sim
        if self.degraded:
            return sim.run(until=until, max_events=max_events)
        if sim._running:
            raise SimulationError("simulator is not reentrant")
        if not self._workers:
            self._workers = [_Worker(index)
                             for index in range(self.jobs_effective)]
        sim._running = True
        heap = sim._heap
        executed = 0
        try:
            executed = self._run_windows(sim, heap, until, max_events)
            if until is not None and sim.now < until:
                sim.now = until
            return sim.now
        finally:
            heap.same_time_watch = -1
            sim._event_count += executed
            sim._running = False

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        self.run(max_events=max_events)
        if self.machine.sim.pending():
            raise SimulationError(
                f"simulation did not go idle within {max_events} events "
                f"({self.machine.sim.pending()} still pending)")
        return self.machine.sim.now

    def _run_windows(self, sim, heap, until: Optional[int],
                     max_events: Optional[int]) -> int:
        """The windowed dispatch loop.

        Batches (same-timestamp runs, via the backend-neutral
        ``pop_batch`` protocol) are grouped into lookahead windows;
        inside a window, each batch splits into affinity groups that go
        to sticky partition workers in key order.  The same-tick
        dirty-flag fallback is the serial loop's, applied per event by
        whichever thread executes it.
        """
        executed = 0
        pop_batch = heap.pop_batch
        reinsert = heap.reinsert
        buffer: List[Event] = []
        window_end: Optional[int] = None       # exclusive
        window_affinities: set = set()
        while True:
            if max_events is not None:
                remaining = max_events - executed
                if remaining <= 0:
                    break
                batch = pop_batch(until, remaining, buffer)
            else:
                batch = pop_batch(until, None, buffer)
            if not batch:
                break
            now = batch[0].time
            if window_end is None or now >= window_end:
                # Window barrier: all handoffs in the previous window
                # have completed (handoffs are synchronous), so crossing
                # the edge needs no further synchronization.
                window_end = now + self.lookahead
                if len(window_affinities) > 1:
                    self.parallel_windows += 1
                window_affinities = set()
                self.windows += 1
            sim.now = now
            heap.same_time_watch = now
            heap.same_time_dirty = False
            groups = _split_groups(batch)
            for index, (group, affinity) in enumerate(groups):
                window_affinities.add(affinity)
                count, tail, error = self._dispatch(group, affinity, heap)
                executed += count
                if error is not None:
                    raise error
                if tail is not None:
                    # A same-tick push landed mid-group: reinsert the
                    # unexecuted remainder and every undispatched group
                    # (original keys preserved) and re-pop, so late
                    # arrivals order in exactly as the serial loop
                    # would.
                    for event in tail:
                        if not event.cancelled:
                            reinsert(event)
                    for later_group, _ in groups[index + 1:]:
                        for event in later_group:
                            if not event.cancelled:
                                reinsert(event)
                    break
        return executed

    def _dispatch(self, group: List[Event], affinity: int,
                  heap) -> Tuple[int, Optional[List[Event]],
                                 Optional[BaseException]]:
        """Run one affinity group: global groups inline on the
        coordinator, cluster groups on their sticky worker (ordered
        handoff — this call returns only when the group is done)."""
        if affinity == GLOBAL or not self._workers:
            executed = 0
            for position, event in enumerate(group):
                if event.cancelled:
                    continue
                executed += 1
                event.action(*event.args)
                if heap.same_time_dirty:
                    return executed, group[position + 1:], None
            return executed, None, None
        worker = self._workers[affinity % len(self._workers)]
        reply: SimpleQueue = SimpleQueue()
        worker.inbox.put((group, heap, reply))
        self.handoffs += 1
        return reply.get()


def _split_groups(batch: List[Event]) -> List[Tuple[List[Event], int]]:
    """Split a same-timestamp batch into runs of consecutive events
    sharing an affinity, preserving order.  Consecutive-only grouping
    keeps the key order intact — a worker never sees an event that an
    earlier-keyed event of another partition should precede."""
    groups: List[Tuple[List[Event], int]] = []
    current: List[Event] = []
    current_affinity: Optional[int] = None
    for event in batch:
        affinity = _affinity(event.action)
        if current_affinity is None or affinity == current_affinity:
            current.append(event)
            current_affinity = affinity
        else:
            groups.append((current, current_affinity))
            current = [event]
            current_affinity = affinity
    if current:
        groups.append((current, current_affinity
                       if current_affinity is not None else GLOBAL))
    return groups
