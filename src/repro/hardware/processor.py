"""Processor resources inside a cluster.

Section 7.1: each cluster has two *work processors* running user and server
processes, and one *executive processor* that controls all intercluster
message traffic.  Section 8's efficiency argument rests on this split — all
backup-copy delivery, sync application and backup maintenance runs on the
executive, leaving the work processors free — so both are modelled as real,
serially-occupied resources with per-activity busy accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from ..metrics import MetricSet
from ..sim import Simulator
from ..types import ClusterId, Pid, Ticks


@dataclass
class WorkProcessor:
    """A work processor: occupied by at most one process at a time.

    The scheduler (in :mod:`repro.kernel.scheduler`) owns assignment; this
    class only tracks occupancy and busy-time accounting.
    """

    cluster_id: ClusterId
    index: int
    current_pid: Optional[Pid] = None
    busy_until: Ticks = 0

    def __post_init__(self) -> None:
        # Built once: the scheduler charges busy time against this name on
        # every step, and an f-string per charge shows up in profiles.
        self.resource_name = f"work[c{self.cluster_id}.{self.index}]"

    @property
    def idle(self) -> bool:
        return self.current_pid is None


class ExecutiveProcessor:
    """The per-cluster executive processor as a serial work queue.

    Work items (message dispatch, delivery legs, sync application, backup
    maintenance) are executed strictly FIFO, each occupying the processor
    for its cost.  Busy time is accounted per activity label so experiment
    E2 can show that backup handling never lands on work processors.
    """

    def __init__(self, cluster_id: ClusterId, sim: Simulator,
                 metrics: MetricSet) -> None:
        self.cluster_id = cluster_id
        self.resource_name = f"executive[c{cluster_id}]"
        self._post = sim.post
        self._metrics = metrics
        #: Alias of the metric set's busy store (mutated in place, never
        #: replaced): one charge per executive work item, and the
        #: ``add_busy`` call layer was measurable on the delivery path.
        self._mbusy = metrics._busy
        #: (cost, action, label, args) tuples — the executive processes a
        #: few work items per delivered message, so per-item allocation
        #: cost matters; a tuple beats a dataclass instance here.
        self._queue: Deque[tuple] = deque()
        self._busy = False
        self._halted = False
        self._current: Optional[Callable[..., None]] = None
        self._current_args: tuple = ()
        self._complete_cb = self._on_complete

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, cost: Ticks, action: Callable[..., None],
               label: str, args: tuple = ()) -> None:
        """Queue one unit of executive work.  Silently dropped if the
        cluster has halted (crashed) — hardware does no work when down.

        ``args`` are passed to ``action`` on execution, so callers with
        per-item parameters (e.g. one delivery leg) can submit a shared
        bound method plus an args tuple instead of building a closure per
        item — the closure allocation was measurable on the delivery path.
        """
        if self._halted:
            return
        if self._busy:
            self._queue.append((cost, action, label, args))
            return
        # Idle (so nothing is queued): start the item at once.  The
        # executive is strictly serial, so the in-flight action can live
        # in an attribute and completion can be a bound method — no
        # closure per work item on the hottest hardware path.
        self._busy = True
        self._mbusy[(self.resource_name, label)] += cost
        self._current = action
        self._current_args = args
        self._post(cost, self._complete_cb)

    def halt(self) -> None:
        """Crash: discard all queued work and accept no more."""
        self._halted = True
        self._queue.clear()

    def close(self) -> None:
        """Halt for good and let go of the in-flight work item and the
        bound-method alias through which this object holds itself (a
        completion already on the event heap still arrives, sees the
        halt and returns)."""
        self.halt()
        self._current = None
        self._current_args = ()
        self._complete_cb = None

    def _on_complete(self) -> None:
        # A crash may have landed between scheduling and completion.
        if self._halted:
            return
        self._current(*self._current_args)
        # The action may have crashed this cluster (halt() emptied the
        # queue) or submitted more work (queued behind it: still busy).
        if not self._queue:
            self._busy = False
            self._current = None
            return
        cost, action, label, args = self._queue.popleft()
        self._mbusy[(self.resource_name, label)] += cost
        self._current = action
        self._current_args = args
        self._post(cost, self._complete_cb)
