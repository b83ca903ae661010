"""A processing unit: the Auragen *cluster*.

A cluster (section 7.1) bundles shared memory, two work processors, one
executive processor and an attachment to the intercluster bus.  The kernel
object (one independent copy per cluster, section 7.2) is attached after
construction; hardware forwards message arrivals to it via the executive
processor.

Crash semantics (section 7.10, initial implementation: whole-cluster
failure): on :meth:`crash` the cluster stops cold — queued outgoing
messages that never left are lost, executive work is dropped, processes
stop running.  Everything the rest of the machine knows about the cluster
afterwards arrives through the failure detector.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..config import WORK_PROCESSORS_PER_CLUSTER, MachineConfig
from ..messages.message import Delivery, DeliveryRole, Message, MessageKind
from ..metrics import MetricSet
from ..sim import Simulator, TraceLog
from ..types import ClusterId
from .processor import ExecutiveProcessor, WorkProcessor

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .bus import InterclusterBus
    from ..kernel.kernel import ClusterKernel

#: ``DeliveryRole.KERNEL`` as a module constant: ``receive`` tests every
#: leg against it, and on CPython 3.11 a member load on an Enum class goes
#: through ``EnumType``'s ``__getattr__`` slot hook, an order of magnitude
#: slower than a global.
_KERNEL = DeliveryRole.KERNEL

#: Executive-activity labels per delivery role and per message kind.
_DELIVER_LABELS = {role: f"deliver_{role.value}" for role in DeliveryRole}
_APPLY_LABELS = {kind: f"apply_{kind.value}" for kind in MessageKind}


def group_legs(kind: MessageKind, deliveries: Tuple[Delivery, ...]
               ) -> Tuple[Tuple[ClusterId, Tuple[Tuple[Delivery, str],
                                                 ...]], ...]:
    """``deliveries`` grouped per addressed cluster, in first-appearance
    order (the order of :meth:`Message.target_clusters`), each leg paired
    with the executive activity label it is charged under.

    The kernel compiles this once per channel route and carries it on
    every message of the channel (``Message.leg_groups``), so the bus and
    :meth:`Cluster.receive` neither regroup legs per transmission nor
    hash a :class:`DeliveryRole` per leg; the bus calls it for the other
    messages.
    """
    groups: Dict[ClusterId, List[Tuple[Delivery, str]]] = {}
    for delivery in deliveries:
        role = delivery.role
        label = (_APPLY_LABELS[kind] if role is _KERNEL
                 else _DELIVER_LABELS[role])
        groups.setdefault(delivery.cluster_id, []).append((delivery, label))
    return tuple((cluster_id, tuple(legs))
                 for cluster_id, legs in groups.items())


class Cluster:
    """One processing unit on the bus."""

    def __init__(self, cluster_id: ClusterId, config: MachineConfig,
                 sim: Simulator, bus: "InterclusterBus", metrics: MetricSet,
                 trace: TraceLog) -> None:
        self.cluster_id = cluster_id
        self.config = config
        self.sim = sim
        self.bus = bus
        self.metrics = metrics
        self.trace = trace
        self.alive = True
        #: Cleared during crash handling (7.10.1 step zero: "the
        #: transmission of outgoing messages is disabled").
        self.outgoing_enabled = True
        self.executive = ExecutiveProcessor(cluster_id, sim, metrics)
        self.work_processors: List[WorkProcessor] = [
            WorkProcessor(cluster_id=cluster_id, index=i)
            for i in range(WORK_PROCESSORS_PER_CLUSTER)
        ]
        self.kernel: Optional["ClusterKernel"] = None
        self._outgoing: Deque[Message] = deque()
        self._arrival_seqno = 0
        #: The dispatch work item submitted per outgoing message, built
        #: once: ``bus.request(cluster_id)`` as callable plus args.
        self._bus_request = bus.request
        self._bus_request_args = (cluster_id,)
        self._dispatch_cost = config.costs.exec_dispatch
        #: Per-leg delivery costs, hoisted: ``receive`` runs for every
        #: delivery leg of every transmission on the machine.
        self._cost_sync_apply = config.costs.exec_sync_apply
        self._cost_delivery = config.costs.exec_delivery
        bus.attach(self)

    # -- outgoing path ------------------------------------------------------

    def send(self, message: Message) -> None:
        """Place a message on the outgoing queue (FIFO) and nudge the bus.

        Everything — including messages whose only destinations are local —
        goes through the bus transmission path, preserving a single total
        order of departures per cluster; section 7.8 leans on that order
        (a message enqueued after a sync cannot arrive anywhere before the
        sync does).
        """
        if not self.alive:
            return
        self._outgoing.append(message)
        if self.outgoing_enabled:
            self.executive.submit(self._dispatch_cost, self._bus_request,
                                  "dispatch", self._bus_request_args)

    def pop_outgoing(self) -> Optional[Message]:
        """Called by the bus when granting this cluster a transmission."""
        if not self._outgoing:
            return None
        return self._outgoing.popleft()

    def has_outgoing(self) -> bool:
        return bool(self._outgoing)

    def outgoing_snapshot(self) -> List[Message]:
        """Read-only view of queued outgoing messages (crash handling
        examines the queue for destinations in the crashed cluster)."""
        return list(self._outgoing)

    def disable_outgoing(self) -> None:
        self.outgoing_enabled = False

    def enable_outgoing(self) -> None:
        """Re-enable transmissions after crash handling and re-arm the bus."""
        self.outgoing_enabled = True
        if self._outgoing:
            self.executive.submit(self._dispatch_cost, self._bus_request,
                                  "dispatch", self._bus_request_args)

    def replace_outgoing(self, messages: List[Message]) -> None:
        """Swap the outgoing queue contents (crash handling rewrites
        destinations, 7.10.1 step 4)."""
        self._outgoing = deque(messages)

    # -- incoming path ------------------------------------------------------

    def next_arrival_seqno(self) -> int:
        """Allocate an arrival sequence number outside the bus path (used
        when installing transferred queue snapshots in arrival order)."""
        self._arrival_seqno += 1
        return self._arrival_seqno

    def ensure_seqno_at_least(self, floor: int) -> None:
        """Advance the arrival counter so future arrivals order after
        transferred messages stamped with seqnos from another cluster."""
        if self._arrival_seqno < floor:
            self._arrival_seqno = floor

    def receive(self, message: Message,
                legs: Optional[Tuple[Tuple[Delivery, str], ...]] = None
                ) -> None:
        """Bus delivery: stamp the cluster-local arrival sequence number and
        queue executive work for each delivery leg addressed here.

        ``legs`` is this cluster's group of :func:`group_legs`, which the
        bus hands over; callers outside the bus path may omit it."""
        if not self.alive or self.kernel is None:
            return
        if legs is None:
            legs = ()
            for cluster_id, group in group_legs(message.kind,
                                                message.deliveries):
                if cluster_id == self.cluster_id:
                    legs = group
                    break
        self._arrival_seqno += 1
        seqno = self._arrival_seqno
        handle_delivery = self.kernel.handle_delivery
        submit = self.executive.submit
        for delivery, label in legs:
            # Sync application and backup maintenance are heavier
            # executive work than a plain queue insert (8.2, 8.3).
            submit(self._cost_sync_apply if delivery.role is _KERNEL
                   else self._cost_delivery,
                   handle_delivery, label, (message, delivery, seqno))

    # -- disposal -----------------------------------------------------------

    def close(self) -> None:
        """Detach from the kernel and release the executive (part of
        :meth:`repro.core.machine.Machine.close`)."""
        self.executive.close()
        self.kernel = None

    # -- failure ------------------------------------------------------------

    def revive(self) -> None:
        """Return a crashed cluster to service with blank hardware state.
        A fresh kernel must be attached by the caller."""
        if self.alive:
            return
        self.alive = True
        self.outgoing_enabled = True
        self._outgoing.clear()
        # The crashed incarnation's executive holds itself through its
        # completion alias: release it, or only the cyclic collector
        # ever frees it.
        self.executive.close()
        self.executive = ExecutiveProcessor(self.cluster_id, self.sim,
                                            self.metrics)
        for proc in self.work_processors:
            proc.current_pid = None
        self.kernel = None
        self.metrics.incr("cluster.restores")
        self.trace.emit(self.sim.now, "cluster.revive",
                        cluster=self.cluster_id)

    def crash(self) -> None:
        """Hard-stop the cluster (single-point hardware failure)."""
        if not self.alive:
            return
        self.alive = False
        lost = len(self._outgoing)
        self._outgoing.clear()
        self.executive.halt()
        self.bus.sender_crashed(self.cluster_id)
        if self.kernel is not None:
            self.kernel.halt()
        self.metrics.incr("cluster.crashes")
        self.metrics.incr("cluster.lost_outgoing", lost)
        self.trace.emit(self.sim.now, "cluster.crash",
                        cluster=self.cluster_id, lost_outgoing=lost)
