"""Dead-letter queue for shed, garbled and breaker-rejected messages
(the `dlq` service).

Three capture sources:

* **shed** — arrivals the bounded server inbox dropped under the
  ``"shed"`` policy.  These are *redelivered*: after ``dlq_retry_after``
  ticks the record re-enters the ordinary primary-delivery path at the
  destination's **current** location (the owning process may have been
  promoted elsewhere since), turning the lossy shed knob into bounded
  backpressure.  A record re-shed ``dlq_max_retries`` times is declared
  dead (``resilience.dlq.dead``).
* **garbled** — transmissions the receiver's checksum rejected on a
  degraded bus.  Diagnostic only: the bus retry chain delivers the good
  copy, so redelivering the garbled one would double-deliver.
* **breaker** — sends rejected while a circuit breaker was open.  These
  are redelivered by *re-sending*: the delivery legs are rebuilt from
  the sender's current routing entry (exactly as
  ``release_held_messages`` re-addresses held messages), so a message
  rejected during the pre-detection window reaches the promoted
  destination once routes are repaired.

Capacity is ``dlq_limit`` records per capturing cluster; beyond it the
oldest record is evicted permanently (``resilience.dlq.evicted``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..config import ResilienceConfig
from ..messages.message import Delivery, DeliveryRole, Message
from ..types import ClusterId, Ticks

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.machine import Machine
    from ..kernel.kernel import ClusterKernel


@dataclass
class DeadLetter:
    """One captured message plus enough context to retry it."""

    message: Message
    cluster_id: ClusterId          #: cluster that captured it
    reason: str                    #: "shed" | "garbled" | "breaker"
    delivery: Optional[Delivery] = None   #: the refused leg (shed only)
    #: destination cluster at capture time (breaker letters only).
    dst_cluster: Optional[ClusterId] = None
    retries: int = 0
    enqueued_at: Ticks = 0
    dead: bool = False


class DeadLetterLayer:
    """All dead-letter records of one machine, bucketed by cluster."""

    def __init__(self, machine: "Machine",
                 config: ResilienceConfig) -> None:
        self.machine = machine
        self.limit = config.dlq_limit
        self.retry_after = config.dlq_retry_after
        self.max_retries = config.dlq_max_retries
        self.records: Dict[ClusterId, List[DeadLetter]] = {}
        #: Set while a shed record re-enters ``_deliver_primary`` so a
        #: re-shed is recognised as a failed retry, not a new capture.
        self._redelivering: Optional[DeadLetter] = None
        self._redelivery_failed = False

    def depth(self, cluster_id: ClusterId) -> int:
        return len(self.records.get(cluster_id, []))

    # -- capture ------------------------------------------------------------

    def _enqueue(self, record: DeadLetter) -> DeadLetter:
        machine = self.machine
        bucket = self.records.setdefault(record.cluster_id, [])
        record.enqueued_at = machine.sim.now
        bucket.append(record)
        machine.metrics.incr("resilience.dlq.enqueued")
        machine.metrics.record_hist("resilience.dlq.depth", len(bucket))
        machine.trace.emit(machine.sim.now, "resilience.dlq.capture",
                           cluster=record.cluster_id,
                           reason=record.reason,
                           msg=record.message.describe())
        if len(bucket) > self.limit:
            evicted = bucket.pop(0)
            evicted.dead = True
            machine.metrics.incr("resilience.dlq.evicted")
        return record

    def capture_shed(self, kernel: "ClusterKernel", message: Message,
                     delivery: Delivery) -> None:
        """The bounded inbox shed an arrival (policy "shed")."""
        if self._redelivering is not None \
                and self._redelivering.message is message:
            self._redelivery_failed = True
            return
        record = self._enqueue(DeadLetter(
            message=message, cluster_id=kernel.cluster_id,
            reason="shed", delivery=delivery))
        if self.max_retries > 0:
            self._schedule_retry(record)

    def capture_garbled(self, message: Message,
                        src: Optional[ClusterId]) -> None:
        """A receiver checksum rejected this transmission attempt."""
        self.machine.metrics.incr("resilience.dlq.garbled")
        self._enqueue(DeadLetter(
            message=message,
            cluster_id=src if src is not None else 0,
            reason="garbled"))

    def capture_rejected_send(self, kernel: "ClusterKernel",
                              message: Message,
                              dst_cluster: Optional[ClusterId] = None
                              ) -> None:
        """An open circuit breaker rejected this send."""
        record = self._enqueue(DeadLetter(
            message=message, cluster_id=kernel.cluster_id,
            reason="breaker", dst_cluster=dst_cluster))
        if self.max_retries > 0:
            self._schedule_retry(record)

    def has_queued_sends(self, cluster_id: ClusterId,
                         dst_cluster: ClusterId) -> bool:
        """Any live breaker letter captured at ``cluster_id`` still
        awaiting re-send toward ``dst_cluster``?"""
        return any(record.reason == "breaker" and not record.dead
                   and record.dst_cluster == dst_cluster
                   for record in self.records.get(cluster_id, []))

    # -- drain --------------------------------------------------------------

    def _schedule_retry(self, record: DeadLetter) -> None:
        self.machine.sim.post(self.retry_after, self._retry, (record,))

    def _give_up(self, record: DeadLetter) -> None:
        record.dead = True
        self.machine.metrics.incr("resilience.dlq.dead")
        self.machine.trace.emit(self.machine.sim.now,
                                "resilience.dlq.dead",
                                cluster=record.cluster_id,
                                reason=record.reason,
                                msg=record.message.describe())

    def _retry_later_or_die(self, record: DeadLetter) -> None:
        record.retries += 1
        if record.retries >= self.max_retries:
            self._give_up(record)
        else:
            self._schedule_retry(record)

    def _drop(self, record: DeadLetter) -> None:
        bucket = self.records.get(record.cluster_id)
        if bucket is not None and record in bucket:
            bucket.remove(record)

    def _retry(self, record: DeadLetter) -> None:
        """``record``'s retry timer fired: drain its bucket FIFO.

        Redelivery goes *head first*, never record first — a younger
        letter must not overtake an older one just because its timer
        landed at a luckier phase (arrival order is what the receiving
        programs replay).  Every head that redelivers unblocks the
        next; the walk stops at the first failure.  If ``record`` is
        still queued afterwards, that counts as one failed attempt
        against its own retry budget."""
        bucket = self.records.get(record.cluster_id, [])
        if record.dead or record not in bucket:
            return
        for head in list(bucket):
            if head.dead or head.reason == "garbled":
                continue
            if not self._attempt(head):
                break
        if record in self.records.get(record.cluster_id, []) \
                and not record.dead:
            self._retry_later_or_die(record)

    def _attempt(self, record: DeadLetter) -> bool:
        """One redelivery attempt; True drops the record from its
        bucket, False leaves it queued (the caller owns rescheduling)."""
        if record.reason == "shed":
            return self._retry_shed(record)
        if record.reason == "breaker":
            return self._retry_send(record)
        return False

    def _locate_pid(self, pid) -> Optional["ClusterKernel"]:
        """The alive kernel currently hosting ``pid`` (primaries and
        promoted backups both; None while it is dead or mid-recovery)."""
        for candidate in self.machine.kernels:
            if candidate.alive and (pid in candidate.pcbs
                                    or pid in candidate.server_registry):
                return candidate
        return None

    def _retry_shed(self, record: DeadLetter) -> bool:
        """Re-offer a shed arrival to its destination's current inbox."""
        machine = self.machine
        kernel = self._locate_pid(record.delivery.pid)
        if kernel is None:
            return False
        seqno = kernel.cluster.next_arrival_seqno()
        self._redelivering, self._redelivery_failed = record, False
        try:
            kernel.handle_delivery(record.message, record.delivery, seqno)
        finally:
            self._redelivering = None
        if self._redelivery_failed:
            return False
        self._drop(record)
        machine.metrics.incr("resilience.dlq.redelivered")
        machine.trace.emit(machine.sim.now, "resilience.dlq.redeliver",
                           cluster=kernel.cluster_id, reason="shed",
                           msg=record.message.describe())
        return True

    def _retry_send(self, record: DeadLetter) -> bool:
        """Re-send a breaker-rejected message with delivery legs rebuilt
        from the sender's current routing entry — or, once the sender
        has exited and its entry is gone, from the destination pid's
        current location (a sender's exit must not strand its letters)."""
        machine = self.machine
        kernel = machine.kernels[record.cluster_id]
        if not kernel.alive:
            return False
        message = record.message
        entry = None
        if message.channel_id is not None and message.src_pid is not None:
            entry = kernel.routing.get(message.channel_id,
                                       message.src_pid)
        if entry is not None and entry.peer_cluster is not None \
                and machine.clusters[entry.peer_cluster].alive:
            dst_cluster, dst_pid = entry.peer_cluster, entry.peer_pid
            dst_backup = entry.peer_backup_cluster
        else:
            home = self._locate_pid(message.dst_pid)
            if home is None:
                return False
            dst_cluster, dst_pid = home.cluster_id, message.dst_pid
            pcb = home.pcbs.get(dst_pid)
            dst_backup = pcb.backup_cluster if pcb is not None else None
        deliveries = [Delivery(dst_cluster, DeliveryRole.PRIMARY_DEST,
                               dst_pid, message.channel_id)]
        if dst_backup is not None:
            deliveries.append(Delivery(dst_backup,
                                       DeliveryRole.DEST_BACKUP,
                                       dst_pid, message.channel_id))
        for leg in message.deliveries:
            if leg.role is DeliveryRole.SENDER_BACKUP:
                deliveries.append(leg)
        kernel.cluster.send(Message(
            msg_id=message.msg_id, kind=message.kind,
            src_pid=message.src_pid, dst_pid=dst_pid,
            channel_id=message.channel_id, payload=message.payload,
            size_bytes=message.size_bytes, deliveries=tuple(deliveries),
            src_cluster=message.src_cluster,
            src_backup_cluster=message.src_backup_cluster,
            nondet_events=message.nondet_events))
        self._drop(record)
        machine.metrics.incr("resilience.dlq.redelivered")
        machine.trace.emit(machine.sim.now, "resilience.dlq.redeliver",
                           cluster=record.cluster_id, reason="breaker",
                           msg=message.describe())
        return True
