"""Dead-letter queue for shed inbox arrivals (the `dlq` service).

An arrival the bounded server inbox dropped under the ``"shed"`` policy
is captured here and *redelivered*: after ``dlq_retry_after`` ticks the
record re-enters the ordinary primary-delivery path at the destination's
**current** location (the owning process may have been promoted
elsewhere since), turning the lossy shed knob into bounded
backpressure.  A record re-shed ``dlq_max_retries`` times is declared
dead (``resilience.dlq.dead``).

Capacity is ``dlq_limit`` records per capturing cluster; beyond it the
oldest record is evicted permanently (``resilience.dlq.evicted``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..config import ResilienceConfig
from ..messages.message import Delivery, Message
from ..types import ClusterId, Ticks

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.machine import Machine
    from ..kernel.kernel import ClusterKernel


@dataclass
class DeadLetter:
    """One shed arrival plus enough context to retry it."""

    message: Message
    cluster_id: ClusterId          #: cluster that captured it
    delivery: Delivery             #: the refused PRIMARY_DEST leg
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
                           cluster=record.cluster_id, reason="shed",
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
            delivery=delivery))
        if self.max_retries > 0:
            self._schedule_retry(record)

    # -- drain --------------------------------------------------------------

    def _schedule_retry(self, record: DeadLetter) -> None:
        self.machine.sim.post(self.retry_after, self._retry, (record,))

    def _give_up(self, record: DeadLetter) -> None:
        record.dead = True
        self.machine.metrics.incr("resilience.dlq.dead")
        self.machine.trace.emit(self.machine.sim.now,
                                "resilience.dlq.dead",
                                cluster=record.cluster_id, reason="shed",
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
            if head.dead:
                continue
            if not self._redeliver(head):
                break
        if record in self.records.get(record.cluster_id, []) \
                and not record.dead:
            self._retry_later_or_die(record)

    def _locate_pid(self, pid) -> Optional["ClusterKernel"]:
        """The alive kernel currently hosting ``pid`` (primaries and
        promoted backups both; None while it is dead or mid-recovery)."""
        for candidate in self.machine.kernels:
            if candidate.alive and (pid in candidate.pcbs
                                    or pid in candidate.server_registry):
                return candidate
        return None

    def _redeliver(self, record: DeadLetter) -> bool:
        """One redelivery attempt: re-offer a shed arrival to its
        destination's current inbox.  True drops the record from its
        bucket, False leaves it queued (the caller owns rescheduling)."""
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
