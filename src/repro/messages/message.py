"""Message and delivery-role definitions.

Section 5.1 of the paper is the heart of the design: every user message is
sent *once* over the bus but delivered to up to three destinations —

1. the primary destination process (queued for reading),
2. the backup of the destination (queued and saved for rollforward),
3. the backup of the sender (a writes-since-sync count is bumped and the
   message dropped).

We encode that explicitly: a :class:`Message` carries a tuple of
:class:`Delivery` records, one per (cluster, role).  The executive processor
at each receiving cluster walks the deliveries addressed to it and performs
the role-specific action, mirroring section 7.4.2's delivery protocol.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional, Tuple

from ..types import ChannelId, ClusterId, Pid


#: Intern table for :meth:`Message.target_clusters`: one tuple per distinct
#: ordered target set (at most clusters**3 of them), so a retained
#: ``bus.transmit``/``bus.deliver`` trace row points at a shared tuple
#: instead of owning a fresh one.
_TARGET_SETS: Dict[Tuple[ClusterId, ...], Tuple[ClusterId, ...]] = {}


class MessageKind(enum.Enum):
    """Classification of message traffic.

    ``DATA`` covers all on-channel application traffic (including server
    requests and replies).  The remaining kinds are kernel-level messages
    that bypass channels: sync messages (5.2), birth notices (7.7), signal
    deliveries (7.5.2) and crash notices (7.10).
    """

    DATA = "data"
    SIGNAL = "signal"
    SYNC = "sync"
    BIRTH_NOTICE = "birth_notice"
    CRASH_NOTICE = "crash_notice"
    BACKUP_READY = "backup_ready"


class DeliveryRole(enum.Enum):
    """What a receiving cluster should do with a message (section 7.4.2)."""

    #: Queue on the channel's routing entry and wake any waiting reader.
    PRIMARY_DEST = "primary_dest"
    #: Queue and save for the destination's backup; wake nothing.
    DEST_BACKUP = "dest_backup"
    #: Increment the sender's-backup writes-since-sync count and discard.
    SENDER_BACKUP = "sender_backup"
    #: Hand the message to the receiving cluster's kernel (sync messages,
    #: birth notices, crash notices).
    KERNEL = "kernel"


class Delivery:
    """One (cluster, role) leg of a message's multi-way delivery.

    A plain slotted class, not a dataclass: three legs are built per user
    message and the frozen-dataclass ``object.__setattr__`` construction
    cost was measurable on the send path (immutable by convention).
    """

    __slots__ = ("cluster_id", "role", "pid", "channel_id")

    def __init__(self, cluster_id: ClusterId, role: DeliveryRole,
                 pid: Optional[Pid] = None,
                 channel_id: Optional[ChannelId] = None) -> None:
        self.cluster_id = cluster_id
        self.role = role
        self.pid = pid
        self.channel_id = channel_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Delivery(cluster_id={self.cluster_id}, role={self.role}, "
                f"pid={self.pid}, channel_id={self.channel_id})")


class Message:
    """An immutable message as it travels the intercluster bus.

    ``payload`` must be treated as immutable by all parties; the simulator
    never copies it.  ``size_bytes`` drives bus occupancy cost.  ``seqno``
    is *not* part of the message: sequence numbers are assigned on arrival
    at each cluster (section 7.5.1, the ``which`` mechanism), so they live
    in the routing-table queues, not here.

    Slotted with a handwritten ``__init__`` for the same reason as
    :class:`Delivery`; immutability is by convention (nothing in the
    repository mutates a message after construction).
    """

    __slots__ = ("msg_id", "kind", "src_pid", "dst_pid", "channel_id",
                 "payload", "size_bytes", "deliveries", "src_cluster",
                 "src_backup_cluster", "nondet_events")

    def __init__(self, msg_id: int, kind: MessageKind,
                 src_pid: Optional[Pid], dst_pid: Optional[Pid],
                 channel_id: Optional[ChannelId], payload: Any,
                 size_bytes: int, deliveries: Tuple[Delivery, ...],
                 src_cluster: Optional[ClusterId] = None,
                 src_backup_cluster: Optional[ClusterId] = None,
                 nondet_events: Tuple[Any, ...] = ()) -> None:
        self.msg_id = msg_id
        self.kind = kind
        self.src_pid = src_pid
        self.dst_pid = dst_pid
        self.channel_id = channel_id
        self.payload = payload
        self.size_bytes = size_bytes
        self.deliveries = deliveries
        #: Reply routing: where the sender (and its backup) live, so
        #: servers can lazily create routing entries for request channels.
        self.src_cluster = src_cluster
        self.src_backup_cluster = src_backup_cluster
        #: Piggybacked nondeterministic-event results (section 10
        #: extension): the SENDER_BACKUP delivery appends these to the
        #: saved log.
        self.nondet_events = nondet_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message({self.describe()})"

    def target_clusters(self) -> Tuple[ClusterId, ...]:
        """Distinct clusters this message must reach, in delivery order.

        The bus addresses the single transmission to exactly this set —
        the "transmitted just once" property of section 8.1.  Equal
        target sets share one tuple object.
        """
        seen: Dict[ClusterId, None] = {}
        for delivery in self.deliveries:
            seen.setdefault(delivery.cluster_id, None)
        targets = tuple(seen)
        return _TARGET_SETS.setdefault(targets, targets)

    def deliveries_for(self, cluster_id: ClusterId) -> Tuple[Delivery, ...]:
        """The delivery legs addressed to one cluster."""
        return tuple(d for d in self.deliveries if d.cluster_id == cluster_id)

    def describe(self) -> str:
        """Short human-readable summary for traces and errors."""
        return (f"{self.kind.value}#{self.msg_id} "
                f"{self.src_pid}->{self.dst_pid} chan={self.channel_id}")


class QueuedMessage:
    """A message as it sits on a routing-table queue, stamped with the
    arrival sequence number its cluster assigned (section 7.5.1: "messages
    are given sequence numbers on arrival at a cluster so that the behavior
    of ``which`` can be replicated by the backup")."""

    __slots__ = ("message", "arrival_seqno", "arrival_time")

    def __init__(self, message: Message, arrival_seqno: int,
                 arrival_time: int = 0) -> None:
        self.message = message
        self.arrival_seqno = arrival_seqno
        self.arrival_time = arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueuedMessage(seqno={self.arrival_seqno}, "
                f"time={self.arrival_time}, message={self.message!r})")
