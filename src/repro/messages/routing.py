"""Routing tables and channel routing entries.

Section 7.4.1: one end of a channel is a *routing table entry* in a
cluster-local table.  An entry holds (1) everything needed to route a
message to the peer's primary and to the backups of both the peer and the
owner, (2) a queue of incoming messages, and (3) status, including how the
endpoints are backed up.

A channel between two backed-up processes therefore consists of **four**
entries: one per primary and one per backup, in up to four clusters.  The
backup-side entries are where the two fault-tolerance counters live:

* the saved message queue (DEST_BACKUP deliveries) replayed on rollforward;
* ``writes_since_sync`` (SENDER_BACKUP deliveries), consulted by a promoted
  backup to suppress re-sending messages the primary already sent (5.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..types import ChannelId, ClusterId, Fd, Pid
from .message import QueuedMessage


class EntryStatus(enum.Enum):
    """Lifecycle of a routing entry."""

    OPEN = "open"
    CLOSED = "closed"
    #: Peer was a fullback whose primary crashed; unusable until the
    #: location of the peer's new backup is known (7.10.1 step 1).
    UNUSABLE = "unusable"


class PeerKind(enum.Enum):
    """What sits at the other end (entries record this, section 7.4.1)."""

    USER = "user"
    SERVER = "server"


class RoutingError(Exception):
    """Raised on routing table misuse (duplicate or missing entries)."""


@dataclass
class RoutingEntry:
    """One end of a channel, in one cluster, for one role (primary/backup).

    ``fd`` may be ``None`` on backup entries created by an open reply or a
    birth notice before the owning process's next sync associates the file
    descriptor (7.8 step 1).
    """

    channel_id: ChannelId
    owner_pid: Pid
    is_backup: bool
    peer_pid: Optional[Pid]
    peer_cluster: Optional[ClusterId]
    peer_backup_cluster: Optional[ClusterId]
    peer_kind: PeerKind = PeerKind.USER
    #: Is the peer a fullback?  Crash repair marks channels to fullbacks
    #: UNUSABLE until the new backup's location is known (7.10.1).
    peer_fullback: bool = False
    fd: Optional[Fd] = None
    status: EntryStatus = EntryStatus.OPEN
    #: Kernel-service channel (page traffic): deliveries skip program
    #: queues and sender-backup counting where noted in the kernel.
    kernel_internal: bool = False
    #: Entry created since last sync (reported as an "opened" delta).
    opened_since_sync: bool = True
    queue: List[QueuedMessage] = field(default_factory=list)
    #: On primary entries: reads performed since last sync (reported in the
    #: sync message so the backup can trim its saved queue).
    reads_since_sync: int = 0
    #: On backup entries: messages the primary sent on this channel since
    #: last sync (incremented by SENDER_BACKUP deliveries); a promoted
    #: backup decrements this instead of re-sending.
    writes_since_sync: int = 0
    #: Set when anything about the channel changed since last sync
    #: (opened / written / read), so sync messages carry only deltas (7.8).
    changed_since_sync: bool = True
    #: The sending kernel's compiled route for this channel, as
    #: ``(routing key, deliveries, per-cluster leg groups)``; rebuilt
    #: whenever the key (peer cluster, peer backup, peer pid, sender's
    #: backup) differs, so crash repair and backup changes need not know
    #: about it.  Kernel-local, never synced.
    route: Optional[Tuple[Any, ...]] = field(default=None, repr=False,
                                             compare=False)

    def key(self) -> Tuple[ChannelId, Pid]:
        return (self.channel_id, self.owner_pid)

    def head_seqno(self) -> Optional[int]:
        """Arrival seqno of the first queued message (for ``which``)."""
        if not self.queue:
            return None
        return self.queue[0].arrival_seqno


class RoutingTable:
    """The cluster-local table of routing entries, keyed by
    ``(channel_id, owner_pid)``.

    A single cluster may hold the primary entry for one endpoint and backup
    entries for others; keys cannot collide because a process's backup is
    never in its own cluster.
    """

    def __init__(self, cluster_id: ClusterId) -> None:
        self.cluster_id = cluster_id
        self._entries: Dict[Tuple[ChannelId, Pid], RoutingEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: RoutingEntry) -> RoutingEntry:
        """Insert a new entry; duplicate keys are a protocol bug."""
        key = entry.key()
        if key in self._entries:
            raise RoutingError(
                f"cluster {self.cluster_id}: duplicate routing entry "
                f"chan={entry.channel_id} pid={entry.owner_pid}")
        self._entries[key] = entry
        return entry

    def ensure(self, entry: RoutingEntry) -> RoutingEntry:
        """Insert unless an entry with the same key exists; return the
        table's entry either way.  Used for idempotent creation paths
        (open replies seen at both a primary and a backup cluster that
        happen to be co-located with the server)."""
        return self._entries.setdefault(entry.key(), entry)

    def get(self, channel_id: ChannelId, owner_pid: Pid) -> Optional[RoutingEntry]:
        return self._entries.get((channel_id, owner_pid))

    def require(self, channel_id: ChannelId, owner_pid: Pid) -> RoutingEntry:
        entry = self.get(channel_id, owner_pid)
        if entry is None:
            raise RoutingError(
                f"cluster {self.cluster_id}: no routing entry "
                f"chan={channel_id} pid={owner_pid}")
        return entry

    def remove(self, channel_id: ChannelId, owner_pid: Pid) -> None:
        self._entries.pop((channel_id, owner_pid), None)

    def entries_for_pid(self, pid: Pid) -> List[RoutingEntry]:
        """All entries owned by one process, in insertion order."""
        return [entry for entry in self._entries.values()
                if entry.owner_pid == pid]

    def all_entries(self) -> List[RoutingEntry]:
        return list(self._entries.values())

    def by_fd(self, pid: Pid, fd: Fd) -> Optional[RoutingEntry]:
        """The entry a process refers to by file descriptor."""
        for entry in self._entries.values():
            if entry.owner_pid == pid and entry.fd == fd:
                return entry
        return None

    # -- crash repair (section 7.10.1 steps 1 and 4) -----------------------

    def repair_after_crash(self, crashed: ClusterId,
                           fullback_pids: Optional[set] = None) -> int:
        """Rewrite peer routing after ``crashed`` went down.

        For every entry whose peer primary lived in the crashed cluster the
        backup destination is promoted to primary destination.  If the peer
        is a fullback (``fullback_pids``), the channel is marked UNUSABLE
        until a BACKUP_READY notice supplies the new backup location.
        Entries whose peer's *backup* cluster crashed simply lose it.

        Returns the number of entries touched.
        """
        fullbacks = fullback_pids or set()
        touched = 0
        for entry in self._entries.values():
            if entry.status is EntryStatus.CLOSED:
                continue
            hit = False
            if entry.peer_cluster == crashed:
                entry.peer_cluster = entry.peer_backup_cluster
                entry.peer_backup_cluster = None
                if entry.peer_fullback or entry.peer_pid in fullbacks:
                    entry.status = EntryStatus.UNUSABLE
                hit = True
            elif entry.peer_backup_cluster == crashed:
                entry.peer_backup_cluster = None
                hit = True
            if hit:
                touched += 1
        return touched

    def apply_backup_ready(self, pid: Pid, backup_cluster: ClusterId) -> int:
        """A new backup for ``pid`` exists in ``backup_cluster``: restore
        peer routing and re-enable channels marked UNUSABLE (7.10.1)."""
        touched = 0
        for entry in self._entries.values():
            if entry.peer_pid == pid and entry.status is not EntryStatus.CLOSED:
                entry.peer_backup_cluster = backup_cluster
                if entry.status is EntryStatus.UNUSABLE:
                    entry.status = EntryStatus.OPEN
                touched += 1
        return touched
