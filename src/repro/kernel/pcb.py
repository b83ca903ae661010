"""Process control blocks.

A PCB is the kernel-side identity of a process.  The paper's split matters
here (section 7.5): fields are either *cluster-independent* (pid, register
file, fd map, read/write accounting — everything a sync message carries and
a backup may rely on) or *environmental* (which work processor it last ran
on, scheduling bookkeeping — never exposed to programs and never synced).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..backup.modes import BackupMode
from ..paging import AddressSpace
from ..programs.program import Program
from ..types import ChannelId, ClusterId, Fd, Pid, Ticks


class ProcState(enum.Enum):
    """Scheduling state of a primary process."""

    EMBRYO = "embryo"                  # created, never yet enqueued
    READY = "ready"
    RUNNING = "running"
    BLOCKED_READ = "blocked_read"      # awaiting a message (read / reply)
    BLOCKED_OPEN = "blocked_open"      # awaiting an open reply
    BLOCKED_PAGE = "blocked_page"      # awaiting a page-in from the page server
    EXITED = "exited"


@dataclass
class BlockInfo:
    """Why a process is blocked and what will wake it."""

    kind: str                            # "read" | "read_any" | "reply" | "open" | "page"
    fds: Tuple[Fd, ...] = ()
    page_no: Optional[int] = None
    #: Virtual time the block began; resolving it records the elapsed
    #: wait into the latency histograms (telemetry only, never synced).
    since: Optional[Ticks] = None


@dataclass
class ProcessControlBlock:
    """Kernel state for one primary process."""

    pid: Pid
    program: Program
    cluster_id: ClusterId
    backup_cluster: Optional[ClusterId]
    backup_mode: BackupMode
    family_head: Pid
    parent: Optional[Pid]
    space: AddressSpace
    is_server: bool = False
    state: ProcState = ProcState.EMBRYO
    #: Cluster-independent register file (synced; includes rv / pc).
    regs: Dict[str, Any] = field(default_factory=dict)
    #: fd -> channel id (cluster-independent; carried by sync deltas).
    fds: Dict[Fd, ChannelId] = field(default_factory=dict)
    next_fd: Fd = 0
    #: Well-known channels every process is born with (section 7.6 gives
    #: every process standing file-server channels; we add the process
    #: server and the signal channel).
    signal_channel: Optional[ChannelId] = None
    page_channel: Optional[ChannelId] = None
    fs_channel_fd: Optional[Fd] = None
    ps_channel_fd: Optional[Fd] = None
    #: Sync accounting (section 7.8).
    reads_since_sync: int = 0
    exec_since_sync: Ticks = 0
    sync_reads_threshold: int = 20
    sync_time_threshold: Ticks = 200_000
    sync_seq: int = 0
    last_sync_time: Ticks = 0
    sync_forced: bool = False
    #: Deferred backup creation (section 7.7).
    has_backup_process: bool = False
    children_without_backup: Set[Pid] = field(default_factory=set)
    #: Channels closed since the last sync (reported as deltas).
    closed_since_sync: List[ChannelId] = field(default_factory=list)
    #: Pending alarms as (seq, absolute fire deadline); synced as remaining
    #: delays and re-armed on promotion.
    pending_alarms: List[Tuple[int, Ticks]] = field(default_factory=list)
    #: Fork counter, used to match birth notices during recovery replay.
    fork_count: int = 0
    #: Rollforward bookkeeping.
    recovering: bool = False
    #: A halfback that lost its backup remembers which cluster held it, so
    #: a new backup is re-created there when the cluster returns (7.3).
    lost_backup_in: Optional[ClusterId] = None
    #: When a full sync is pending, the explicit target backup cluster.
    full_sync_target: Optional[ClusterId] = None
    #: Baseline mode (section 2's explicit-checkpointing comparison): copy
    #: the whole data space to the backup every N operations, stalling the
    #: primary for the full copy.  ``None`` = Auragen sync (the default).
    checkpoint_every: Optional[int] = None
    ops_since_checkpoint: int = 0
    #: Environmental / scheduling fields (never synced).
    block: Optional[BlockInfo] = None
    on_processor: Optional[int] = None
    quantum_used: Ticks = 0
    exit_code: Optional[int] = None
    #: Signals queued for delivery checks happen at step boundaries; the
    #: actual signal *messages* sit on the signal channel's routing entry.
    total_steps: int = 0

    def alloc_fd(self, channel_id: ChannelId) -> Fd:
        """Assign the next file descriptor (deterministic counter)."""
        fd = self.next_fd
        self.next_fd += 1
        self.fds[fd] = channel_id
        return fd

    def channel_for_fd(self, fd: Fd) -> Optional[ChannelId]:
        return self.fds.get(fd)

    def sync_due(self) -> bool:
        """Has either sync trigger fired (reads count / execution time)?"""
        if self.sync_forced:
            return True
        if self.reads_since_sync >= self.sync_reads_threshold:
            return True
        if self.exec_since_sync >= self.sync_time_threshold:
            return True
        return False

    def note_exec(self, ticks: Ticks) -> None:
        self.exec_since_sync += ticks
        self.quantum_used += ticks


@dataclass
class BackupRecord:
    """The inactive backup: a PCB "less the kernel stack" (section 7.7)
    plus what the last sync message carried.

    Lives in the backup cluster's kernel.  ``program`` is the same
    immutable behaviour object as the primary's (code pages are shared
    through the file system in the real machine).  The saved message queues
    live on the backup routing entries, not here.
    """

    pid: Pid
    program: Program
    home_cluster: ClusterId            # where the primary runs
    backup_cluster: ClusterId          # where this record lives
    backup_mode: BackupMode
    family_head: Pid
    is_server: bool = False
    regs: Dict[str, Any] = field(default_factory=dict)
    fds: Dict[Fd, ChannelId] = field(default_factory=dict)
    next_fd: Fd = 0
    signal_channel: Optional[ChannelId] = None
    page_channel: Optional[ChannelId] = None
    fs_channel_fd: Optional[Fd] = None
    ps_channel_fd: Optional[Fd] = None
    sync_seq: int = 0
    sync_reads_threshold: int = 20
    sync_time_threshold: Ticks = 200_000
    pending_alarms: List[Tuple[int, Ticks]] = field(default_factory=list)
    #: Set once the first sync arrives; before that the record is only a
    #: birth notice shadow (no state to roll forward from — recovery
    #: restarts the process from its initial state instead).
    synced_once: bool = False


@dataclass
class BirthNotice:
    """Sent to the family's backup cluster on fork (section 7.7).

    Creates routing entries for fork-created channels and, during
    recovery, lets the re-executed fork give the child its original pid.
    """

    child_pid: Pid
    parent_pid: Pid
    family_head: Pid
    program: Program
    backup_mode: BackupMode
    #: (channel_id, kind) for each channel made at fork: the well-known
    #: signal / file-server / process-server channels.
    channels: List[Tuple[ChannelId, str]] = field(default_factory=list)
