"""Machine and cost-model configuration.

All costs are integer ticks (microseconds).  The defaults are scaled to a
1983-vintage M68000-class machine so the benchmark *shapes* are meaningful:
a syscall costs a few hundred microseconds, the intercluster bus moves about
a megabyte per second, a 1 KiB page takes ~1 ms to ship.  Absolute numbers
are not calibrated against real Auragen hardware (the paper reports none);
experiments compare configurations against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .types import Ticks


class ConfigError(Exception):
    """Raised when a configuration violates a machine constraint."""


#: The crash detectors ``MachineConfig.detector`` names.
DETECTORS = ("poll", "heartbeat")


@dataclass
class CostModel:
    """Per-operation virtual-time costs (ticks = microseconds)."""

    #: Fixed bus arbitration + header latency per transmission.
    bus_latency: Ticks = 50
    #: Transfer time per byte on the intercluster bus (~1 MB/s).
    bus_ticks_per_byte: int = 1
    #: Executive-processor time to dispatch one outgoing message.
    exec_dispatch: Ticks = 30
    #: Executive-processor time to perform one delivery leg (enqueue on a
    #: routing entry / bump a count / hand to kernel).
    exec_delivery: Ticks = 40
    #: Executive-processor time to apply a sync message to a backup.
    exec_sync_apply: Ticks = 120
    #: Executive-processor time to create a backup PCB or routing entry.
    exec_backup_maintenance: Ticks = 80
    #: Work-processor time consumed by syscall entry/exit.
    syscall_overhead: Ticks = 150
    #: Work-processor time to place one dirty page on the outgoing queue
    #: during sync (the only part of sync that stalls the primary, 8.3).
    sync_page_enqueue: Ticks = 60
    #: Work-processor time to build and enqueue the sync message itself.
    sync_message_build: Ticks = 100
    #: Context switch cost on a work processor.
    context_switch: Ticks = 80
    #: Disk access: per-block fixed cost (seek+rotate) and per-byte cost.
    #: Charged to the requester only where it genuinely blocks (reads);
    #: writes are issued to the peripheral processor and overlap.
    disk_block_access: Ticks = 3_000
    disk_ticks_per_byte: int = 1
    #: Work-processor time for a server to *issue* an overlapped disk
    #: write (the peripheral processor performs the transfer).
    disk_issue: Ticks = 150
    #: Scheduling quantum on a work processor.
    quantum: Ticks = 10_000
    #: Baseline checkpointing (section 2): work-processor time to copy one
    #: page of the data space into the checkpoint message.  Deliberately
    #: dearer than ``sync_page_enqueue`` — the copy happens synchronously
    #: on the work processor instead of being handed to the executive.
    checkpoint_page_copy: Ticks = 400


@dataclass
class BusFaultConfig:
    """Transient-fault model for the dual intercluster bus.

    All rates are per physical transmission attempt and are judged by a
    deterministic counter-mode hash stream (no runtime RNG), so two runs
    with the same seed see byte-identical fault schedules.  With both
    rates at zero the fault layer is never installed and the bus takes
    the original single-perfect-channel fast path.
    """

    #: Probability an attempt is lost on the wire (split deterministically
    #: between payload loss and lost acknowledgement; an ack loss delivers
    #: but forces a retransmission, exercising duplicate suppression).
    loss_rate: float = 0.0
    #: Probability an attempt arrives corrupted; the receiver's checksum
    #: rejects the whole transmission (all-or-none is trivially kept).
    garble_rate: float = 0.0
    #: Attempts allowed on one bus before the sender declares it suspect
    #: and fails over (if the alternate bus is still alive).
    retry_limit: int = 4
    #: Base retransmission backoff in ticks; doubles per attempt
    #: (capped at ``backoff_base << 10``).
    backoff_base: Ticks = 200
    #: Consecutive failed attempts on one bus before it is declared dead.
    failover_threshold: int = 3
    #: Seed of the deterministic fault stream.
    seed: int = 0

    @property
    def enabled(self) -> bool:
        return self.loss_rate > 0.0 or self.garble_rate > 0.0

    def validate(self) -> "BusFaultConfig":
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError(f"loss_rate must be in [0, 1), "
                              f"got {self.loss_rate}")
        if not 0.0 <= self.garble_rate < 1.0:
            raise ConfigError(f"garble_rate must be in [0, 1), "
                              f"got {self.garble_rate}")
        if self.loss_rate + self.garble_rate > 0.9:
            raise ConfigError(
                "loss_rate + garble_rate must leave >= 0.1 success "
                f"probability, got {self.loss_rate + self.garble_rate}")
        if self.retry_limit < 1:
            raise ConfigError("retry_limit must be >= 1")
        if self.backoff_base < 1:
            raise ConfigError("backoff_base must be >= 1")
        if self.failover_threshold < 1:
            raise ConfigError("failover_threshold must be >= 1")
        return self


@dataclass
class MachineConfig:
    """Shape and policy of a simulated Auragen 4000 machine.

    Constraints follow section 7.1: 2-32 clusters on a dual high-speed bus,
    each with 3-7 M68000s of which two are work processors and one is the
    executive processor (the rest drive peripherals, which we fold into the
    peripheral servers).
    """

    n_clusters: int = 3
    work_processors_per_cluster: int = 2
    #: Sync trigger: reads since last sync (section 7.8; tunable per
    #: process, this is the machine default).
    sync_reads_threshold: int = 20
    #: Sync trigger: execution time since last sync, in ticks.
    sync_time_threshold: Ticks = 200_000
    #: Page size in bytes; address spaces are paged at this granularity.
    page_size: int = 1024
    #: Words (integer cells) per page: programs address memory in words.
    words_per_page: int = 128
    #: Failure-detector polling interval (7.10: "periodic polling of every
    #: cluster will discover the shutdown").
    poll_interval: Ticks = 50_000
    #: Crash detector: ``"poll"`` alone, or ``"heartbeat"``, which runs
    #: beacon-based detection beside the poll detector (see
    #: :mod:`repro.recovery.detector`).  Detection latency is roughly
    #: ``(heartbeat_miss_threshold + 1) * heartbeat_interval`` versus
    #: ``poll_interval``.  With ``"poll"`` no monitor is built and the
    #: heartbeat knobs are unused.
    detector: str = "poll"
    #: Heartbeat beacon period in ticks (per cluster, staggered by
    #: cluster id).
    heartbeat_interval: Ticks = 5_000
    #: Consecutive missed beacons before a peer is suspected dead.
    heartbeat_miss_threshold: int = 3
    #: Peripheral-server explicit sync interval (requests between syncs).
    server_sync_requests: int = 32
    costs: CostModel = field(default_factory=CostModel)
    #: Emit trace records (disable for large benchmark runs).
    trace_enabled: bool = True
    #: Retain raw metric sample lists (``MetricSet.series``).  On by
    #: default; the wall-clock benchmark harness turns it off so long
    #: runs keep streaming ``(count, total, min, max)`` aggregates only.
    metrics_raw_series: bool = True
    #: Negative ablations (experiment E13): disable one pillar of the
    #: design to demonstrate recovery depends on it.  Never set in
    #: production use.
    ablate_dest_backup_save: bool = False   # drop DEST_BACKUP copies (5.1)
    ablate_send_suppression: bool = False   # ignore write counts (5.4)
    #: Transient-fault model for the dual bus (off by default; see
    #: :class:`BusFaultConfig`).  The machine stays free of runtime
    #: randomness — fault outcomes come from a seeded hash stream.
    bus_faults: BusFaultConfig = field(default_factory=BusFaultConfig)
    #: Workload RNG seed (the machine itself uses no randomness).
    seed: int = 0

    def validate(self) -> "MachineConfig":
        """Check section 7.1's machine constraints; return self."""
        if not 2 <= self.n_clusters <= 32:
            raise ConfigError(
                f"Auragen 4000 supports 2-32 clusters, got {self.n_clusters}")
        if self.work_processors_per_cluster < 1:
            raise ConfigError("need at least one work processor per cluster")
        total = self.work_processors_per_cluster + 1  # + executive
        if not 3 <= total + 1 <= 8:  # +1 for at least one peripheral processor
            raise ConfigError(
                "cluster processor count out of the 3-7 M68000 range")
        if self.sync_reads_threshold < 1:
            raise ConfigError("sync_reads_threshold must be >= 1")
        if self.sync_time_threshold < 1:
            raise ConfigError("sync_time_threshold must be >= 1")
        if self.page_size < 1 or self.words_per_page < 1:
            raise ConfigError("page geometry must be positive")
        if self.poll_interval < 1:
            raise ConfigError("poll_interval must be >= 1")
        if self.detector not in DETECTORS:
            raise ConfigError(f"detector must be one of "
                              f"{', '.join(DETECTORS)}, "
                              f"got {self.detector!r}")
        if self.heartbeat_interval < 1:
            raise ConfigError("heartbeat_interval must be >= 1")
        if self.heartbeat_miss_threshold < 1:
            raise ConfigError("heartbeat_miss_threshold must be >= 1")
        self.bus_faults.validate()
        return self


def small_machine(n_clusters: int = 3, seed: int = 0,
                  trace: bool = True,
                  sync_reads_threshold: Optional[int] = None) -> MachineConfig:
    """A convenient small test machine (3 clusters unless overridden)."""
    config = MachineConfig(n_clusters=n_clusters, seed=seed,
                           trace_enabled=trace)
    if sync_reads_threshold is not None:
        config.sync_reads_threshold = sync_reads_threshold
    return config.validate()
