"""Machine and cost-model configuration.

All costs are integer ticks (microseconds).  The defaults are scaled to a
1983-vintage M68000-class machine so the benchmark *shapes* are meaningful:
a syscall costs a few hundred microseconds, the intercluster bus moves about
a megabyte per second, a 1 KiB page takes ~1 ms to ship.  Absolute numbers
are not calibrated against real Auragen hardware (the paper reports none);
experiments compare configurations against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple, Type

from .types import Ticks


class ConfigError(Exception):
    """Raised when a configuration violates a machine constraint."""


#: The crash detectors ``MachineConfig.detector`` names.
DETECTORS = ("poll", "heartbeat")

#: Section 7.1: each cluster has two work processors (plus the
#: executive processor and the peripheral processors, which are folded
#: into the peripheral servers).
WORK_PROCESSORS_PER_CLUSTER = 2
#: Page size in bytes; address spaces are paged at this granularity.
PAGE_SIZE = 1024
#: Words (integer cells) per page: programs address memory in words.
WORDS_PER_PAGE = 128


@dataclass(frozen=True)
class Knob:
    """A config field that is also a ``machine:``/``bus:`` scenario key.

    Declared once, as the field's metadata (:func:`knob`); ``validate()``
    and the scenario schema both read the table built from it at import.
    """

    description: str
    #: The scenario key, when it is not the field name.
    key: str = ""
    #: Legal range: ``min <= value < below``, or one of ``choices``.
    min: Any = None
    below: Any = None
    choices: Optional[Tuple[str, ...]] = None
    #: Whether a scenario may give null (keep the field default); if
    #: not, an unset key normalizes to the field default.
    nullable: bool = True
    #: The range error, formatted with ``value``; derived from the range
    #: unless given.
    error: str = ""
    #: The field's name and default, bound when the table is built.
    name: str = ""
    default: Any = None

    def check(self, value: Any) -> None:
        if self.choices is not None:
            legal = value in self.choices
        else:
            legal = ((self.min is None or value >= self.min)
                     and (self.below is None or value < self.below))
        if not legal:
            raise ConfigError(self.error.format(value=value))


def knob(description: str, **spec: Any) -> Dict[str, Knob]:
    """Field metadata declaring a scenario knob (keywords as
    :class:`Knob`)."""
    return {"knob": Knob(description, **spec)}


def _range_error(name: str, spec: Knob) -> str:
    if spec.choices is not None:
        return (f"{name} must be one of {', '.join(spec.choices)}, "
                f"got {{value!r}}")
    if spec.below is not None:
        return f"{name} must be in [{spec.min}, {spec.below}), got {{value}}"
    if spec.min is not None:
        return f"{name} must be >= {spec.min}"
    return ""


def _knobs(cls: Type[Any]) -> Tuple[Knob, ...]:
    """The knobs of config dataclass ``cls``, in field order."""
    table = []
    for spec in fields(cls):
        declared = spec.metadata.get("knob")
        if declared is not None:
            table.append(replace(
                declared, name=spec.name, default=spec.default,
                key=declared.key or spec.name,
                error=declared.error or _range_error(spec.name, declared)))
    return tuple(table)


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
    loss_rate: float = field(default=0.0, metadata=knob(
        "per-attempt loss probability", min=0, below=1, nullable=False))
    #: Probability an attempt arrives corrupted; the receiver's checksum
    #: rejects the whole transmission (all-or-none is trivially kept).
    garble_rate: float = field(default=0.0, metadata=knob(
        "per-attempt garble probability", min=0, below=1,
        nullable=False))
    #: Attempts allowed on one bus before the sender declares it suspect
    #: and fails over (if the alternate bus is still alive).
    retry_limit: int = field(default=4, metadata=knob(
        "attempts before failover", min=1))
    #: Base retransmission backoff in ticks; doubles per attempt
    #: (capped at ``backoff_base << 10``).
    backoff_base: Ticks = field(default=200, metadata=knob(
        "base retransmission backoff", min=1))
    #: Consecutive failed attempts on one bus before it is declared dead.
    failover_threshold: int = field(default=3, metadata=knob(
        "failures before a bus is dead", min=1))
    #: Seed of the deterministic fault stream.
    seed: int = field(default=0, metadata=knob(
        "fault-stream seed", nullable=False))

    @property
    def enabled(self) -> bool:
        return self.loss_rate > 0.0 or self.garble_rate > 0.0

    def validate(self) -> "BusFaultConfig":
        for spec in BUS_KNOBS:
            spec.check(getattr(self, spec.name))
        if self.loss_rate + self.garble_rate > 0.9:
            raise ConfigError(
                "loss_rate + garble_rate must leave >= 0.1 success "
                f"probability, got {self.loss_rate + self.garble_rate}")
        return self


@dataclass
class MachineConfig:
    """Shape and policy of a simulated Auragen 4000 machine.

    Constraints follow section 7.1: 2-32 clusters on a dual high-speed
    bus, each with :data:`WORK_PROCESSORS_PER_CLUSTER` work processors.
    A field declared with :func:`knob` metadata is also a ``machine:``
    scenario key.
    """

    n_clusters: int = field(default=3, metadata=knob(
        "cluster count", key="clusters", min=2, below=33, nullable=False,
        error="Auragen 4000 supports 2-32 clusters, got {value}"))
    #: Sync trigger: reads since last sync (section 7.8; tunable per
    #: process, this is the machine default).
    sync_reads_threshold: int = field(default=20, metadata=knob(
        "reads between syncs", min=1))
    #: Sync trigger: execution time since last sync, in ticks.
    sync_time_threshold: Ticks = field(default=200_000, metadata=knob(
        "ticks between syncs", min=1))
    #: Failure-detector polling interval (7.10: "periodic polling of every
    #: cluster will discover the shutdown").
    poll_interval: Ticks = field(default=50_000, metadata=knob(
        "failure-detector poll ticks", min=1))
    #: Crash detector: ``"poll"`` alone, or ``"heartbeat"``, which runs
    #: beacon-based detection beside the poll detector (see
    #: :mod:`repro.recovery.detector`).  Detection latency is roughly
    #: ``(heartbeat_miss_threshold + 1) * heartbeat_interval`` versus
    #: ``poll_interval``.  With ``"poll"`` no monitor is built and the
    #: heartbeat knobs are unused.
    detector: str = field(default="poll", metadata=knob(
        "crash detector (heartbeat runs beside poll)", choices=DETECTORS))
    #: Heartbeat beacon period in ticks (per cluster, staggered by
    #: cluster id).
    heartbeat_interval: Ticks = field(default=5_000, metadata=knob(
        "beacon period, ticks", min=1))
    #: Consecutive missed beacons before a peer is suspected dead.
    heartbeat_miss_threshold: int = field(default=3, metadata=knob(
        "missed beacons before suspicion", min=1))
    #: Peripheral-server explicit sync interval (requests between syncs).
    server_sync_requests: int = field(default=32, metadata=knob(
        "server requests between syncs", min=1))
    costs: CostModel = field(default_factory=CostModel)
    #: Emit trace records (disable for large benchmark runs).
    trace_enabled: bool = True
    #: Retain raw metric sample lists (``MetricSet.series``).  On by
    #: default; the wall-clock benchmark harness turns it off so long
    #: runs keep streaming ``(count, total, min, max)`` aggregates only.
    metrics_raw_series: bool = True
    #: Transient-fault model for the dual bus (off by default; see
    #: :class:`BusFaultConfig`).  The machine stays free of runtime
    #: randomness — fault outcomes come from a seeded hash stream.
    bus_faults: BusFaultConfig = field(default_factory=BusFaultConfig)
    #: Workload RNG seed (the machine itself uses no randomness).
    seed: int = field(default=0, metadata=knob(
        "machine/workload RNG seed", nullable=False))

    def validate(self) -> "MachineConfig":
        """Check every knob's range (section 7.1's machine constraints
        among them); return self."""
        for spec in MACHINE_KNOBS:
            spec.check(getattr(self, spec.name))
        self.bus_faults.validate()
        return self


#: The knob tables, built once: ``validate()`` and the scenario schema
#: (``machine:``/``bus:``) read them.
MACHINE_KNOBS = _knobs(MachineConfig)
BUS_KNOBS = _knobs(BusFaultConfig)
