"""Analytic models of sync overhead and recovery time.

The paper leaves its central knob — the sync interval (section 7.8) — to
be "set ... for each process" without guidance.  This module supplies the
classic rollback-recovery mathematics for choosing it, in the terms of
our cost model, and the E12 benchmark checks the closed form against the
simulator's measured sweep:

* **failure-free overhead rate**: a sync stalls the primary for
  ``stall = dirty_pages * sync_page_enqueue + sync_message_build`` and
  occupies the bus for the shipped pages; syncing every ``T`` ticks costs
  ``stall / T`` of the primary's time.
* **expected recovery time**: detection (one poll interval) + crash
  handling + rollforward of the work done since the last sync —
  on average ``T/2`` of re-execution plus page-in round trips.
* **optimal interval**: minimizing total expected overhead
  ``stall/T + (T/2)/MTBF`` gives the Young-style square-root law
  ``T* = sqrt(2 * stall * MTBF)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import PAGE_SIZE, CostModel, MachineConfig


class ModelError(Exception):
    """Raised for non-physical parameters (zero interval, zero MTBF)."""


@dataclass(frozen=True)
class SyncParameters:
    """Workload facts the model needs."""

    #: Pages dirtied between two syncs (the working set per interval).
    dirty_pages_per_sync: int
    #: Pages the process's address space spans (page-in bound on recovery).
    total_pages: int
    #: Mean ticks between failures of the process's cluster.
    mtbf: float


def sync_stall(costs: CostModel, dirty_pages: int) -> int:
    """Primary stall per sync (section 8.3: enqueue only)."""
    if dirty_pages < 0:
        raise ModelError("dirty_pages must be >= 0")
    return dirty_pages * costs.sync_page_enqueue + costs.sync_message_build


def overhead_rate(costs: CostModel, params: SyncParameters,
                  interval: float) -> float:
    """Fraction of primary time lost to syncing at the given interval."""
    if interval <= 0:
        raise ModelError("interval must be positive")
    return sync_stall(costs, params.dirty_pages_per_sync) / interval


def expected_rollforward(params: SyncParameters, interval: float) -> float:
    """Expected re-execution after a crash: uniformly distributed crash
    point means half an interval of lost work on average."""
    if interval <= 0:
        raise ModelError("interval must be positive")
    return interval / 2.0


def expected_recovery_time(config: MachineConfig, params: SyncParameters,
                           interval: float) -> float:
    """Detection + crash handling + page-ins + rollforward, in ticks."""
    costs = config.costs
    detection = config.poll_interval
    handling = 2_000  # crash-process base cost (recovery.crashhandler)
    page_ins = params.total_pages * (
        2 * costs.bus_latency + PAGE_SIZE * costs.bus_ticks_per_byte
        + costs.disk_block_access)
    return detection + handling + page_ins \
        + expected_rollforward(params, interval)


def total_cost_rate(config: MachineConfig, params: SyncParameters,
                    interval: float) -> float:
    """Long-run fraction of time lost to fault tolerance: failure-free
    sync overhead plus amortized recovery re-execution."""
    if params.mtbf <= 0:
        raise ModelError("mtbf must be positive")
    failure_rate = 1.0 / params.mtbf
    return (overhead_rate(config.costs, params, interval)
            + expected_rollforward(params, interval) * failure_rate)


def optimal_interval(costs: CostModel, params: SyncParameters) -> float:
    """The Young-style square-root law: minimize ``stall/T + T/(2 MTBF)``.

    d/dT = -stall/T^2 + 1/(2 MTBF) = 0  =>  T* = sqrt(2 * stall * MTBF).
    """
    if params.mtbf <= 0:
        raise ModelError("mtbf must be positive")
    stall = sync_stall(costs, params.dirty_pages_per_sync)
    return math.sqrt(2.0 * stall * params.mtbf)


def availability(config: MachineConfig, params: SyncParameters,
                 interval: float) -> float:
    """Steady-state availability of an affected process: the fraction of
    time it is not waiting on recovery, given one failure per MTBF."""
    recovery = expected_recovery_time(config, params, interval)
    return params.mtbf / (params.mtbf + recovery)


def checkpoint_overhead_rate(costs: CostModel, params: SyncParameters,
                             interval: float) -> float:
    """Same failure-free overhead under section 2's whole-space
    checkpointing: every interval copies *all* pages on the work
    processor."""
    if interval <= 0:
        raise ModelError("interval must be positive")
    stall = (params.total_pages * costs.checkpoint_page_copy
             + costs.sync_message_build)
    return stall / interval
