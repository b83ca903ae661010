"""Failure-free overhead comparison harness (experiment E1).

Runs the same workload under four fault-tolerance regimes and reports the
work-processor time, wall-clock (virtual) completion time, and bus bytes
of each:

* ``none``       — no backups at all: the floor (section 2's "duplicate
  hardware runs additional primaries").
* ``auragen``    — the paper's scheme: three-way delivery + dirty-page
  incremental sync.
* ``checkpoint`` — section 2's explicit whole-data-space checkpointing.
* ``active``     — dedicated lockstep duplicates (section 2's first
  approach, e.g. Stratus): modelled analytically as the no-FT run plus a
  100% work-processor duplicate and doubled bus traffic; recovery is
  instantaneous but the duplicate hardware adds no capacity.

The recovery designs of the F5 shootout live in one table,
:data:`repro.baselines.designs.DESIGN_REGISTRY`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..backup.modes import BackupMode
from ..config import MachineConfig
from ..core.machine import Machine
from ..programs.program import Program
from ..types import Ticks


@dataclass
class RegimeResult:
    """Measured failure-free cost of one regime."""

    regime: str
    completion_time: Ticks
    work_busy: Ticks
    executive_busy: Ticks
    bus_bytes: int
    syncs: int
    checkpoints: int
    pages_shipped: int

    def overhead_vs(self, floor: "RegimeResult") -> float:
        """Relative completion-time overhead against the no-FT floor."""
        if floor.completion_time == 0:
            return 0.0
        return (self.completion_time / floor.completion_time) - 1.0


def _measure(machine: Machine) -> Dict[str, int]:
    work = sum(machine.metrics.busy(proc.resource_name)
               for cluster in machine.clusters
               for proc in cluster.work_processors)
    executive = sum(machine.metrics.busy(c.executive.resource_name)
                    for c in machine.clusters)
    return {
        "work": work,
        "executive": executive,
        "bus_bytes": machine.metrics.counter("bus.bytes"),
        "syncs": machine.metrics.counter("sync.performed"),
        "checkpoints": machine.metrics.counter("checkpoint.performed"),
        "pages": machine.metrics.counter("paging.pages_shipped"),
    }


def run_regime(regime: str, make_programs: Callable[[], List[Program]],
               config: Optional[MachineConfig] = None,
               sync_reads_threshold: int = 10,
               sync_time_threshold: Optional[Ticks] = None,
               checkpoint_every: int = 10,
               max_events: int = 20_000_000) -> RegimeResult:
    """Run one regime over the programs ``make_programs`` returns.

    ``make_programs`` is called fresh per run so program objects are never
    shared between machines.
    """
    if regime == "active":
        floor = run_regime("none", make_programs, config,
                           sync_reads_threshold, sync_time_threshold,
                           checkpoint_every, max_events)
        return RegimeResult(
            regime="active", completion_time=floor.completion_time,
            work_busy=floor.work_busy * 2,
            executive_busy=floor.executive_busy * 2,
            bus_bytes=floor.bus_bytes * 2, syncs=0, checkpoints=0,
            pages_shipped=0)

    machine = Machine(config)
    for program in make_programs():
        if regime == "none":
            machine.spawn(program, backup_mode=None)
        elif regime == "auragen":
            machine.spawn(program, backup_mode=BackupMode.QUARTERBACK,
                          sync_reads_threshold=sync_reads_threshold,
                          sync_time_threshold=sync_time_threshold)
        elif regime == "checkpoint":
            machine.spawn(program, backup_mode=BackupMode.QUARTERBACK,
                          checkpoint_every=checkpoint_every)
        else:
            raise ValueError(f"unknown regime {regime!r}")
    completion = machine.run_until_idle(max_events=max_events)
    measured = _measure(machine)
    machine.close()
    return RegimeResult(
        regime=regime, completion_time=completion,
        work_busy=measured["work"], executive_busy=measured["executive"],
        bus_bytes=measured["bus_bytes"], syncs=measured["syncs"],
        checkpoints=measured["checkpoints"],
        pages_shipped=measured["pages"])


def compare_regimes(make_programs: Callable[[], List[Program]],
                    config: Optional[MachineConfig] = None,
                    regimes: Optional[List[str]] = None,
                    sync_reads_threshold: int = 10,
                    sync_time_threshold: Optional[Ticks] = None,
                    checkpoint_every: int = 10) -> List[RegimeResult]:
    """Run every regime over the same workload; results in given order."""
    chosen = regimes or ["none", "auragen", "checkpoint", "active"]
    return [run_regime(regime, make_programs, config,
                       sync_reads_threshold, sync_time_threshold,
                       checkpoint_every)
            for regime in chosen]
