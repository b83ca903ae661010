"""The four-way recovery-design shootout (experiment F5).

The paper's section 2 survey compares its dual-backup scheme against the
era's alternatives qualitatively; this module makes the comparison
quantitative inside the simulator.  Four designs protect the same OLTP
bank server over the same seeded fault campaign, all expressed as knob
settings of the existing backup machinery so the *mechanism* under test
stays constant and only the *policy* varies:

* ``auragen``    — the paper's design: a fullback with incremental
  dirty-page syncs; rollforward replays the saved message queue from the
  last sync point.
* ``checkpoint`` — section 2's explicit checkpointing: a frequent
  whole-data-space copy (``checkpoint_every=8``) replaces incremental
  syncs.  Cheap replay, expensive steady state.
* ``llft``       — the leader/follower style of the LLFT membership
  protocol (arXiv:1004.1864): the follower's state is reconciled after
  *every* input (``sync_reads_threshold=1``), so takeover replays at
  most one message.  Fast recovery bought with per-message overhead.
* ``msglog``     — classic message-logging + infrequent checkpointing
  (arXiv:0911.3092): sparse whole-state checkpoints
  (``checkpoint_every=32``) with the saved message queue acting as the
  message log; recovery replays the long suffix since the last
  checkpoint.  Cheap steady state, expensive recovery.

Each (design, fault kind) cell runs :func:`run_design_scenario`: the
seeded fault plan machinery from :mod:`repro.faults.campaign` aims a
fault at the bank machine, and the cell reports completion, recovery
latency and the request-latency p99 under fault — the recovery-time
versus steady-overhead trade-off EXPERIMENTS.md section F5 reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..backup.modes import BackupMode
from ..core.machine import Machine
from ..faults.campaign import (MAX_EVENTS, build_plan, install_plan,
                               plan_machine_config)
from ..faults.injector import FaultInjector
from ..scenario.registry import EntryMetadata, Registry
from ..sim.rng import DeterministicRNG
from ..workloads.oltp import build_bank_workload


@dataclass(frozen=True)
class RecoveryDesign:
    """One recovery design: a named knob setting of the backup machinery."""

    name: str
    #: Extra :meth:`Machine.spawn` kwargs applied to the protected server.
    server_spawn_kwargs: Mapping[str, Any]
    #: Where the design comes from (paper section or arXiv id).
    source: str


DESIGN_REGISTRY: Registry[RecoveryDesign] = Registry("recovery design")


def register_design(design: RecoveryDesign,
                    metadata: EntryMetadata) -> RecoveryDesign:
    return DESIGN_REGISTRY.register(design.name, design, metadata)


def design_names():
    return DESIGN_REGISTRY.names()


register_design(
    RecoveryDesign(name="auragen", server_spawn_kwargs={},
                   source="this paper (sections 5-8)"),
    EntryMetadata(description="dual-backup fullback with incremental "
                              "dirty-page syncs; rollforward replays the "
                              "saved queue from the last sync point"))

register_design(
    RecoveryDesign(name="checkpoint",
                   server_spawn_kwargs={"checkpoint_every": 8},
                   source="section 2 survey (explicit checkpointing)"),
    EntryMetadata(description="frequent whole-data-space checkpoints "
                              "(every 8 ops) instead of incremental "
                              "syncs: cheap replay, expensive steady "
                              "state"))

register_design(
    RecoveryDesign(name="llft",
                   server_spawn_kwargs={"sync_reads_threshold": 1},
                   source="arXiv:1004.1864 (LLFT leader/follower)"),
    EntryMetadata(description="leader/follower reconciliation after "
                              "every input (sync each read): takeover "
                              "replays at most one message, paid for "
                              "with per-message sync overhead"))

register_design(
    RecoveryDesign(name="msglog",
                   server_spawn_kwargs={"checkpoint_every": 32},
                   source="arXiv:0911.3092 (message logging + "
                          "checkpointing)"),
    EntryMetadata(description="sparse checkpoints (every 32 ops) with "
                              "the saved message queue as the message "
                              "log: cheap steady state, long replay at "
                              "recovery"))


#: Registration order — the column order of every F5 table.
DESIGN_ORDER = ("auragen", "checkpoint", "llft", "msglog")


@dataclass
class DesignCell:
    """One (design, fault kind) cell of the shootout matrix."""

    design: str
    kind: str
    seed: int
    completed: bool                 #: every client got all its replies
    end_time: int
    replies: int
    expected_replies: int
    recovery_latency_mean: Optional[float]
    recovery_samples: int
    request_p99: Optional[float]
    request_count: int
    promotions: int
    syncs: int
    checkpoints: int
    bus_bytes: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design, "kind": self.kind, "seed": self.seed,
            "completed": self.completed, "end_time": self.end_time,
            "replies": self.replies,
            "expected_replies": self.expected_replies,
            "recovery_latency_mean": self.recovery_latency_mean,
            "recovery_samples": self.recovery_samples,
            "request_p99": self.request_p99,
            "request_count": self.request_count,
            "promotions": self.promotions, "syncs": self.syncs,
            "checkpoints": self.checkpoints, "bus_bytes": self.bus_bytes,
        }


def run_design_scenario(design_name: str, kind: str, seed: int = 0,
                        n_clusters: int = 3, n_clients: int = 3,
                        txns_per_client: int = 8,
                        max_events: int = MAX_EVENTS) -> DesignCell:
    """One cell: the named design protecting the bank server while the
    seeded fault plan of ``kind`` hits the machine.

    The fault plan is drawn exactly as :func:`repro.faults.campaign.run_seed`
    draws it (same fork stream), so a cell is reproducible from
    ``(design, kind, seed)`` alone.
    """
    design = DESIGN_REGISTRY.get(design_name)
    root = DeterministicRNG(seed)
    fault_rng = root.fork("faults")
    plan = build_plan(fault_rng, kind, n_clusters)
    machine = Machine(plan_machine_config(plan, n_clusters, seed))
    server_pid, client_pids, _ = build_bank_workload(
        machine, n_clients=n_clients, txns_per_client=txns_per_client,
        seed=seed * 31 + 7, server_mode=BackupMode.FULLBACK,
        server_cluster=0,
        server_spawn_kwargs=dict(design.server_spawn_kwargs))
    injector = FaultInjector(machine)
    install_plan(plan, injector, [server_pid] + list(client_pids))
    machine.run_until_idle(max_events=max_events)

    metrics = machine.metrics
    recovery = metrics.series("recovery.crash_handle_latency")
    hist = metrics.histogram("latency.request")
    replies = sum(1 for pid in client_pids if pid in machine.exits)
    cell = DesignCell(
        design=design_name, kind=kind, seed=seed,
        completed=replies == len(client_pids),
        end_time=machine.sim.now, replies=replies,
        expected_replies=len(client_pids),
        recovery_latency_mean=(sum(recovery) / len(recovery)
                               if recovery else None),
        recovery_samples=len(recovery),
        request_p99=(hist.percentile(99)
                     if hist is not None and hist.count else None),
        request_count=hist.count if hist is not None else 0,
        promotions=metrics.counter("recovery.promotions"),
        syncs=metrics.counter("sync.performed"),
        checkpoints=metrics.counter("checkpoint.performed"),
        bus_bytes=metrics.counter("bus.bytes"))
    machine.close()
    return cell


@dataclass
class ShootoutReport:
    """The full matrix: every design against every requested fault kind."""

    kinds: List[str]
    designs: List[str]
    cells: List[DesignCell] = field(default_factory=list)

    def cell(self, design: str, kind: str) -> Optional[DesignCell]:
        for candidate in self.cells:
            if candidate.design == design and candidate.kind == kind:
                return candidate
        return None

    def p99_curve(self, design: str) -> Dict[str, Optional[float]]:
        """Fault kind -> request p99 for one design (the
        p99-under-fault curve BENCH_core.json records)."""
        return {kind: cell.request_p99 if cell is not None else None
                for kind in self.kinds
                for cell in (self.cell(design, kind),)}

    def recovery_curve(self, design: str) -> Dict[str, Optional[float]]:
        return {kind: (cell.recovery_latency_mean
                       if cell is not None else None)
                for kind in self.kinds
                for cell in (self.cell(design, kind),)}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kinds": list(self.kinds),
            "designs": list(self.designs),
            "cells": [cell.as_dict() for cell in self.cells],
            "p99_by_design": {design: self.p99_curve(design)
                              for design in self.designs},
            "recovery_by_design": {design: self.recovery_curve(design)
                                   for design in self.designs},
        }


def run_shootout(kinds: Sequence[str],
                 designs: Sequence[str] = DESIGN_ORDER,
                 n_clusters: int = 3, n_clients: int = 3,
                 txns_per_client: int = 8,
                 max_events: int = MAX_EVENTS) -> ShootoutReport:
    """Run the full matrix.  Each kind's seed is its stratification
    index in :data:`repro.faults.campaign.FAULT_KINDS` (the seed that
    maps to that kind in an ordinary campaign sweep), so shootout plans
    coincide with campaign plans."""
    from ..faults.campaign import FAULT_KINDS

    report = ShootoutReport(kinds=list(kinds), designs=list(designs))
    for kind in kinds:
        seed = (FAULT_KINDS.index(kind) if kind in FAULT_KINDS else 0)
        for design in designs:
            report.cells.append(run_design_scenario(
                design, kind, seed=seed, n_clusters=n_clusters,
                n_clients=n_clients, txns_per_client=txns_per_client,
                max_events=max_events))
    return report
