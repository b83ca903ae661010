"""Seed-driven random scenario generation.

Builds machines populated with a random mix of the workload programs —
terminal writers, request/response pairs, fork parents, time askers, file
workers — with randomized placement, sync thresholds and backup modes.
Used by the property-based equivalence tests and the E8-style sweeps: a
scenario is a pure function of its seed, so a failure report reduces to
one integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..backup.modes import BackupMode
from ..config import MachineConfig
from ..core.machine import Machine
from ..sim.events import SimulationError
from ..sim.rng import DeterministicRNG
from ..types import Pid
from .programs import (FileWorkerProgram, ForkParentProgram, PingProgram,
                       PongProgram, TimeAskerProgram, TtyWriterProgram)


@dataclass
class Scenario:
    """A generated workload: recipe plus how to build and observe it."""

    seed: int
    n_clusters: int
    recipe: List[Tuple] = field(default_factory=list)

    def build(self, machine: Machine) -> List[Pid]:
        """Instantiate the recipe on a machine; returns spawned pids."""
        pids: List[Pid] = []
        for item in self.recipe:
            kind, cluster, threshold, mode, params = item
            if kind == "writer":
                lines, compute, tag = params
                pids.append(machine.spawn(
                    TtyWriterProgram(lines=lines, compute=compute, tag=tag),
                    cluster=cluster, sync_reads_threshold=threshold,
                    backup_mode=mode))
            elif kind == "pingpong":
                rounds, compute, channel, pong_cluster = params
                pids.append(machine.spawn(
                    PingProgram(channel=channel, rounds=rounds,
                                compute=compute),
                    cluster=cluster, sync_reads_threshold=threshold,
                    backup_mode=mode))
                pids.append(machine.spawn(
                    PongProgram(channel=channel, rounds=rounds),
                    cluster=pong_cluster, sync_reads_threshold=threshold,
                    backup_mode=mode))
            elif kind == "forker":
                children, steps = params
                pids.append(machine.spawn(
                    ForkParentProgram(children=children, child_steps=steps,
                                      child_cost=1_500),
                    cluster=cluster, sync_reads_threshold=threshold,
                    backup_mode=mode))
            elif kind == "timer":
                asks, compute = params
                pids.append(machine.spawn(
                    TimeAskerProgram(asks=asks, compute=compute),
                    cluster=cluster, sync_reads_threshold=threshold,
                    backup_mode=mode))
            elif kind == "file":
                records, tag = params
                pids.append(machine.spawn(
                    FileWorkerProgram(path=f"f_{tag}", records=records,
                                      tag=tag),
                    cluster=cluster, sync_reads_threshold=threshold,
                    backup_mode=mode))
        return pids

    def run(self, crash_cluster: Optional[int] = None,
            crash_at: Optional[int] = None,
            max_events: int = 40_000_000) -> Machine:
        """Build a fresh machine, optionally crash, run to idle.  A run
        that exhausts ``max_events`` closes its machine and re-raises the
        :class:`~repro.sim.events.SimulationError`."""
        machine = Machine(MachineConfig(n_clusters=self.n_clusters,
                                        trace_enabled=False))
        self.build(machine)
        if crash_cluster is not None:
            machine.crash_cluster(crash_cluster, at=crash_at or 10_000)
        try:
            machine.run_until_idle(max_events=max_events)
        except SimulationError:
            machine.close()
            raise
        return machine


def observable(machine: Machine) -> Tuple[Dict, Tuple]:
    """Per-process terminal projections plus exit codes (the guaranteed
    externally visible behaviour).

    Exit codes are compared as a sorted multiset, not keyed by pid: a
    child whose fork had not yet been announced when the crash hit (no
    birth notice escaped) is legitimately re-created under a fresh pid —
    no external observer ever saw the original id.  Where a notice *did*
    escape, pid stability is asserted separately
    (``tests/test_fork_signals_time.py``).
    """
    per_tag: Dict[str, List[str]] = {}
    for line in machine.tty_output():
        per_tag.setdefault(line.split(":", 1)[0], []).append(line)
    return per_tag, tuple(sorted(machine.exits.values()))


def generate_scenario(seed: int, n_clusters: int = 3,
                      max_items: int = 4,
                      allow_modes: bool = True) -> Scenario:
    """Generate a random scenario from a seed."""
    rng = DeterministicRNG(seed)
    scenario = Scenario(seed=seed, n_clusters=n_clusters)
    modes = ([BackupMode.QUARTERBACK, BackupMode.HALFBACK]
             + ([BackupMode.FULLBACK] if n_clusters >= 3 else []))
    n_items = rng.randint(1, max_items)
    for index in range(n_items):
        kind = rng.choice(["writer", "writer", "pingpong", "forker",
                           "timer", "file"])
        cluster = rng.randint(0, n_clusters - 1)
        threshold = rng.choice([2, 3, 5, 8, 1_000_000])
        mode = rng.choice(modes) if allow_modes else BackupMode.QUARTERBACK
        if kind == "writer":
            params = (rng.randint(3, 10), rng.randint(500, 3_000),
                      f"w{index}")
        elif kind == "pingpong":
            pong_cluster = rng.randint(0, n_clusters - 1)
            params = (rng.randint(3, 10), rng.randint(200, 1_500),
                      f"chan:pp{index}", pong_cluster)
        elif kind == "forker":
            params = (rng.randint(1, 3), rng.randint(2, 10))
        elif kind == "timer":
            params = (rng.randint(2, 6), rng.randint(500, 3_000))
        else:  # file
            params = (rng.randint(3, 8), f"f{index}")
        scenario.recipe.append((kind, cluster, threshold, mode, params))
    return scenario
