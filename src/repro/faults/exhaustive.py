"""Exhaustive single-crash sweep: every cluster, crashed at every event
time of a workload.

A campaign seed picks one crash point; the paper claims recovery under
*any* crash timing.  :func:`sweep` checks that claim cell by cell on one
registered workload recipe.  It runs the failure-free reference once and
collects the distinct virtual times of its trace records (bus
transmissions, syncs, drops, exits) from ``start`` on.  The default
skips the boot window, in which a freshly spawned process is
unrecoverable by design (see :class:`~repro.faults.injector.TracePoint`).
Then, for every (cluster, time) cell, it builds a fresh machine, crashes
that cluster at that time, runs it until idle with tracing on, and
judges the run with :func:`~repro.faults.invariants.check_scenario`: E8
external equivalence, every process runnable, metrics agreeing with the
trace.  Both runs go through
:func:`~repro.faults.invariants.run_reference` and
:func:`~repro.faults.invariants.run_faulted`: a cell whose run raises
anything but the event-budget :class:`~repro.sim.events.SimulationError`
fails with that one exception as its violation, unjudged, and the sweep
goes on; a reference run that fails is the sweep's one failure, and no
cell runs.  Each machine is closed once judged.

Example::

    from repro.faults.exhaustive import sweep

    result = sweep("pipeline", detector="heartbeat")
    print(result.cells, result.cells_per_s)
    assert not result.failures, result.failures
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import MachineConfig
from ..core.machine import Machine
from ..scenario.registry import validate_params
from ..scenario.workloads import WORKLOAD_REGISTRY
from ..types import ClusterId, Ticks
from .campaign import MAX_EVENTS
from .injector import FaultInjector
from .invariants import run_faulted, run_reference

#: First crash time the sweep aims at by default (the campaigns' floor).
BOOT_WINDOW: Ticks = 2_000
#: Clusters in every cell's machine.
N_CLUSTERS = 3


@dataclass
class SweepResult:
    """Cells run and violations found by one :func:`sweep`."""

    recipe: str
    detector: str
    cells: int = 0
    seconds: float = 0.0
    #: ``(crashed cluster, crash time, violations)`` of each failing
    #: cell; a failed reference run is the one entry, with no cluster
    #: or time, and no cell runs.
    failures: List[Tuple[Optional[ClusterId], Optional[Ticks],
                         List[str]]] = field(default_factory=list)

    @property
    def cells_per_s(self) -> float:
        return self.cells / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "recipe": self.recipe,
            "detector": self.detector,
            "cells": self.cells,
            "seconds": round(self.seconds, 3),
            "cells_per_s": round(self.cells_per_s, 1),
            "failures": [{"cluster": cluster, "time": when,
                          "violations": violations}
                         for cluster, when, violations in self.failures],
        }


def sweep(recipe: str, detector: str = "poll",
          start: Ticks = BOOT_WINDOW,
          end: Optional[Ticks] = None) -> SweepResult:
    """Crash each cluster of a 3-cluster machine at every distinct trace
    time in ``[start, end]`` of ``recipe``'s failure-free run (registry
    default params), detecting crashes with ``detector`` (``"poll"`` or
    ``"heartbeat"``), and judge every cell."""
    build = WORKLOAD_REGISTRY.get(recipe)
    params = validate_params({}, WORKLOAD_REGISTRY.metadata(recipe).params,
                             f"{recipe} params")
    config = MachineConfig(n_clusters=N_CLUSTERS, trace_enabled=True,
                           detector=detector).validate()

    result = SweepResult(recipe=recipe, detector=detector)
    reference = Machine(config)
    build(reference, params)
    expected, violations = run_reference(reference, MAX_EVENTS)
    times = sorted({record.time for record in reference.trace
                    if record.time >= start
                    and (end is None or record.time <= end)})
    reference.close()
    if expected is None:
        result.failures.append((None, None, violations))
        return result
    began = time.perf_counter()
    for cluster in range(N_CLUSTERS):
        for when in times:
            machine = Machine(config)
            build(machine, params)
            injector = FaultInjector(machine)
            injector.crash_at(cluster, when)
            violations = run_faulted(machine, MAX_EVENTS, expected,
                                     survivable=True, injector=injector)
            machine.close()
            result.cells += 1
            if violations:
                result.failures.append((cluster, when, violations))
    result.seconds = time.perf_counter() - began
    return result
