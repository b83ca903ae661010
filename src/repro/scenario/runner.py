"""Execute compiled scenarios — one file or a whole corpus.

Sweep-mode scenarios delegate to
:meth:`~repro.faults.campaign.CampaignPlan.run`, honoring ``jobs`` and
the reference cache; their serialized report is **exactly**
``CampaignReport.as_dict()``, so a scenario file and the equivalent
Python-built plan emit byte-identical JSON.  Explicit-mode scenarios
build the named workload twice (failure-free reference + faulted run),
install the fault plan, and judge the run as campaigns and sweeps do
(:func:`~repro.faults.invariants.run_reference` and
:func:`~repro.faults.invariants.run_faulted`), plus the ``expect:``
counter bounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.machine import Machine
from ..faults.campaign import install_plan, trace_digest
from ..faults.injector import FaultInjector
from ..faults.invariants import run_faulted, run_reference
from .compile import CompiledScenario, load_scenario
from .registry import RegistryError
from .workloads import WORKLOAD_REGISTRY
from .yamlite import YamlError

SCENARIO_SUFFIXES = (".yaml", ".yml")


@dataclass
class ScenarioOutcome:
    """What one scenario produced."""

    name: str
    source: str
    mode: str          #: "sweep" | "explicit" | "baseline" | "error"
    passed: bool
    violations: List[str] = field(default_factory=list)
    description: str = ""
    #: Sweep mode: the campaign report, verbatim
    #: (``CampaignReport.as_dict()`` — the byte-identity surface).
    report: Optional[Dict[str, Any]] = None
    #: Explicit mode: run facts.
    fault: Optional[str] = None
    survivable: bool = True
    digest: str = ""
    end_time: int = 0
    events: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "scenario": self.name,
            "source": self.source,
            "mode": self.mode,
            "passed": self.passed,
            "violations": self.violations,
        }
        if self.mode in ("sweep", "baseline"):
            out["report"] = self.report
        elif self.mode == "explicit":
            out.update({
                "fault": self.fault,
                "survivable": self.survivable,
                "digest": self.digest,
                "end_time": self.end_time,
                "events": self.events,
                "counters": self.counters,
            })
        return out


def run_compiled(compiled: CompiledScenario, jobs: int = 1,
                 cache_dir: Optional[str] = None) -> ScenarioOutcome:
    """Execute one compiled scenario."""
    if compiled.campaign is not None:
        return _run_sweep(compiled, jobs, cache_dir)
    if compiled.mode == "baseline":
        return _run_baseline(compiled)
    return _run_explicit(compiled)


def _run_sweep(compiled: CompiledScenario, jobs: int,
               cache_dir: Optional[str]) -> ScenarioOutcome:
    report = compiled.campaign.run(jobs=jobs, cache_dir=cache_dir)
    violations = []
    failure = report.first_failure()
    if failure is not None:
        violations.append(
            f"campaign: {report.failed}/{len(report.results)} seeds "
            f"failed; first: seed {failure.seed} "
            f"({failure.plan}): {failure.violations[0]}")
    return ScenarioOutcome(
        name=compiled.name, source=compiled.source, mode="sweep",
        passed=failure is None, violations=violations,
        description=compiled.description, report=report.as_dict())


def _run_baseline(compiled: CompiledScenario) -> ScenarioOutcome:
    """Baseline mode: the recovery-design shootout (experiment F5).
    Pass criterion: every cell whose fault kind is graded survivable
    completed (all clients got all their replies)."""
    from ..baselines.designs import DESIGN_ORDER, run_shootout
    from ..faults.kinds import FAULT_REGISTRY

    spec = compiled.baseline
    report = run_shootout(
        kinds=spec["kinds"],
        designs=spec["designs"] or list(DESIGN_ORDER),
        n_clusters=compiled.doc["machine"]["clusters"],
        n_clients=spec["clients"],
        txns_per_client=spec["txns_per_client"],
        max_events=compiled.max_events)
    violations = [
        f"cell {cell.design}/{cell.kind}: {cell.replies}/"
        f"{cell.expected_replies} clients completed"
        for cell in report.cells
        if FAULT_REGISTRY.get(cell.kind).survivable
        and not cell.completed]
    return ScenarioOutcome(
        name=compiled.name, source=compiled.source, mode="baseline",
        passed=not violations, violations=violations,
        description=compiled.description, report=report.as_dict())


def _run_explicit(compiled: CompiledScenario) -> ScenarioOutcome:
    build = WORKLOAD_REGISTRY.get(compiled.workload_recipe)
    params = compiled.workload_params
    max_events = compiled.max_events

    reference = Machine(compiled.baseline_config())
    build(reference, params)
    expected, violations = run_reference(reference, max_events)
    reference.close()

    faulted = Machine(compiled.machine_config())
    pids = build(faulted, params)
    injector = FaultInjector(faulted)
    if compiled.fault_plan is not None:
        install_plan(compiled.fault_plan, injector, pids)
    violations += run_faulted(faulted, max_events, expected,
                              compiled.survivable, injector)

    counters: Dict[str, int] = {}
    if compiled.expect is not None:
        violations += _check_counters(compiled.expect["counters"],
                                      faulted, counters)

    outcome = ScenarioOutcome(
        name=compiled.name, source=compiled.source, mode="explicit",
        passed=not violations, violations=violations,
        description=compiled.description,
        fault=(compiled.fault_plan.describe()
               if compiled.fault_plan else None),
        survivable=compiled.survivable,
        digest=trace_digest(faulted), end_time=faulted.sim.now,
        events=faulted.sim.events_executed, counters=counters)
    faulted.close()
    return outcome


def _check_counters(bounds: Dict[str, Dict[str, Optional[int]]],
                    machine: Machine,
                    observed: Dict[str, int]) -> List[str]:
    violations: List[str] = []
    for counter, bound in bounds.items():
        value = machine.metrics.counter(counter)
        observed[counter] = value
        if bound["equals"] is not None and value != bound["equals"]:
            violations.append(f"counter: {counter}={value}, expected "
                              f"exactly {bound['equals']}")
        if bound["min"] is not None and value < bound["min"]:
            violations.append(f"counter: {counter}={value}, expected "
                              f">= {bound['min']}")
        if bound["max"] is not None and value > bound["max"]:
            violations.append(f"counter: {counter}={value}, expected "
                              f"<= {bound['max']}")
    return violations


# ----------------------------------------------------------------------
# corpus execution
# ----------------------------------------------------------------------

def scenario_files(path: str) -> List[str]:
    """Expand a file-or-directory path into scenario files (sorted,
    so corpus order — and therefore report order — is stable)."""
    if os.path.isdir(path):
        found = sorted(
            os.path.join(path, entry)
            for entry in os.listdir(path)
            if entry.endswith(SCENARIO_SUFFIXES))
        if not found:
            raise FileNotFoundError(
                f"{path}: no {' / '.join(SCENARIO_SUFFIXES)} "
                f"scenario files")
        return found
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path}: no such scenario file "
                                f"or directory")
    return [path]


def validate_paths(paths: List[str]) -> List[Tuple[str, Optional[str]]]:
    """Compile every file; ``(path, error-or-None)`` per file."""
    results: List[Tuple[str, Optional[str]]] = []
    for path in paths:
        try:
            load_scenario(path)
            results.append((path, None))
        except (YamlError, RegistryError, OSError) as error:
            results.append((path, str(error)))
    return results


def run_paths(paths: List[str], jobs: int = 1,
              cache_dir: Optional[str] = None) -> List[ScenarioOutcome]:
    """Run every scenario file; schema/parse errors become failed
    outcomes (mode ``"error"``) instead of aborting the corpus."""
    outcomes: List[ScenarioOutcome] = []
    for path in paths:
        try:
            compiled = load_scenario(path)
        except (YamlError, RegistryError, OSError) as error:
            outcomes.append(ScenarioOutcome(
                name=os.path.basename(path), source=path,
                mode="error", passed=False,
                violations=[str(error)]))
            continue
        outcomes.append(run_compiled(compiled, jobs=jobs,
                                     cache_dir=cache_dir))
    return outcomes


def corpus_report(outcomes: List[ScenarioOutcome]) -> Dict[str, Any]:
    """The corpus-level JSON artifact CI uploads."""
    return {
        "scenarios": len(outcomes),
        "passed": sum(1 for item in outcomes if item.passed),
        "failed": sum(1 for item in outcomes if not item.passed),
        "results": [outcome.as_dict() for outcome in outcomes],
    }
