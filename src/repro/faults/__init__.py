"""Deterministic fault-injection campaigns (see ``docs/faults.md``).

Public surface:

* :class:`FaultInjector` with schedule-driven (``crash_at``) and
  semantic (``crash_on`` + :class:`TracePoint`) fault aiming;
* trigger constructors ``nth_sync`` / ``nth_transmission`` /
  ``recovery_begin`` / ``nth_promotion``;
* :func:`run_seed` / :func:`run_campaign` — seeded scenario sweeps with
  invariant checking; ``run_campaign(jobs=N, cache_dir=D)`` shards seeds
  across the :mod:`repro.exec` process pool with byte-identical results;
* :func:`check_scenario` — the invariant battery on its own, and
  :func:`run_reference` / :func:`run_faulted` — the one run-and-judge
  policy every crash checker goes through.
"""

from .injector import (FaultInjector, InjectionRecord, TracePoint,
                       nth_promotion, nth_sync, nth_transmission,
                       recovery_begin)
from .invariants import (check_all_runnable, check_bus_fault_sanity,
                         check_external_behaviour, check_metrics_sanity,
                         check_scenario, run_faulted, run_reference)
from .kinds import (FAULT_REGISTRY, FaultKind, fault_kinds_markdown,
                    register_fault_kind)
from .campaign import (BUS_FAULT_KINDS, FAULT_KINDS, CampaignPlan,
                       CampaignReport, FaultPlan, ScenarioResult,
                       build_plan, install_plan, plan_machine_config,
                       run_campaign, run_seed, trace_digest,
                       verify_reproducibility)

__all__ = [
    "FaultInjector", "InjectionRecord", "TracePoint",
    "nth_promotion", "nth_sync", "nth_transmission", "recovery_begin",
    "check_all_runnable", "check_bus_fault_sanity",
    "check_external_behaviour", "check_metrics_sanity", "check_scenario",
    "run_faulted", "run_reference",
    "FAULT_REGISTRY", "FaultKind", "fault_kinds_markdown",
    "register_fault_kind",
    "BUS_FAULT_KINDS", "FAULT_KINDS", "CampaignPlan", "CampaignReport",
    "FaultPlan", "ScenarioResult", "build_plan", "install_plan",
    "plan_machine_config", "run_campaign", "run_seed",
    "trace_digest", "verify_reproducibility",
]
