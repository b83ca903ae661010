"""Seeded fault-injection campaigns: many scenarios, one integer each.

A campaign sweeps seeds; every seed expands deterministically — via
:class:`~repro.sim.rng.DeterministicRNG` fork streams — into

1. a random workload (the generator behind the property tests), and
2. a :class:`FaultPlan`: which fault class, aimed where, triggered when.

Fault classes are stratified by seed (``seed % len(FAULT_KINDS)``), so
any sweep of N >= len(FAULT_KINDS) consecutive seeds covers every class:
crashes at arbitrary times, crashes *during a sync*, crashes mid bus
transmission, double faults that kill the recovering cluster while its
recovery is in progress, individual process failures, crash-then-restore
cycles, degraded-bus scenarios (seeded loss/garble rates on the dual
bus, including rates high enough to force a failover), and compound
plans — double crashes, a crash landing during another crash's
recovery, and a drive failure paired with a cluster crash.

A sweep can be restricted (``kinds=...``) or given blanket bus-fault
rates (``loss_rate=`` / ``garble_rate=``) that apply *on top of* any
plan — crash faults on a degraded bus are exactly the compound mode the
CI smoke matrix runs.

Each scenario runs twice — failure-free and faulted — and the invariant
checkers (:mod:`repro.faults.invariants`) compare them.  The faulted
run's full trace is hashed into a digest, so "re-running seed S
reproduces the scenario byte-for-byte" is a checkable claim, not a hope.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (Any, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from ..config import BusFaultConfig, MachineConfig
from ..core.machine import Machine
from ..metrics.histogram import LogHistogram
from ..sim.events import SimulationError
from ..sim.rng import DeterministicRNG
from ..types import Pid
from ..workloads.generator import generate_scenario
from .injector import FaultInjector
from .invariants import check_scenario
from .kinds import (BOOT_GRACE, FAULT_REGISTRY, bus_fault_kind_names,
                    fault_kind_names)

if TYPE_CHECKING:  # pragma: no cover - the exec package imports us
    from ..exec.refcache import ReferenceCache

#: The fault classes a campaign draws from, in stratification order —
#: derived from the registry (:mod:`repro.faults.kinds`), where each
#: class's build/install/describe hooks and metadata live.  The
#: original six keep their positions so historical seed -> scenario
#: mappings stay stable; the bus and compound classes extend the cycle.
FAULT_KINDS = fault_kind_names()

#: Classes whose fault lives in the machine config (the bus fault
#: layer), not in the injector.
BUS_FAULT_KINDS = bus_fault_kind_names()

#: Event budget per scenario run; a run that exhausts it is reported as
#: a violation (the simulation livelocked), not an exception.
MAX_EVENTS = 40_000_000


@dataclass(frozen=True)
class FaultPlan:
    """One scenario's fault schedule, fully determined by its seed."""

    kind: str
    #: Opaque, deterministic parameters interpreted by :func:`install_plan`.
    params: Dict[str, Any]
    #: Single-fault plans are survivable: exact external equivalence is
    #: required.  Double faults only promise safety (see invariants).
    survivable: bool

    def describe(self) -> str:
        inner = " ".join(f"{key}={value}"
                         for key, value in sorted(self.params.items()))
        return f"{self.kind}({inner})"

    def components(self) -> List[Dict[str, Any]]:
        """The individual faults this plan comprises, in injection
        order — one entry for simple kinds, several for compound kinds.
        ``fault`` names the injector record kind each component should
        produce (``"bus"`` components are configured, not injected)."""
        return FAULT_REGISTRY.get(self.kind).components(self.params)


def build_plan(rng: DeterministicRNG, kind: str,
               n_clusters: int) -> FaultPlan:
    """Expand one fault class into concrete, seeded aim points.

    The shared ``victim``/``when`` draws happen before dispatching to
    the registered kind's ``build`` hook, so every kind consumes the
    fork stream in its historical order — seed -> scenario mappings
    are stable across the registry refactor.
    """
    victim = rng.randint(0, n_clusters - 1)
    when = rng.randint(2_000, 60_000)
    entry = FAULT_REGISTRY.get(kind)
    return FaultPlan(kind, entry.build(rng, victim, when, n_clusters),
                     entry.survivable)


def install_plan(plan: FaultPlan, injector: FaultInjector,
                 pids: Sequence[Pid]) -> None:
    """Arm a plan's faults on a freshly built machine.  Bus kinds are
    no-ops here: their fault lives in the machine config
    (:func:`plan_machine_config`)."""
    FAULT_REGISTRY.get(plan.kind).install(plan.params, injector, pids)


def plan_machine_config(plan: FaultPlan, n_clusters: int, seed: int,
                        loss_rate: Optional[float] = None,
                        garble_rate: Optional[float] = None
                        ) -> MachineConfig:
    """Machine configuration for a plan's faulted run.  Bus-fault plans
    carry their rates and stream seed; ``loss_rate``/``garble_rate``
    overrides lay a degraded bus under *any* plan (the compound smoke
    mode)."""
    config = MachineConfig(n_clusters=n_clusters, trace_enabled=True)
    params = plan.params
    bus = BusFaultConfig()
    if plan.kind in BUS_FAULT_KINDS:
        bus.loss_rate = params.get("loss_rate", 0.0)
        bus.garble_rate = params.get("garble_rate", 0.0)
        bus.seed = params.get("bus_seed", seed)
    if loss_rate is not None:
        bus.loss_rate = loss_rate
    if garble_rate is not None:
        bus.garble_rate = garble_rate
    if bus.enabled and "bus_seed" not in params:
        bus.seed = seed  # overrides on a non-bus plan: seed by scenario
    config.bus_faults = bus
    return config


@dataclass(frozen=True)
class CampaignPlan:
    """A fully specified seed sweep: what :func:`run_campaign` runs.

    This is the compile target of sweep-mode declarative scenarios
    (:mod:`repro.scenario.compile`): a scenario file and a hand-built
    plan with the same fields produce **byte-identical** reports,
    because both funnel through the same :func:`run_campaign` call.
    Execution knobs (``jobs``, ``cache_dir``) stay out of the plan —
    they cannot change the report, only how fast it is produced.
    """

    seeds: Tuple[int, ...]
    n_clusters: int = 3
    #: Stratification subset (None = all of :data:`FAULT_KINDS`).
    kinds: Optional[Tuple[str, ...]] = None
    #: Blanket degraded-bus overlay laid under every scenario.
    loss_rate: Optional[float] = None
    garble_rate: Optional[float] = None
    max_events: int = MAX_EVENTS

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.kinds is not None:
            object.__setattr__(self, "kinds", tuple(self.kinds))
            FAULT_REGISTRY.check_names(self.kinds)

    def describe(self) -> str:
        kinds = ",".join(self.kinds) if self.kinds else "all"
        overlay = "".join(
            f" {name}={rate}" for name, rate in
            (("loss", self.loss_rate), ("garble", self.garble_rate))
            if rate is not None)
        return (f"{len(self.seeds)} seeds on {self.n_clusters} "
                f"clusters, kinds={kinds}{overlay}")

    def run(self, jobs: int = 1,
            cache_dir: Optional[str] = None) -> "CampaignReport":
        """Execute the sweep; identical output for any ``jobs``."""
        return run_campaign(self.seeds, n_clusters=self.n_clusters,
                            max_events=self.max_events,
                            kinds=self.kinds, loss_rate=self.loss_rate,
                            garble_rate=self.garble_rate, jobs=jobs,
                            cache_dir=cache_dir)


# ----------------------------------------------------------------------
# one seed
# ----------------------------------------------------------------------

@dataclass
class ScenarioResult:
    """Outcome of one seeded scenario."""

    seed: int
    kind: str
    plan: str
    survivable: bool
    passed: bool
    violations: List[str] = field(default_factory=list)
    injected: List[str] = field(default_factory=list)
    digest: str = ""
    end_time: int = 0
    events: int = 0
    promotions: int = 0
    server_promotions: int = 0
    aborted_transmissions: int = 0
    transmissions: int = 0
    retransmissions: int = 0
    duplicates_suppressed: int = 0
    failovers: int = 0
    #: Per-fault outcome of each plan component (compound plans have
    #: several): planned aim point, whether it was delivered, and when.
    fault_outcomes: List[Dict[str, Any]] = field(default_factory=list)
    recovery_latencies: List[int] = field(default_factory=list)
    #: Latency histograms of the *faulted* run, serialized
    #: (:meth:`~repro.metrics.histogram.LogHistogram.as_dict`) — keys
    #: ``request`` / ``queue_wait`` / ``read_wait``.  Deterministic per
    #: seed, so reports carrying them stay byte-identical across
    #: serial, parallel and cached executions.
    latency: Dict[str, Any] = field(default_factory=dict)
    trace_tail: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed, "kind": self.kind, "plan": self.plan,
            "survivable": self.survivable, "passed": self.passed,
            "violations": self.violations, "injected": self.injected,
            "digest": self.digest, "end_time": self.end_time,
            "events": self.events, "promotions": self.promotions,
            "server_promotions": self.server_promotions,
            "aborted_transmissions": self.aborted_transmissions,
            "transmissions": self.transmissions,
            "retransmissions": self.retransmissions,
            "duplicates_suppressed": self.duplicates_suppressed,
            "failovers": self.failovers,
            "fault_outcomes": self.fault_outcomes,
            "recovery_latencies": self.recovery_latencies,
            "latency": self.latency,
        }


#: ScenarioResult.latency key -> MetricSet histogram name.
LATENCY_SERIES = (("request", "latency.request"),
                  ("queue_wait", "latency.queue_wait"),
                  ("read_wait", "latency.read_wait"))


def latency_histograms(machine: Machine) -> Dict[str, Any]:
    """The machine's latency histograms, serialized; empty series are
    omitted so the dict stays compact."""
    out: Dict[str, Any] = {}
    for key, name in LATENCY_SERIES:
        hist = machine.metrics.histogram(name)
        if hist is not None and hist.count:
            out[key] = hist.as_dict()
    return out


def trace_digest(machine: Machine) -> str:
    """SHA-256 over every formatted trace record: the byte-for-byte
    reproducibility witness for a scenario."""
    hasher = hashlib.sha256()
    for line in machine.trace.lines():
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _fault_outcomes(plan: FaultPlan, injector: FaultInjector,
                    machine: Machine) -> List[Dict[str, Any]]:
    """Match each plan component against what was actually delivered:
    injector records for crash/restore/procfail/drive_fail components,
    bus-fault counters for configured bus components."""
    outcomes: List[Dict[str, Any]] = []
    records = list(injector.injected)
    used = [False] * len(records)
    metrics = machine.metrics
    for component in plan.components():
        entry = dict(component)
        entry["delivered"] = False
        entry["time"] = None
        if component["fault"] == "bus":
            faults = sum(metrics.counter(f"bus.faults.{kind}")
                         for kind in ("loss", "ack_loss", "garble"))
            entry["delivered"] = faults > 0
            entry["bus_faults"] = faults
            entry["retransmissions"] = metrics.counter(
                "bus.retransmissions")
            entry["failovers"] = metrics.counter("bus.failovers")
        else:
            for index, record in enumerate(records):
                if not used[index] and record.kind == component["fault"]:
                    used[index] = True
                    entry["delivered"] = True
                    entry["time"] = record.time
                    entry["detail"] = dict(record.detail)
                    break
        outcomes.append(entry)
    return outcomes


def run_seed(seed: int, n_clusters: int = 3,
             max_events: int = MAX_EVENTS,
             tail_lines: int = 40,
             kinds: Optional[Sequence[str]] = None,
             loss_rate: Optional[float] = None,
             garble_rate: Optional[float] = None,
             cache: Optional["ReferenceCache"] = None) -> ScenarioResult:
    """Run one complete scenario: generate, run failure-free, run
    faulted, check invariants.

    ``kinds`` restricts the stratification cycle to a subset of
    :data:`FAULT_KINDS`; ``loss_rate``/``garble_rate`` lay a degraded
    bus under the faulted run regardless of the plan's kind.  ``cache``
    memoizes the failure-free reference observable on disk
    (:class:`repro.exec.refcache.ReferenceCache`) — a hit skips the
    reference run entirely and cannot change any verdict, because the
    observable is all the invariants consume from the reference.
    """
    root = DeterministicRNG(seed)
    workload_rng = root.fork("workload")
    fault_rng = root.fork("faults")
    kind_cycle = tuple(kinds) if kinds else FAULT_KINDS
    kind = kind_cycle[seed % len(kind_cycle)]
    plan = build_plan(fault_rng, kind, n_clusters)
    scenario = generate_scenario(workload_rng.seed, n_clusters=n_clusters)

    from ..exec.refcache import reference_observable
    violations: List[str] = []
    try:
        baseline = reference_observable(scenario, max_events, cache)
    except SimulationError as error:
        # The failure-free reference itself exhausted the budget: there
        # is nothing to judge the faulted run against (and nothing was
        # cached), so the seed fails with the reason instead.
        baseline = None
        violations.append(f"reference run: {error}")

    faulted = Machine(plan_machine_config(plan, n_clusters, seed,
                                          loss_rate=loss_rate,
                                          garble_rate=garble_rate))
    pids = scenario.build(faulted)
    injector = FaultInjector(faulted)
    install_plan(plan, injector, pids)

    try:
        faulted.run_until_idle(max_events=max_events)
    except SimulationError as error:
        violations.append(f"simulation: {error}")
    if baseline is not None:
        violations += check_scenario(baseline, faulted, plan.survivable,
                                     injector.crashes_delivered())

    result = ScenarioResult(
        seed=seed, kind=kind, plan=plan.describe(),
        survivable=plan.survivable, passed=not violations,
        violations=violations,
        injected=injector.describe_injected(),
        digest=trace_digest(faulted),
        end_time=faulted.sim.now,
        events=faulted.sim.events_executed,
        promotions=faulted.metrics.counter("recovery.promotions"),
        server_promotions=faulted.metrics.counter("server.promotions"),
        aborted_transmissions=faulted.metrics.counter(
            "bus.aborted_transmissions"),
        transmissions=faulted.metrics.counter("bus.transmissions"),
        retransmissions=faulted.metrics.counter("bus.retransmissions"),
        duplicates_suppressed=faulted.metrics.counter(
            "bus.duplicates_suppressed"),
        failovers=faulted.metrics.counter("bus.failovers"),
        fault_outcomes=_fault_outcomes(plan, injector, faulted),
        recovery_latencies=faulted.metrics.series(
            "recovery.crash_handle_latency"),
        latency=latency_histograms(faulted))
    if violations:
        result.trace_tail = faulted.trace.tail(tail_lines)
    faulted.close()
    return result


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------

@dataclass
class CampaignReport:
    """Aggregated outcome of a seed sweep.

    ``jobs`` and the reference-cache counters describe *how* the sweep
    executed; they are deliberately excluded from :meth:`as_dict`, so
    the serialized report stays byte-identical across serial, parallel
    and warm-cache runs of the same seeds (the determinism gate).
    """

    n_clusters: int
    results: List[ScenarioResult] = field(default_factory=list)
    jobs: int = 1
    #: What the caller asked for before :func:`repro.exec.pool.resolve_jobs`
    #: clamped it (``None``/``0`` = auto).  Execution metadata like
    #: ``jobs``: excluded from :meth:`as_dict`.
    jobs_requested: Optional[int] = None
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def passed(self) -> int:
        return sum(1 for result in self.results if result.passed)

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed

    def first_failure(self) -> Optional[ScenarioResult]:
        for result in self.results:
            if not result.passed:
                return result
        return None

    def kinds_covered(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.kind] = counts.get(result.kind, 0) + 1
        return counts

    def pooled_recovery_latencies(self) -> List[int]:
        pooled: List[int] = []
        for result in self.results:
            pooled.extend(result.recovery_latencies)
        return pooled

    def merged_latency(self, series: str = "request",
                       kind: Optional[str] = None) -> LogHistogram:
        """Merge one latency series across scenarios (optionally one
        fault kind).  Histogram merge is exact and order-independent,
        and results are already in seed order, so the aggregate is
        byte-identical however the sweep executed."""
        merged = LogHistogram()
        for result in self.results:
            if kind is not None and result.kind != kind:
                continue
            data = result.latency.get(series)
            if data:
                merged.merge(LogHistogram.from_dict(data))
        return merged

    def latency_summary(self) -> Dict[str, Any]:
        """Campaign-wide latency digest: per-series percentiles over
        every faulted run, plus the latency-under-fault curve (request
        p99 per fault kind)."""
        out: Dict[str, Any] = {}
        for series, _ in LATENCY_SERIES:
            merged = self.merged_latency(series)
            out[series] = merged.summary() if merged.count else None
        curve: Dict[str, Any] = {}
        for kind in sorted(self.kinds_covered()):
            merged = self.merged_latency("request", kind=kind)
            # Kinds whose scenarios complete no round trip (e.g. a
            # crash before any reply) are omitted, not published null.
            if merged.count:
                curve[kind] = merged.percentile(99)
        out["request_p99_by_kind"] = curve
        return out

    def as_dict(self) -> Dict[str, Any]:
        latencies = self.pooled_recovery_latencies()
        return {
            "n_clusters": self.n_clusters,
            "scenarios": len(self.results),
            "passed": self.passed,
            "failed": self.failed,
            "kinds": self.kinds_covered(),
            "recovery_latency": {
                "samples": len(latencies),
                "min": min(latencies) if latencies else None,
                "max": max(latencies) if latencies else None,
                "mean": (sum(latencies) / len(latencies))
                        if latencies else None,
            },
            "latency": self.latency_summary(),
            "results": [result.as_dict() for result in self.results],
        }


def run_campaign(seeds: Sequence[int], n_clusters: int = 3,
                 max_events: int = MAX_EVENTS,
                 kinds: Optional[Sequence[str]] = None,
                 loss_rate: Optional[float] = None,
                 garble_rate: Optional[float] = None,
                 jobs: int = 1,
                 cache_dir: Optional[str] = None) -> CampaignReport:
    """Run every seed and aggregate.

    ``jobs`` > 1 shards the seeds across a spawn-safe process pool
    (``0``/``None`` means one worker per CPU; explicit counts are
    clamped to the CPU count, and an effective count of one runs
    serially in-process with no pool spawned); the merged report is
    byte-identical to a serial run (:mod:`repro.exec.pool`).
    ``cache_dir`` memoizes failure-free reference runs on disk, shared
    across workers and across invocations.
    """
    from ..exec.pool import resolve_jobs
    requested = jobs
    jobs = resolve_jobs(jobs)
    if jobs > 1 and len(seeds) > 1:
        from ..exec.pool import run_campaign_parallel
        return run_campaign_parallel(seeds, n_clusters=n_clusters,
                                     max_events=max_events, kinds=kinds,
                                     loss_rate=loss_rate,
                                     garble_rate=garble_rate,
                                     jobs=requested,
                                     cache_dir=cache_dir)
    cache = None
    if cache_dir:
        from ..exec.refcache import ReferenceCache
        cache = ReferenceCache(cache_dir)
    report = CampaignReport(n_clusters=n_clusters,
                            jobs_requested=requested)
    for seed in seeds:
        report.results.append(run_seed(seed, n_clusters=n_clusters,
                                       max_events=max_events, kinds=kinds,
                                       loss_rate=loss_rate,
                                       garble_rate=garble_rate,
                                       cache=cache))
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
    return report


def verify_reproducibility(seed: int, n_clusters: int = 3,
                           kinds: Optional[Sequence[str]] = None,
                           loss_rate: Optional[float] = None,
                           garble_rate: Optional[float] = None) -> bool:
    """Re-run ``seed`` twice; True iff the traces match byte-for-byte."""
    first = run_seed(seed, n_clusters=n_clusters, kinds=kinds,
                     loss_rate=loss_rate, garble_rate=garble_rate)
    second = run_seed(seed, n_clusters=n_clusters, kinds=kinds,
                      loss_rate=loss_rate, garble_rate=garble_rate)
    return first.digest == second.digest and first.digest != ""
