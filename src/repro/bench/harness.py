"""Wall-clock throughput harness: events/sec as a tracked metric.

The simulator is deterministic, so *what* a run computes never changes —
but how fast the event loop turns over decides how large a fault-injection
campaign or parameter sweep is practical.  This harness pins that down as
a number: it runs a small set of canonical workloads, times them, and
reports events/sec, messages/sec and wall-clock seconds per workload.

Methodology
-----------

* Each workload is built fresh for every round; only the event-loop run is
  timed, so machine construction never pollutes the throughput number.
  For the parallel fault-campaign workload the *pool* is construction
  too: workers are spawned and warmed before the first timed round.
* Each round's machine is closed (:meth:`Machine.close`) before the
  next is built, so no finished machine is left for the cyclic
  collector to find inside a timed run, and the *minimum* over rounds
  is reported: the minimum converges on the true cost, while means
  smear scheduler and allocator noise in.
* Runs are deterministic, so every round executes the identical event
  sequence — rounds differ only in measurement noise.
* Two timer modes.  Single-process workloads use ``time.process_time()``
  (CPU time of this process — immune to wall-clock noise from other
  processes).  That methodology is *blind to child processes*: a
  campaign sharded across ``--jobs`` workers burns its CPU in children,
  where ``process_time`` cannot see it, so multi-process workloads use
  ``time.perf_counter()`` wall time instead.  ``timer="auto"`` picks
  per workload; every report records which timer produced each number.

``repro bench`` (the CLI front end) writes the report to
``BENCH_core.json`` and can compare against a committed baseline, failing
when events/sec regresses beyond a threshold; see ``docs/performance.md``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..backup.modes import BackupMode
from ..config import MachineConfig
from ..core.machine import Machine
from ..scenario.registry import EntryMetadata, Registry
from ..workloads import (MemoryChurnProgram, build_bank_workload,
                         build_pipeline)


class BenchError(Exception):
    """Raised on malformed baseline files or unknown workload names."""


@dataclass
class BenchResult:
    """Measured throughput for one workload."""

    name: str
    events: int               #: events executed per round (deterministic)
    messages: Optional[int]   #: bus transmissions (None when untracked)
    virtual_time: int         #: final virtual clock, ticks
    wall_seconds: float       #: min seconds over rounds (see ``timer``)
    rounds: int
    timer: str = "process"    #: "process" (CPU of this process) or "wall"
    #: Virtual-tick latency digests per series (``request`` /
    #: ``read_wait`` / ``queue_wait`` -> count/mean/p50/p90/p99/max);
    #: deterministic, so identical every round.
    latency: Dict[str, Dict[str, object]] = None  # type: ignore[assignment]
    #: Worker accounting for jobs-capable workloads (None elsewhere):
    #: what was asked for (0 = auto) vs what ran after the CPU clamp.
    jobs_requested: Optional[int] = None
    jobs_effective: Optional[int] = None

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def messages_per_sec(self) -> Optional[float]:
        if self.messages is None or not self.wall_seconds:
            return None
        return self.messages / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "events": self.events,
            "messages": self.messages,
            "virtual_time": self.virtual_time,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_sec": round(self.events_per_sec),
            "messages_per_sec": (round(self.messages_per_sec)
                                 if self.messages_per_sec is not None
                                 else None),
            "rounds": self.rounds,
            "timer": self.timer,
            "latency": self.latency or {},
        }
        if self.jobs_effective is not None:
            out["jobs_requested"] = self.jobs_requested
            out["jobs_effective"] = self.jobs_effective
        return out


#: timer-mode name -> clock callable.  ``process_time`` cannot observe
#: CPU burned in child processes; anything multi-process must use wall.
TIMERS: Dict[str, Callable[[], float]] = {
    "process": time.process_time,
    "wall": time.perf_counter,
}


def resolve_timer(timer: str, multiprocess: bool) -> str:
    """``auto`` picks the right clock for the workload's process shape."""
    if timer == "auto":
        return "wall" if multiprocess else "process"
    if timer not in TIMERS:
        raise BenchError(f"unknown timer {timer!r}; "
                         f"choose from {sorted(TIMERS)} or 'auto'")
    return timer


# -- canonical workloads -----------------------------------------------------
#
# Each builder returns (machine, run_callable); the harness times only the
# run_callable.  ``quick`` shrinks the workload for CI smoke runs.


def _build_oltp(quick: bool) -> Tuple[Machine, Callable[[], None]]:
    machine = Machine(MachineConfig(n_clusters=4, seed=7,
                                    trace_enabled=False))
    build_bank_workload(machine, n_clients=4,
                        txns_per_client=15 if quick else 60,
                        accounts=24, seed=7)
    return machine, lambda: machine.run_until_idle(max_events=30_000_000)


def _build_pipeline(quick: bool) -> Tuple[Machine, Callable[[], None]]:
    machine = Machine(MachineConfig(n_clusters=3, seed=7,
                                    trace_enabled=False))
    build_pipeline(machine, stages=3, items=10 if quick else 40)
    return machine, lambda: machine.run_until_idle(max_events=30_000_000)


def _build_memory_churn(quick: bool) -> Tuple[Machine, Callable[[], None]]:
    machine = Machine(MachineConfig(n_clusters=3, seed=7,
                                    trace_enabled=False))
    for _ in range(2):
        machine.spawn(MemoryChurnProgram(pages=4,
                                         rounds=30 if quick else 80,
                                         compute=2_000, total_pages=48),
                      backup_mode=BackupMode.QUARTERBACK)
    return machine, lambda: machine.run_until_idle(max_events=30_000_000)


def _latency_summaries(metrics) -> Dict[str, Dict[str, object]]:
    """Per-series latency digests from a machine's histograms (virtual
    ticks; empty series omitted)."""
    out: Dict[str, Dict[str, object]] = {}
    for key, name in (("request", "latency.request"),
                      ("read_wait", "latency.read_wait"),
                      ("queue_wait", "latency.queue_wait")):
        hist = metrics.histogram(name)
        if hist is not None and hist.count:
            out[key] = hist.summary()
    return out


def _measure_machine(build: Callable[[bool], Tuple[Machine,
                                                   Callable[[], None]]],
                     name: str, quick: bool, rounds: int,
                     timer: str = "auto") -> BenchResult:
    timer = resolve_timer(timer, multiprocess=False)
    clock = TIMERS[timer]
    best: Optional[float] = None
    machine: Optional[Machine] = None
    for _ in range(rounds):
        if machine is not None:
            machine.close()
        machine, run = build(quick)
        start = clock()
        run()
        elapsed = clock() - start
        if best is None or elapsed < best:
            best = elapsed
    assert machine is not None and best is not None
    return BenchResult(
        name=name,
        events=machine.sim.events_executed,
        messages=machine.metrics.counter("bus.transmissions"),
        virtual_time=machine.sim.now,
        wall_seconds=best,
        rounds=rounds,
        timer=timer,
        latency=_latency_summaries(machine.metrics))


def _measure_campaign(quick: bool, rounds: int, timer: str = "auto",
                      jobs: int = 1,
                      cache_dir: Optional[str] = None) -> BenchResult:
    from ..exec.pool import CampaignPool, resolve_jobs
    from ..faults import run_campaign

    seeds = range(3) if quick else range(10)
    jobs_requested = jobs
    jobs = resolve_jobs(jobs)
    jobs = min(jobs, len(seeds))
    # The campaign is a jobs-capable workload, so ``auto`` always means
    # wall clock here — even when the effective job count degrades to
    # one, so the recorded number stays comparable across hosts and the
    # timer column states the clock actually used.
    timer = resolve_timer(timer, multiprocess=True)
    if jobs > 1 and timer == "process":
        raise BenchError("process timer cannot see child-process work; "
                         "use --timer wall (or auto) with --jobs > 1")
    clock = TIMERS[timer]
    pool: Optional[CampaignPool] = None
    if jobs > 1:
        # The pool is construction, not workload: spawn and warm the
        # workers before the first timed round.
        pool = CampaignPool(jobs=jobs, n_clusters=3, cache_dir=cache_dir)
        pool.warm()
    try:
        best: Optional[float] = None
        report = None
        for _ in range(rounds):
            start = clock()
            if pool is not None:
                report = pool.run(seeds)
            else:
                report = run_campaign(seeds, n_clusters=3,
                                      cache_dir=cache_dir)
            elapsed = clock() - start
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if pool is not None:
            pool.close()
    assert report is not None and best is not None
    # The campaign builds and runs one machine per seed (plus failure-free
    # references); per-seed results record faulted-run events, end times
    # and bus transmissions, which aggregate into campaign-wide
    # events/sec and messages/sec.
    latency = {}
    summary = report.latency_summary()
    for key in ("request", "read_wait", "queue_wait"):
        if summary.get(key):
            latency[key] = summary[key]
    return BenchResult(
        name="fault-campaign",
        events=sum(result.events for result in report.results),
        messages=sum(result.transmissions for result in report.results),
        virtual_time=sum(result.end_time for result in report.results),
        wall_seconds=best,
        rounds=rounds,
        timer=timer,
        latency=latency,
        jobs_requested=jobs_requested,
        jobs_effective=jobs)


#: name -> measurement callable(quick, rounds, **options); options are
#: ``timer`` (all workloads), ``jobs``/``cache_dir`` (campaign only).
#: Registration order is report order; the CLI validates ``--workloads``
#: against this registry up front (with did-you-mean suggestions).
BENCH_REGISTRY: Registry[Callable[..., BenchResult]] = \
    Registry("bench workload")

BENCH_REGISTRY.register(
    "oltp",
    lambda quick, rounds, **options: _measure_machine(
        _build_oltp, "oltp", quick, rounds, **options),
    EntryMetadata(description="the bank workload on four clusters"))
BENCH_REGISTRY.register(
    "pipeline",
    lambda quick, rounds, **options: _measure_machine(
        _build_pipeline, "pipeline", quick, rounds, **options),
    EntryMetadata(description="three-stage relay pipeline"))
BENCH_REGISTRY.register(
    "memory-churn",
    lambda quick, rounds, **options: _measure_machine(
        _build_memory_churn, "memory-churn", quick, rounds, **options),
    EntryMetadata(description="page-dirtying sync-traffic stress"))
BENCH_REGISTRY.register(
    "fault-campaign", _measure_campaign,
    EntryMetadata(description="seeded fault-injection sweep "
                              "(jobs-capable, wall clock)"))


def check_workload_names(names: List[str]) -> None:
    """Reject unknown bench-workload names up front — raises
    :class:`BenchError` carrying the registry's did-you-mean message."""
    from ..scenario.registry import UnknownNameError
    try:
        BENCH_REGISTRY.check_names(names)
    except UnknownNameError as error:
        raise BenchError(str(error)) from None


def run_suite(quick: bool = False, rounds: Optional[int] = None,
              workloads: Optional[List[str]] = None,
              timer: str = "auto", jobs: int = 1,
              cache_dir: Optional[str] = None) -> List[BenchResult]:
    """Measure every requested workload; defaults to all of them.

    ``jobs``/``cache_dir`` parameterize the fault-campaign workload's
    parallel execution engine (``0`` jobs = one worker per CPU);
    ``timer="auto"`` times single-process workloads with
    ``process_time`` and multi-process ones with wall clock.
    """
    names = (list(BENCH_REGISTRY.names()) if workloads is None
             else workloads)
    check_workload_names(names)
    effective_rounds = rounds if rounds is not None else (2 if quick else 5)
    results = []
    for name in names:
        measure = BENCH_REGISTRY.get(name)
        options: Dict[str, object] = {"timer": timer}
        if name == "fault-campaign":
            options["jobs"] = jobs
            options["cache_dir"] = cache_dir
        results.append(measure(quick, effective_rounds, **options))
    return results


# -- reports and baselines ---------------------------------------------------


def report_dict(results: List[BenchResult],
                quick: bool = False) -> Dict[str, object]:
    return {
        "schema": "repro-bench/1",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {result.name: result.as_dict() for result in results},
    }


def write_report(results: List[BenchResult], path: str,
                 quick: bool = False) -> None:
    with open(path, "w") as handle:
        json.dump(report_dict(results, quick=quick), handle, indent=2)
        handle.write("\n")


def load_report(path: str) -> Dict[str, object]:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "workloads" not in data:
        raise BenchError(f"{path}: not a bench report (no 'workloads' key)")
    return data


def compare_to_baseline(results: List[BenchResult],
                        baseline: Dict[str, object],
                        threshold: float = 0.25
                        ) -> List[Tuple[str, float, float, float]]:
    """Return one (name, current, baseline, drop) tuple per workload whose
    events/sec fell more than ``threshold`` below the baseline.

    Workloads absent from the baseline are skipped: a baseline committed
    before a new workload was added must not fail the comparison.
    """
    regressions = []
    workloads = baseline["workloads"]
    if not isinstance(workloads, dict):
        raise BenchError("baseline 'workloads' must be a mapping")
    for result in results:
        entry = workloads.get(result.name)
        if not entry:
            continue
        base_eps = float(entry["events_per_sec"])
        if base_eps <= 0:
            continue
        drop = 1.0 - result.events_per_sec / base_eps
        if drop > threshold:
            regressions.append((result.name, result.events_per_sec,
                                base_eps, drop))
    return regressions
