"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — the quickstart scenario: crash a cluster mid-run and
  show the terminal output matching the failure-free run.
* ``topology``  — render the section 7.1 architecture figure.
* ``oltp``      — the bank workload with a fullback server crash.
* ``overhead``  — the E1 failure-free overhead comparison table.
* ``campaign``  — a seeded fault-injection sweep: N scenarios with
  crashes at schedule-driven and semantic trigger points, invariant
  checks after each, pass/fail + recovery-latency aggregation, optional
  JSON report; ``--jobs`` shards seeds across a process pool and
  ``--cache-dir`` memoizes failure-free reference runs (see
  ``docs/faults.md``).
* ``scenario``  — the declarative YAML scenario subsystem:
  ``scenario run`` executes a file or corpus directory (honoring
  ``--jobs`` and the reference cache), ``scenario validate``
  schema-checks without running, ``scenario list`` shows every
  registered workload recipe and fault kind (see ``docs/scenarios.md``).

Every command accepts ``--clusters N`` and ``--seed S`` where meaningful.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import BackupMode, Machine, MachineConfig
from .baselines import compare_regimes
from .config import BusFaultConfig, ConfigError
from .hardware.topology import Topology
from .metrics import format_table
from .workloads import (MemoryChurnProgram, TtyWriterProgram,
                        build_bank_workload)


def cmd_demo(args: argparse.Namespace) -> int:
    def run(crash_at: Optional[int]) -> Machine:
        machine = Machine(args.config)
        machine.spawn(TtyWriterProgram(lines=12, tag="demo",
                                       compute=2_000),
                      cluster=args.clusters - 1, sync_reads_threshold=3)
        if crash_at is not None:
            machine.crash_cluster(args.clusters - 1, at=crash_at)
        machine.run_until_idle()
        return machine

    baseline = run(None)
    crashed = run(15_000)
    print("failure-free output: ", baseline.tty_output())
    print("crashed-run output:  ", crashed.tty_output())
    same = baseline.tty_output() == crashed.tty_output()
    print(f"identical: {same}  "
          f"(promotions={crashed.metrics.counter('recovery.promotions')}, "
          f"suppressed="
          f"{crashed.metrics.counter('recovery.sends_suppressed')})")
    return 0 if same else 1


def cmd_topology(args: argparse.Namespace) -> int:
    print(Topology.default(args.config).render())
    return 0


def cmd_oltp(args: argparse.Namespace) -> int:
    machine = Machine(args.config)
    if args.clusters < 3:
        print("oltp demo needs >= 3 clusters (fullback server)")
        return 2
    server, clients, _ = build_bank_workload(
        machine, n_clients=3, txns_per_client=8, seed=args.seed,
        server_mode=BackupMode.FULLBACK, server_cluster=2)
    machine.crash_cluster(2, at=8_000)
    machine.run_until_idle(max_events=30_000_000)
    done = all(machine.exits.get(pid) == 0 for pid in clients)
    print(f"server crash at 8ms: all {len(clients)} clients finished "
          f"with exactly-once replies: {done}")
    return 0 if done else 1


def cmd_overhead(args: argparse.Namespace) -> int:
    def programs() -> List:
        return [MemoryChurnProgram(pages=4, rounds=30, compute=2_000,
                                   total_pages=48) for _ in range(2)]

    results = compare_regimes(programs, args.config,
                              sync_time_threshold=15_000,
                              checkpoint_every=8)
    floor = results[0]
    rows = [[r.regime, r.completion_time,
             f"{r.overhead_vs(floor) * 100:.1f}%", r.work_busy,
             r.bus_bytes] for r in results]
    print(format_table(
        ["regime", "completion", "overhead", "work busy", "bus bytes"],
        rows, title="Failure-free overhead (experiment E1)"))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .faults import run_campaign, run_seed
    from .faults.kinds import FAULT_REGISTRY
    from .scenario.registry import suggest

    kinds = None
    if args.kinds:
        kinds = tuple(kind.strip() for kind in args.kinds.split(",")
                      if kind.strip())
        unknown = [kind for kind in kinds if kind not in FAULT_REGISTRY]
        if unknown:
            known = FAULT_REGISTRY.names()
            named = []
            for kind in unknown:
                hint = suggest(kind, known)
                named.append(kind + (f" (did you mean {hint!r}?)"
                                     if hint else ""))
            print(f"unknown fault kinds: {', '.join(named)}; "
                  f"known: {', '.join(known)}")
            return 2
    cache_dir = args.cache_dir or None
    seeds = range(args.base_seed, args.base_seed + args.seeds)
    report = run_campaign(seeds, n_clusters=args.clusters, kinds=kinds,
                          loss_rate=args.loss_rate,
                          garble_rate=args.garble_rate,
                          jobs=args.jobs, cache_dir=cache_dir)
    rows = []
    for result in report.results:
        latencies = result.recovery_latencies
        rows.append([
            result.seed, result.kind,
            "yes" if result.survivable else "no",
            len(result.injected),
            "PASS" if result.passed else "FAIL",
            result.promotions, result.aborted_transmissions,
            result.retransmissions, result.failovers,
            (f"{sum(latencies) / len(latencies):.0f}" if latencies
             else "-"),
        ])
    print(format_table(
        ["seed", "fault class", "survivable", "faults fired", "result",
         "promotions", "aborted tx", "retx", "failovers",
         "mean recovery (ticks)"],
        rows, title=f"Fault-injection campaign: {len(report.results)} "
                    f"seeded scenarios on {args.clusters} clusters"))
    pooled = report.pooled_recovery_latencies()
    print(f"\n{report.passed}/{len(report.results)} scenarios passed; "
          f"fault classes covered: {report.kinds_covered()}")
    requested = report.jobs_requested
    clamp_note = (f" (requested {requested}, clamped to the CPU count)"
                  if requested and requested != report.jobs else "")
    print(f"executed with {report.jobs} worker(s){clamp_note}"
          + (f"; reference cache: {report.cache_hits} hits / "
             f"{report.cache_misses} misses in {cache_dir}"
             if cache_dir else ""))
    if pooled:
        print(f"recovery latency over {len(pooled)} crash handlings: "
              f"min={min(pooled)} mean={sum(pooled) / len(pooled):.0f} "
              f"max={max(pooled)} ticks")
    latency = report.latency_summary()
    request = latency.get("request")
    if request:
        print(f"request latency under fault over {request['count']} "
              f"round trips: p50={request['p50']} p90={request['p90']} "
              f"p99={request['p99']} max={request['max']} ticks")
        curve = latency.get("request_p99_by_kind") or {}
        points = ", ".join(f"{kind}={p99}" for kind, p99 in curve.items()
                           if p99 is not None)
        if points:
            print(f"request p99 by fault kind: {points}")
    queue_wait = latency.get("queue_wait")
    if queue_wait:
        print(f"queue wait over {queue_wait['count']} consumed messages: "
              f"p50={queue_wait['p50']} p99={queue_wait['p99']} ticks")

    cache = None
    if cache_dir:
        from .exec.refcache import ReferenceCache
        cache = ReferenceCache(cache_dir)
    verified = True
    for seed in seeds[:args.verify]:
        digest = report.results[seed - args.base_seed].digest
        redo = run_seed(seed, n_clusters=args.clusters, kinds=kinds,
                        loss_rate=args.loss_rate,
                        garble_rate=args.garble_rate,
                        cache=cache)
        same = redo.digest == digest
        verified &= same
        print(f"determinism: seed {seed} re-run trace "
              f"{'matches byte-for-byte' if same else 'DIVERGED'}")

    failure = report.first_failure()
    if failure is not None:
        print(f"\nfirst failing seed {failure.seed} "
              f"({failure.plan}); injected: {failure.injected}")
        for violation in failure.violations:
            print(f"  violation: {violation}")
        print(f"  trace tail ({len(failure.trace_tail)} records):")
        for line in failure.trace_tail:
            print(f"    {line}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"\nJSON report written to {args.json}")
    return 0 if failure is None and verified else 1


def cmd_scenario_run(args: argparse.Namespace) -> int:
    from .scenario.runner import corpus_report, run_paths, scenario_files

    try:
        paths = scenario_files(args.path)
    except FileNotFoundError as error:
        print(error)
        return 2
    outcomes = run_paths(paths, jobs=args.jobs,
                         cache_dir=args.cache_dir or None)
    rows = []
    for outcome in outcomes:
        if outcome.mode == "sweep":
            report = outcome.report or {}
            detail = (f"{report.get('passed', 0)}/"
                      f"{report.get('scenarios', 0)} seeds")
        elif outcome.mode == "explicit":
            detail = outcome.fault or "failure-free"
        elif outcome.mode == "baseline":
            report = outcome.report or {}
            detail = (f"{len(report.get('designs') or ())} designs x "
                      f"{len(report.get('kinds') or ())} kinds")
        else:
            detail = "schema/parse error"
        rows.append([outcome.name, outcome.mode,
                     "PASS" if outcome.passed else "FAIL", detail])
    print(format_table(
        ["scenario", "mode", "result", "detail"], rows,
        title=f"Scenario corpus: {len(outcomes)} scenarios"))
    failed = [outcome for outcome in outcomes if not outcome.passed]
    for outcome in failed:
        print(f"\nFAIL {outcome.source}:")
        for violation in outcome.violations:
            print(f"  {violation}")
    print(f"\n{len(outcomes) - len(failed)}/{len(outcomes)} "
          f"scenarios passed")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(corpus_report(outcomes), handle, indent=2)
            handle.write("\n")
        print(f"JSON report written to {args.json}")
    return 1 if failed else 0


def cmd_scenario_validate(args: argparse.Namespace) -> int:
    from .scenario.runner import scenario_files, validate_paths

    try:
        paths = scenario_files(args.path)
    except FileNotFoundError as error:
        print(error)
        return 2
    results = validate_paths(paths)
    bad = 0
    for path, error in results:
        if error is None:
            print(f"ok    {path}")
        else:
            bad += 1
            print(f"ERROR {path}\n      {error}")
    print(f"\n{len(results) - bad}/{len(results)} scenario files valid")
    return 2 if bad else 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    from .faults.kinds import FAULT_REGISTRY
    from .scenario.registry import Registry
    from .scenario.workloads import WORKLOAD_REGISTRY

    def show(title: str, registry: Registry) -> None:
        print(f"{title}:")
        for name, _, metadata in registry.items():
            print(f"  {name:<22} {metadata.description}")
            if args.params:
                for key, spec in metadata.params.items():
                    required = ("required" if spec.required
                                else f"default {spec.default!r}")
                    choices = (f"; one of {', '.join(map(str, spec.choices))}"
                               if spec.choices else "")
                    print(f"    {key:<22} {spec.type_name()}, "
                          f"{required}{choices} — {spec.description}")
        print()

    show("workload recipes (workload: recipe:)", WORKLOAD_REGISTRY)
    show("fault kinds (fault: kind: / sweep: kinds:)", FAULT_REGISTRY)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--clusters", type=int, default=3)
    common.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auragen message-system fault tolerance (SOSP 1983) "
                    "reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("demo", cmd_demo), ("topology", cmd_topology),
                     ("oltp", cmd_oltp), ("overhead", cmd_overhead)):
        command = sub.add_parser(name, parents=[common])
        command.set_defaults(fn=fn)
    campaign = sub.add_parser("campaign", parents=[common])
    campaign.add_argument("--seeds", type=int, default=25,
                          help="number of scenarios to run")
    campaign.add_argument("--base-seed", type=int, default=0,
                          help="first seed of the sweep")
    campaign.add_argument("--json", type=str, default="",
                          help="write the aggregated report to this path")
    campaign.add_argument("--verify", type=int, default=1,
                          help="re-run the first K seeds and check the "
                               "trace reproduces byte-for-byte")
    campaign.add_argument("--kinds", type=str, default="",
                          help="comma-separated fault-kind subset to "
                               "stratify over (default: all kinds)")
    campaign.add_argument("--loss-rate", type=float, default=None,
                          help="bus loss rate laid under every scenario "
                               "(degraded-bus mode)")
    campaign.add_argument("--garble-rate", type=float, default=None,
                          help="bus garble rate laid under every "
                               "scenario")
    campaign.add_argument("--jobs", type=int, default=0,
                          help="worker processes for the sweep "
                               "(default 0 = one per CPU; 1 = serial)")
    campaign.add_argument("--cache-dir", type=str, default="",
                          help="directory memoizing failure-free "
                               "reference runs across seeds, workers "
                               "and invocations")
    campaign.set_defaults(fn=cmd_campaign)
    scenario = sub.add_parser(
        "scenario",
        help="declarative YAML scenarios (see docs/scenarios.md)")
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)
    scenario_run = scenario_sub.add_parser(
        "run", help="execute one scenario file or a corpus directory")
    scenario_run.add_argument("path",
                              help="scenario .yaml file or directory")
    scenario_run.add_argument("--jobs", type=int, default=1,
                              help="worker processes for sweep-mode "
                                   "scenarios (0 = one per CPU)")
    scenario_run.add_argument("--cache-dir", type=str, default="",
                              help="reference-cache directory shared "
                                   "across sweep scenarios")
    scenario_run.add_argument("--json", type=str, default="",
                              help="write the corpus report here")
    scenario_run.set_defaults(fn=cmd_scenario_run)
    scenario_validate = scenario_sub.add_parser(
        "validate", help="schema-check scenario files without running")
    scenario_validate.add_argument("path",
                                   help="scenario .yaml file or "
                                        "directory")
    scenario_validate.set_defaults(fn=cmd_scenario_validate)
    scenario_list = scenario_sub.add_parser(
        "list", help="list registered workload recipes and fault kinds")
    scenario_list.add_argument("--params", action="store_true",
                               help="show each entry's parameter schema")
    scenario_list.set_defaults(fn=cmd_scenario_list)
    args = parser.parse_args(argv)
    if hasattr(args, "clusters"):
        # The one machine config, checked before any command runs or any
        # campaign worker starts: a bad value is a usage error (exit 2).
        try:
            args.config = MachineConfig(
                n_clusters=args.clusters, seed=args.seed,
                trace_enabled=False, bus_faults=BusFaultConfig(
                    loss_rate=getattr(args, "loss_rate", None) or 0.0,
                    garble_rate=getattr(args, "garble_rate", None) or 0.0,
                )).validate()
        except ConfigError as exc:
            parser.error(str(exc))
    if args.command == "campaign":
        if args.seeds < 1:
            parser.error(f"--seeds must be >= 1, got {args.seeds}")
        if args.verify < 0:
            parser.error(f"--verify must be >= 0, got {args.verify}")
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
