"""perfbench: the repo's benchmark.  See perfbench/README.md.

Two ways in, one measuring path:

* ``python3 perfbench/run.py [--seed S] [--repeats N] [--workloads a,b]
  [--out FILE] [--smoke]`` runs every workload round-robin (round r runs
  each workload once, then round r+1), then one traced run per workload,
  then the probes; checks every output; prints every metric by name with
  its unit; ``--out`` writes the JSON that ``compare.py`` reads.
* ``python3 perfbench/run.py --workload W --seed S --seconds T --trace
  0|1`` is the driver contract of ``BENCHMARK.json``: one workload,
  repeated until ``T`` seconds of timed region are used, one JSON object
  on the last line.

Either way each (workload, repeat) runs in a fresh, sequentially spawned
child interpreter (``child.py``); this process never imports ``repro``.
Names, units, directions and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SMOKE_SCALE = 0.05
#: Set-up samples per workload in one driver-contract invocation; the
#: timed repeats supply the first few, set-up-only children the rest.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchFailure(Exception):
    """A check failed or a child died; names the workload."""

    def __init__(self, workload: str, message: str) -> None:
        super().__init__(f"{workload}: {message}")
        self.workload = workload


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- children ----------------------------------------------------------------


def _spawn(script: str, arguments: List[str], workload: str
           ) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Same string hashes in every child: one source of run-to-run
    # difference less (the simulation itself never depends on them).
    env["PYTHONHASHSEED"] = "0"
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / script)] + arguments,
            capture_output=True, text=True, env=env,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchFailure(workload, f"{script} exceeded "
                                     f"{CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchFailure(workload,
                           f"{script} exited {done.returncode}: "
                           f"{done.stderr.strip()[-600:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_child(workload: str, seed: int, scale: float,
              mode: str = "timed") -> Dict[str, Any]:
    return _spawn("child.py",
                  ["--workload", workload, "--seed", str(seed),
                   "--scale", repr(scale), "--mode", mode,
                   "--spawned", repr(time.perf_counter())], workload)


def run_probes(scale: float) -> Dict[str, float]:
    return _spawn("probes.py", ["--scale", repr(scale)], "probes")


# -- checks ------------------------------------------------------------------


def check_runs(workload: str, runs: List[Dict[str, Any]]) -> None:
    """Every run passed its own output checks and all of them (traced
    or not) simulated exactly the same thing."""
    for run in runs:
        if run["notes"] or run["failed"]:
            raise BenchFailure(
                workload, f"{run['failed']} of {run['attempted']} ops "
                          f"failed: {'; '.join(run['notes'][:3])}")
    fingerprints = {run["fingerprint"] for run in runs}
    if len(fingerprints) != 1:
        raise BenchFailure(workload, f"runs disagree on sim_fingerprint: "
                                     f"{sorted(fingerprints)}")


# -- metrics -----------------------------------------------------------------


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median with quartiles (``statistics.quantiles(n=4)``) and count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def end_to_end_samples(runs: List[Dict[str, Any]],
                       extra_setups: List[float]) -> Dict[str, List[float]]:
    """Per-metric sample lists over the untraced runs of one workload."""
    return {
        "setup_s": [run["setup_s"] for run in runs] + extra_setups,
        "wall_s": [run["wall_s"] for run in runs],
        "ops_per_s": [(run["attempted"] - run["failed"]) / run["wall_s"]
                      for run in runs],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        "pass_share": [1.0 - run["failed"] / run["attempted"]
                       for run in runs],
        "sim_request_p99_ticks": [run["sim_request_p99_ticks"]
                                  for run in runs],
        "sim_makespan_ticks": [run["sim_makespan_ticks"] for run in runs],
    }


def per_layer_values(traced: Dict[str, Any], untraced_wall_s: float,
                     probes: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer number one traced run yields, by metric name."""
    ledger = traced["ledger"]
    if abs(ledger["sum_s"] - ledger["total_s"]) > 0.01 * ledger["total_s"]:
        raise BenchFailure(
            traced["workload"],
            f"ledger sums to {ledger['sum_s']:.4f} s, traced span is "
            f"{ledger['total_s']:.4f} s")
    values: Dict[str, float] = {}
    for layer, row in ledger["layers"].items():
        for key in ("self_s", "share", "calls"):
            values[f"{layer}.{key}"] = row[key]
    values.update(traced["counts"])
    events = traced["counts"]["sim.events"]
    values["sim.events_per_s"] = events / untraced_wall_s
    values["sim.ns_per_event"] = untraced_wall_s / events * 1e9
    values["trace.total_s"] = ledger["total_s"]
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall_s
    values.update(probes)
    return values


def select(values: Dict[str, float], declared: List[Dict[str, Any]],
           workload: str) -> Dict[str, Dict[str, Any]]:
    """The declared metrics, in declared order, as the contract prints
    them."""
    missing = [metric["name"] for metric in declared
               if metric["name"] not in values]
    if missing:
        raise BenchFailure(workload, f"no value for {missing}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared}


# -- the driver contract: one workload, one JSON line ------------------------


def run_contract(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    workload, seed, scale = args.workload, args.seed, args.scale
    runs = [run_child(workload, seed, scale)]
    if args.trace:
        traced = run_child(workload, seed, scale, mode="traced")
        check_runs(workload, runs + [traced])
        values = per_layer_values(traced, runs[0]["wall_s"],
                                  run_probes(scale))
        metrics = select(values, spec["per_layer"], workload)
        runs.append(traced)
    else:
        # Repeat while another run of typical length still fits.
        while (sum(run["wall_s"] for run in runs)
               + statistics.median(run["wall_s"] for run in runs)
               <= args.seconds):
            runs.append(run_child(workload, seed, scale))
        check_runs(workload, runs)
        setups = [run_child(workload, seed, scale, mode="setup")["setup_s"]
                  for _ in range(max(0, SETUP_SAMPLES - len(runs)))]
        samples = end_to_end_samples(runs, setups)
        metrics = select({name: statistics.median(values)
                          for name, values in samples.items()},
                         spec["end_to_end"], workload)
    print(json.dumps({
        "correct": True,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics}))
    return 0


# -- the full run: every workload, printed ------------------------------------


def run_full(args: argparse.Namespace, spec: Dict[str, Any],
             chosen: List[str]) -> int:
    scale = args.scale
    repeats = args.repeats if args.repeats else (2 if args.smoke else 5)
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in chosen}
    for round_no in range(repeats):
        for name in chosen:
            runs[name].append(run_child(name, args.seed, scale))
            print(f"round {round_no + 1}/{repeats} {name}: "
                  f"{runs[name][-1]['wall_s']:.3f} s", file=sys.stderr)
    probes = run_probes(scale)
    report: Dict[str, Any] = {
        "schema": "perfbench/1", "seed": args.seed, "scale": scale,
        "repeats": repeats, "probes": probes, "workloads": {}}
    for name in chosen:
        traced = run_child(name, args.seed, scale, mode="traced")
        check_runs(name, runs[name] + [traced])
        summary = {metric: summarize(values) for metric, values
                   in end_to_end_samples(runs[name], []).items()}
        layer = select(
            per_layer_values(traced, summary["wall_s"]["median"], probes),
            spec["per_layer"], name)
        report["workloads"][name] = {
            "attempted": runs[name][0]["attempted"],
            "failed": sum(run["failed"] for run in runs[name]),
            "sim_fingerprint": traced["fingerprint"],
            "request_samples": traced["request_samples"],
            "end_to_end": summary,
            "per_layer": {metric: entry["value"]
                          for metric, entry in layer.items()},
        }
    done = report["workloads"]
    if "oltp-steady" in done and "oltp-traced" in done and (
            done["oltp-traced"]["per_layer"]["sim.events"]
            != done["oltp-steady"]["per_layer"]["sim.events"]):
        raise BenchFailure("oltp-traced", "events differ from oltp-steady")
    print_report(report, spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


def print_report(report: Dict[str, Any], spec: Dict[str, Any]) -> None:
    print(f"perfbench seed={report['seed']} scale={report['scale']} "
          f"repeats={report['repeats']}")
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {entry['attempted']} ops per run, "
              f"{entry['failed']} failed, sim_fingerprint "
              f"{entry['sim_fingerprint']}")
        for metric in spec["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            note = (f"  ({entry['request_samples']} samples)"
                    if metric["name"] == "sim_request_p99_ticks" else "")
            print(f"  {metric['name']:<24}{row['median']:>16.6g} "
                  f"{metric['unit']:<6} q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  n={row['n']}  "
                  f"{metric['better']} is better, bound "
                  f"{metric['bound']:.1%}{note}")
        wall = entry["end_to_end"]["wall_s"]["median"]
        print(f"per layer, one traced run: "
              f"{entry['per_layer']['trace.overhead_ratio']:.2f} x the "
              f"untraced median of {wall:.3f} s")
        for metric in spec["per_layer"]:
            if not metric["name"].startswith("probe."):
                print(f"  {metric['name']:<34}"
                      f"{entry['per_layer'][metric['name']]:>16.6g} "
                      f"{metric['unit']}")
    print("\n== probes (once per invocation, ns per operation)")
    for metric in spec["per_layer"]:
        if metric["name"].startswith("probe."):
            print(f"  {metric['name']:<34}"
                  f"{report['probes'][metric['name']]:>16.6g} "
                  f"{metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=0,
                        help="untraced runs per workload (default 5)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", default="", help="write the JSON report")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size (and 2 repeats by default)")
    parser.add_argument("--workload", default="",
                        help="driver contract: the one workload to run")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver contract: timed seconds to use")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver contract: 1 = per-layer metrics")
    args = parser.parse_args()
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    chosen = ([args.workload] if args.workload
              else args.workloads.split(",") if args.workloads else names)
    unknown = [name for name in chosen if name not in names]
    if unknown:
        print(f"perfbench: unknown workloads {unknown}; choose from "
              f"{names}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            return run_contract(args, spec)
        return run_full(args, spec, chosen)
    except BenchFailure as failure:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
