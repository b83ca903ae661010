"""Compare two perfbench reports: ``python3 perfbench/compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of runs of
one commit), B the candidate.  One row per (workload, end-to-end
metric): both medians with quartiles, the ratio B/A with its base, and a
verdict from the metric's direction and bound in ``BENCHMARK.json``:

* ``ok``          B's median is within the bound of A's;
* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better than A's by more than the bound;
* ``unresolved``  the inter-quartile spread of either side exceeds the
  bound, so a move of that size cannot be told from noise -- unless
  every run of one side beats every run of the other, which settles it.

Exits non-zero on any ``worse`` and on any lower ``pass_share``.  Each
workload's ``sim_fingerprint`` is reported as identical or differing: two
sets of runs of one commit and seed must agree on it, and a change meant
only to speed the simulator up must leave it alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from run import load_spec


def verdict(base: Dict[str, Any], cand: Dict[str, Any], better: str,
            bound: float) -> str:
    """See the module docstring; ``base``/``cand`` are metric summaries
    (median, q1, q3, values)."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive = the candidate is worse, as a share of the base median.
    worse_by = sign * (cand["median"] - base["median"]) / base["median"]
    spread = max((side["q3"] - side["q1"]) / side["median"]
                 for side in (base, cand))
    if spread > bound:
        base_values = [sign * value for value in base["values"]]
        cand_values = [sign * value for value in cand["values"]]
        if max(cand_values) < min(base_values):
            return "better"
        if min(cand_values) > max(base_values) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "ok"


def compare(base: Dict[str, Any], cand: Dict[str, Any],
            spec: Dict[str, Any]) -> List[str]:
    """Print the table; return the reasons to fail."""
    failures: List[str] = []
    print(f"{'workload':<18}{'metric':<23}{'A median [q1, q3] n':<40}"
          f"{'B median [q1, q3] n':<40}{'B/A':<20}verdict")
    for name, base_entry in base["workloads"].items():
        cand_entry = cand["workloads"].get(name)
        if cand_entry is None:
            failures.append(f"{name}: missing from B")
            continue
        same = (base_entry["sim_fingerprint"]
                == cand_entry["sim_fingerprint"])
        print(f"{name:<18}sim_fingerprint "
              f"{'identical' if same else 'DIFFERS'}")
        for metric in spec["end_to_end"]:
            a = base_entry["end_to_end"][metric["name"]]
            b = cand_entry["end_to_end"][metric["name"]]
            result = verdict(a, b, metric["better"], metric["bound"])
            if metric["name"] == "pass_share" \
                    and b["median"] < a["median"]:
                result = "worse"
            if result == "worse":
                failures.append(f"{name}: {metric['name']} worse")
            ratio = (f"{b['median'] / a['median']:.4f} of "
                     f"{_num(a['median'])}")
            print(f"{name:<18}{metric['name']:<23}"
                  f"{_cell(a):<40}{_cell(b):<40}{ratio:<20}{result}")
    return failures


def _num(value: float) -> str:
    return (f"{value:.0f}" if float(value).is_integer()
            else f"{value:.6g}")


def _cell(summary: Dict[str, Any]) -> str:
    return (f"{_num(summary['median'])} [{_num(summary['q1'])}, "
            f"{_num(summary['q3'])}] n={summary['n']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="report A (run.py --out)")
    parser.add_argument("candidate", help="report B")
    args = parser.parse_args()
    spec = load_spec()
    reports = []
    for path in (args.base, args.candidate):
        with open(path) as handle:
            reports.append(json.load(handle))
    a, b = (report["probes"]["probe.calib_ns_per_op"]
            for report in reports)
    print(f"host yardstick probe.calib_ns_per_op: A {a:.1f} ns, "
          f"B {b:.1f} ns (B/A {b / a:.3f} of {a:.1f})")
    failures = compare(reports[0], reports[1], spec)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
