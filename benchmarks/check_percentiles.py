#!/usr/bin/env python3
"""CI gate: latency percentiles must be present and non-null.

Validates either artifact kind:

* The ``BENCH_core.json`` experiment record (recognised by its
  ``schema`` key) that the P2, F4 and F5 benchmarks merge into — the
  ``latency_under_fault`` section (F4) must have a non-null p99 per
  fault regime, and the ``recovery_shootout`` section (F5) must carry a
  non-null request p99 for every (design, fault kind) cell plus both
  detection latencies.  A missing section is a failure.
* A campaign report JSON produced by ``repro campaign --json`` — the
  aggregate ``latency.request.p99`` and the per-fault-kind p99 curve
  must be present and non-null.

``--extract out.json`` additionally writes a compact
percentiles-only JSON, the artifact the degraded-bus CI matrix
uploads.  Exits 1 with a per-field message on any failure.

Usage::

    python benchmarks/check_percentiles.py BENCH_core.json
    python benchmarks/check_percentiles.py campaign.json --extract p99.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

#: The ``schema`` of a ``BENCH_core.json`` experiment record.
BENCH_SCHEMA = "repro-bench/1"
PERCENTILE_FIELDS = ("p50", "p90", "p99")


def _check_summary(summary: Any, where: str, errors: List[str]) -> None:
    if not isinstance(summary, dict):
        errors.append(f"{where}: missing latency summary")
        return
    for field in PERCENTILE_FIELDS:
        if summary.get(field) is None:
            errors.append(f"{where}: {field} is missing or null")
    if not summary.get("count"):
        errors.append(f"{where}: sample count is zero")


def check_bench(data: Dict[str, Any], errors: List[str]
                ) -> Dict[str, Any]:
    extracted: Dict[str, Any] = {"kind": "bench"}
    fault = data.get("latency_under_fault")
    if not isinstance(fault, dict):
        errors.append("latency_under_fault: missing")
    else:
        curves = {}
        regimes = fault.get("regimes") or {}
        if not regimes:
            errors.append("latency_under_fault.regimes: missing or empty")
        for regime, entry in sorted(regimes.items()):
            _check_summary(entry.get("request"),
                           f"latency_under_fault.{regime}.request",
                           errors)
            curves[regime] = (entry.get("request") or {}).get("p99")
        extracted["latency_under_fault_p99"] = curves
    shootout = data.get("recovery_shootout")
    if not isinstance(shootout, dict):
        errors.append("recovery_shootout: missing")
    else:
        extracted["recovery_shootout_p99"] = _check_shootout(
            shootout, errors)
    return extracted


def _check_shootout(shootout: Dict[str, Any],
                    errors: List[str]) -> Dict[str, Any]:
    """The F5 gate: every (design, kind) p99 present and non-null, and
    both crash-detection latencies recorded."""
    designs = shootout.get("designs") or []
    kinds = shootout.get("kinds") or []
    if not designs:
        errors.append("recovery_shootout.designs: missing or empty")
    if not kinds:
        errors.append("recovery_shootout.kinds: missing or empty")
    p99 = shootout.get("p99_by_design") or {}
    for design in designs:
        curve = p99.get(design)
        if not isinstance(curve, dict):
            errors.append(
                f"recovery_shootout.p99_by_design.{design}: missing")
            continue
        for kind in kinds:
            if curve.get(kind) is None:
                errors.append(f"recovery_shootout.p99_by_design."
                              f"{design}.{kind}: missing or null")
    detection = shootout.get("detection_latency") or {}
    for field in ("poll", "heartbeat"):
        if detection.get(field) is None:
            errors.append(f"recovery_shootout.detection_latency."
                          f"{field}: missing or null")
    return p99


def check_campaign(data: Dict[str, Any], errors: List[str]
                   ) -> Dict[str, Any]:
    latency = data.get("latency") or {}
    _check_summary(latency.get("request"), "latency.request", errors)
    by_kind = latency.get("request_p99_by_kind")
    if not by_kind:
        errors.append("latency.request_p99_by_kind: missing or empty")
        by_kind = {}
    else:
        for kind, p99 in sorted(by_kind.items()):
            if p99 is None:
                errors.append(
                    f"latency.request_p99_by_kind.{kind}: null")
    return {"kind": "campaign",
            "request": latency.get("request"),
            "request_p99_by_kind": by_kind}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="BENCH_core.json or a campaign "
                                       "report JSON")
    parser.add_argument("--extract", metavar="OUT",
                        help="write a compact percentiles-only JSON")
    args = parser.parse_args(argv)

    try:
        with open(args.report) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"check_percentiles: cannot read {args.report}: {exc}",
              file=sys.stderr)
        return 1

    errors: List[str] = []
    if data.get("schema") == BENCH_SCHEMA:
        extracted = check_bench(data, errors)
    elif "results" in data or "latency" in data:
        extracted = check_campaign(data, errors)
    else:
        print(f"check_percentiles: {args.report} is neither a "
              f"{BENCH_SCHEMA} record nor a campaign report", file=sys.stderr)
        return 1

    if args.extract:
        extracted["source"] = args.report
        with open(args.extract, "w") as handle:
            json.dump(extracted, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if errors:
        for error in errors:
            print(f"check_percentiles: {error}", file=sys.stderr)
        print(f"check_percentiles: FAIL ({len(errors)} problem(s) in "
              f"{args.report})", file=sys.stderr)
        return 1
    print(f"check_percentiles: OK ({args.report})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
