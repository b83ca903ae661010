"""P2 — parallel, cache-aware campaign execution: wall-clock speedup
with byte-identical results.

The tentpole claim: sharding a campaign's seeds across a spawn-safe
process pool (``repro.exec``) makes a 24-seed sweep ≥ 2× faster in wall
clock on a ≥ 4-core machine — while the merged report (per-seed trace
digests, fault outcomes, invariant verdicts) stays **byte-identical**
to the serial run — and the failure-free reference cache turns the
second run of the same sweep into mostly cache hits.

Methodology notes:

* Speedup is measured in **wall clock** (``time.perf_counter``):
  ``process_time`` cannot see CPU burned in worker processes.
* Pool spin-up (a fresh interpreter per worker) is construction, not
  workload — pools are built and warmed outside the timed region.
* Every timed parallel round gets a **fresh, cold cache directory**, so
  the recorded speedup is execution speedup, not cache reuse; the warm
  run is timed separately to quantify the cache on its own.
* Worker counts are clamped to the CPU count, and one effective worker
  degrades to an in-process serial run (no pool) — the fix for the
  measured 1-core slowdown, where ``--jobs 4`` ran 0.85× serial speed.
  On a 1-core host the recorded ``speedup`` is therefore 1.0 by
  construction (identical code path), ``degraded_to_serial`` is set,
  and the *measured* serial/"parallel" ratio is asserted ≥ 0.9 — the
  regression guard that would have caught the original bug.
* The ≥ 2× assertion is enforced only on ≥ 4-core hosts (this container
  may have fewer); digest equality and the cache hit rate are asserted
  everywhere, and every measurement is recorded in ``BENCH_core.json``
  either way.
"""

from __future__ import annotations

import gc
import json
import os
import time

from repro.exec import CampaignPool, resolve_jobs
from repro.faults import run_campaign
from repro.metrics import format_table

from conftest import record_section, run_once

N_SEEDS = 24
CPUS = os.cpu_count() or 1
#: Four workers requested where the acceptance threshold applies; never
#: fewer than two, so the clamp-and-degrade path is always exercised.
JOBS = 4 if CPUS >= 4 else 2
JOBS_EFFECTIVE = resolve_jobs(JOBS)
DEGRADED = JOBS_EFFECTIVE == 1
THRESHOLD = 2.0
#: Degraded mode measures two identical serial executions; the ratio
#: must stay ~1.0 (a pool sneaking back in would drag it below).
DEGRADED_FLOOR = 0.9
ROUNDS_SERIAL = 3
ROUNDS_PARALLEL = 2
EXTRA_ROUNDS = 4    # noise guard: extend only while below threshold

SEEDS = range(N_SEEDS)


def timed_serial() -> tuple:
    gc.collect()
    start = time.perf_counter()
    report = run_campaign(SEEDS, n_clusters=3)
    return report, time.perf_counter() - start


def timed_parallel(cache_dir: str) -> tuple:
    """One parallel sweep against a cold cache; pool spin-up untimed."""
    with CampaignPool(jobs=JOBS, n_clusters=3,
                      cache_dir=cache_dir) as pool:
        assert pool.degraded == DEGRADED
        pool.warm()
        gc.collect()
        start = time.perf_counter()
        report = pool.run(SEEDS)
        elapsed = time.perf_counter() - start
        # Warm pass on the now-populated cache, same pool.
        gc.collect()
        warm_start = time.perf_counter()
        warm = pool.run(SEEDS)
        warm_elapsed = time.perf_counter() - warm_start
    return report, elapsed, warm, warm_elapsed


def fingerprint(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def measure(tmp_path, rounds_parallel: int):
    t_serial = t_parallel = t_warm = None
    serial = parallel = warm = None
    for index in range(max(ROUNDS_SERIAL, rounds_parallel)):
        if index < ROUNDS_SERIAL:
            serial, elapsed = timed_serial()
            if t_serial is None or elapsed < t_serial:
                t_serial = elapsed
        if index < rounds_parallel:
            cold_dir = str(tmp_path / f"refs-{index}-{time.monotonic_ns()}")
            parallel, elapsed, warm, warm_elapsed = timed_parallel(cold_dir)
            if t_parallel is None or elapsed < t_parallel:
                t_parallel = elapsed
            if t_warm is None or warm_elapsed < t_warm:
                t_warm = warm_elapsed
    return serial, t_serial, parallel, warm, t_parallel, t_warm


def test_p2_parallel_campaign(benchmark, table_printer, tmp_path):
    serial, t_serial, parallel, warm, t_parallel, t_warm = run_once(
        benchmark, lambda: measure(tmp_path, ROUNDS_PARALLEL))

    # Determinism gate: parallel and warm-cache reports byte-identical
    # to the serial sweep, per-seed digests and verdicts included.
    assert [r.digest for r in parallel.results] == \
        [r.digest for r in serial.results]
    assert fingerprint(parallel) == fingerprint(serial)
    assert fingerprint(warm) == fingerprint(serial)
    assert serial.failed == 0

    # Cache accounting: the cold sweep computed every reference live,
    # the warm sweep found every one of them.  Holds in degraded mode
    # too — the in-process path reports per-sweep cache deltas.
    assert parallel.cache_hits == 0
    assert parallel.cache_misses == N_SEEDS
    assert warm.cache_hits == N_SEEDS
    assert warm.cache_misses == 0
    hit_rate = warm.cache_hits / (warm.cache_hits + warm.cache_misses)

    # Noise guard: deterministic runs mean extra rounds only
    # tighten minima.  Only worth paying for where an assertion binds:
    # the 2× threshold on ≥ 4 cores, the ~1.0 ratio floor when degraded.
    extra = 0
    while extra < EXTRA_ROUNDS:
        ratio = t_serial / t_parallel
        if DEGRADED:
            if ratio >= DEGRADED_FLOOR:
                break
        elif CPUS < 4 or ratio >= THRESHOLD:
            break
        _, t_serial2, _, _, t_parallel2, t_warm2 = measure(tmp_path, 1)
        t_serial = min(t_serial, t_serial2)
        t_parallel = min(t_parallel, t_parallel2)
        t_warm = min(t_warm, t_warm2)
        extra += 1

    measured_ratio = t_serial / t_parallel
    # Degraded mode runs the identical serial code path twice: report
    # speedup 1.0 by construction, keep the raw ratio as the guard.
    speedup = 1.0 if DEGRADED else measured_ratio
    warm_speedup = t_serial / t_warm
    mode = (f"--jobs {JOBS} (degraded to serial)" if DEGRADED
            else f"--jobs {JOBS} -> {JOBS_EFFECTIVE} worker(s)")
    table_printer(format_table(
        ["execution", "wall (s)", "speedup", "cache"],
        [["serial", f"{t_serial:.3f}", "1.00x", "-"],
         [f"{mode} (cold)", f"{t_parallel:.3f}",
          f"{speedup:.2f}x", f"{parallel.cache_misses} misses"],
         [f"{mode} (warm)", f"{t_warm:.3f}",
          f"{warm_speedup:.2f}x",
          f"{warm.cache_hits} hits ({hit_rate * 100:.0f}%)"]],
        title=f"P2: parallel campaign, {N_SEEDS} seeds on {CPUS} CPUs "
              f"(byte-identical reports, min of "
              f"{ROUNDS_SERIAL + extra} wall-clock rounds)"))

    record_section("parallel_campaign", {
        "workload": f"fault-campaign ({N_SEEDS} seeds, 3 clusters)",
        "cpu_count": CPUS,
        "jobs_requested": JOBS,
        "jobs_effective": JOBS_EFFECTIVE,
        "degraded_to_serial": DEGRADED,
        "serial_wall_seconds": round(t_serial, 6),
        "parallel_wall_seconds": round(t_parallel, 6),
        "speedup": round(speedup, 3),
        "measured_ratio": round(measured_ratio, 3),
        "speedup_threshold": THRESHOLD,
        "threshold_enforced": not DEGRADED and CPUS >= 4,
        "reference_cache": {
            "warm_wall_seconds": round(t_warm, 6),
            "warm_hit_rate": round(hit_rate, 3),
        },
    })
    assert hit_rate > 0.0
    if DEGRADED:
        assert measured_ratio >= DEGRADED_FLOOR, (
            f"degraded --jobs {JOBS} run measured {measured_ratio:.2f}x "
            f"serial speed on {CPUS} CPU(s) — the in-process path must "
            f"not cost more than serial (floor {DEGRADED_FLOOR}x)")
    elif CPUS >= 4:
        assert speedup >= THRESHOLD, (
            f"parallel speedup {speedup:.2f}x below required "
            f"{THRESHOLD}x on {CPUS} CPUs "
            f"(serial {t_serial:.3f}s vs --jobs {JOBS} {t_parallel:.3f}s)")
