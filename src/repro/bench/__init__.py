"""Wall-clock performance harness (``repro bench``)."""

from .harness import (BENCH_REGISTRY, BenchError, BenchResult,
                      TIMERS, check_workload_names, compare_to_baseline,
                      load_report, report_dict, resolve_timer,
                      run_suite, write_report)

__all__ = [
    "BENCH_REGISTRY",
    "BenchError",
    "BenchResult",
    "TIMERS",
    "check_workload_names",
    "compare_to_baseline",
    "load_report",
    "report_dict",
    "resolve_timer",
    "run_suite",
    "write_report",
]
