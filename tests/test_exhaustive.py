"""The exhaustive single-crash sweep (repro.faults.exhaustive).

The slice below is where a send-path gate once broke three-way delivery:
with a service that refused user sends registered, crashing cluster 1
at 4,416, 4,530, 4,594 or 4,772 ticks made the pipeline sink print
``pipe:601`` before ``pipe:600``.  Running it with *every* registered
service on keeps any such service from coming back unnoticed.
"""

from __future__ import annotations

from repro.faults.exhaustive import sweep
from repro.resilience.registry import service_names


def test_pipeline_slice_with_every_service_holds_at_every_crash_time():
    result = sweep("pipeline", services=service_names(),
                   start=4_000, end=5_000)
    # 5 distinct trace times in [4,000, 5,000] x 3 clusters.
    assert result.cells == 15
    assert result.failures == []


def test_sweep_reports_a_failing_cell():
    """Crashing a writer's cluster at t=0, inside the boot window the
    default ``start`` skips, loses that writer before any backup exists.
    The sweep reports each such cell with its cluster, time and
    violations; the crash of cluster 2, which hosts no writer, passes."""
    result = sweep("tty", start=0, end=0)
    assert result.cells == 3
    assert [(cluster, when) for cluster, when, _ in result.failures] \
        == [(0, 0), (1, 0)]
    assert all(violations for _, _, violations in result.failures)
