"""Failure detection.

Section 7.10: "Periodic polling of every cluster will discover the
shutdown and notify the remaining clusters to begin crash handling."  We
model the polling delay event-wise: when a crash is injected, each
surviving cluster independently notices it one poll interval later (plus a
one-tick stagger per cluster id for deterministic ordering), then starts
its local crash handling.  Continuous empty polling events are not
scheduled — they would keep the event heap from ever draining without
changing any observable behaviour.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from ..types import ClusterId

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import ClusterKernel


def schedule_detection(kernels: Iterable["ClusterKernel"],
                       crashed: ClusterId) -> None:
    """Arrange for every live kernel to detect the crash after its next
    poll and begin crash handling (7.10.1)."""
    from .crashhandler import begin_crash_handling

    for kernel in kernels:
        if not kernel.alive or kernel.cluster_id == crashed:
            continue
        delay = kernel.config.poll_interval + kernel.cluster_id + 1
        kernel.sim.post(delay, begin_crash_handling, (kernel, crashed))
        kernel.metrics.incr("recovery.detections_scheduled")
