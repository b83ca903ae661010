"""Failure detection: the poll detector and, beside it, heartbeat.

Section 7.10: "Periodic polling of every cluster will discover the
shutdown and notify the remaining clusters to begin crash handling."  We
model the polling delay event-wise: when a crash is injected, each
surviving cluster independently notices it one poll interval later (plus a
one-tick stagger per cluster id for deterministic ordering), then starts
its local crash handling.  Continuous empty polling events are not
scheduled — they would keep the event heap from ever draining without
changing any observable behaviour.

``MachineConfig.detector = "heartbeat"`` adds a faster detector beside
the poll one (:class:`HeartbeatMonitor`).  Every cluster conceptually
broadcasts a liveness beacon each ``heartbeat_interval`` ticks
(staggered by cluster id), and a peer that misses
``heartbeat_miss_threshold`` consecutive beacons is suspected dead.
Both detectors funnel into
:func:`~repro.recovery.crashhandler.begin_crash_handling`, which is
idempotent per (kernel, crashed), so the faster one simply wins and
double promotion is structurally impossible.

Beacons are modelled, not transmitted, for the same reason polls are.
Two event sources replace them:

* **Crash detection** — when a cluster crashes, each surviving observer
  schedules its suspicion point: the deadline of the
  ``miss_threshold``-th beacon the dead cluster can no longer send.
  Detection latency is therefore about ``(miss_threshold + 1) *
  interval`` versus the poll detector's ``poll_interval``.
* **False positives under bus loss** — with the bus fault layer active,
  beacon fates are judged by a dedicated deterministic hash stream at
  the configured loss rate (fire-and-forget beacons are never retried,
  unlike regular transmissions).  A loss streak reaching the miss
  threshold within :data:`HEARTBEAT_HORIZON` raises a suspicion; the
  observer then *verifies* with a real probe/ack round trip over the
  (degraded) bus before believing it.  A live suspect answers and the
  suspicion is counted as a false positive
  (``resilience.heartbeat.false_positives`` / ``...refuted``); a
  genuinely dead one does not, and crash handling begins early.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..messages.message import Delivery, DeliveryRole, MessageKind
from ..sim.rng import DeterministicRNG
from ..types import ClusterId, Ticks
from .crashhandler import begin_crash_handling

if TYPE_CHECKING:  # pragma: no cover
    from ..core.machine import Machine
    from ..kernel.kernel import ClusterKernel

#: How far into the run the heartbeat detector models beacon loss when
#: the bus fault layer is active (bounds the false-positive scan so the
#: event heap still drains).
HEARTBEAT_HORIZON: Ticks = 240_000


def schedule_detection(kernels: Iterable["ClusterKernel"],
                       crashed: ClusterId,
                       heartbeat: Optional["HeartbeatMonitor"] = None
                       ) -> None:
    """Arrange for every live kernel to detect the crash after its next
    poll and begin crash handling (7.10.1).

    Then, when the heartbeat detector is on, schedule its suspicion
    points too; the event order depends on the poll events coming
    first."""
    for kernel in kernels:
        if not kernel.alive or kernel.cluster_id == crashed:
            continue
        delay = kernel.config.poll_interval + kernel.cluster_id + 1
        kernel.sim.post(delay, begin_crash_handling, (kernel, crashed))
        kernel.metrics.incr("recovery.detections_scheduled")
    if heartbeat is not None:
        heartbeat.on_crash(crashed)


class HeartbeatMonitor:
    """Models the beacon protocol for one machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.interval = machine.config.heartbeat_interval
        self.miss_threshold = machine.config.heartbeat_miss_threshold
        self._crash_times: Dict[ClusterId, Ticks] = {}
        self._probe_nonce = 0
        bus_faults = machine.config.bus_faults
        if bus_faults.enabled and bus_faults.loss_rate > 0.0:
            self._schedule_loss_suspicions(bus_faults.loss_rate,
                                           bus_faults.seed)

    # -- beacon timetable ---------------------------------------------------

    def _beacon_time(self, sender: ClusterId, index: int) -> Ticks:
        """Beacon ``index`` of ``sender`` (staggered by cluster id so no
        two clusters ever beacon at the same instant)."""
        return (index + 1) * self.interval + sender

    def _suspicion_time(self, last_missed: Ticks,
                        observer: ClusterId) -> Ticks:
        """A beacon expected at ``t`` is declared missed at its next
        beacon's deadline; observers check with a small per-observer
        stagger (mirroring the poll detector's ``cluster_id + 1``)."""
        return last_missed + self.interval + observer + 1

    # -- crash detection ----------------------------------------------------

    def on_crash(self, crashed: ClusterId) -> None:
        """The machine crashed a cluster: every surviving observer will
        notice the beacon silence.  Scheduled after (not instead of)
        the poll detector; both funnel into ``begin_crash_handling``."""
        now = self.machine.sim.now
        first_missed = 0
        while self._beacon_time(crashed, first_missed) <= now:
            first_missed += 1
        last_missed = self._beacon_time(
            crashed, first_missed + self.miss_threshold - 1)
        self._crash_times[crashed] = now
        for observer in range(self.machine.config.n_clusters):
            if observer == crashed:
                continue
            when = self._suspicion_time(last_missed, observer)
            self.machine.sim.post(when - now, self._confirm,
                                  (observer, crashed))

    def _confirm(self, observer: ClusterId, suspect: ClusterId) -> None:
        """Suspicion point reached: act only if the suspect is still
        down and this observer has not learned of the crash some other
        way (poll detector, an earlier heartbeat event, ...)."""
        machine = self.machine
        kernel = machine.kernels[observer]
        if not kernel.alive or suspect in kernel.known_dead:
            return
        metrics = machine.metrics
        if machine.clusters[suspect].alive:
            # Restored (or never down) between suspicion and now.
            metrics.incr("resilience.heartbeat.false_positives")
            machine.trace.emit(machine.sim.now,
                               "resilience.heartbeat.false_positive",
                               suspect=suspect, by=observer)
            return
        metrics.incr("resilience.heartbeat.detections")
        crashed_at = self._crash_times.get(suspect)
        if crashed_at is not None:
            metrics.record_hist("resilience.heartbeat.detection_latency",
                                machine.sim.now - crashed_at)
        machine.trace.emit(machine.sim.now, "resilience.heartbeat.detect",
                           suspect=suspect, by=observer)
        begin_crash_handling(kernel, suspect)

    # -- false positives under bus loss -------------------------------------

    def _schedule_loss_suspicions(self, loss_rate: float,
                                  seed: int) -> None:
        """Judge every beacon in ``[0, HEARTBEAT_HORIZON]`` against a
        seeded hash stream; each loss streak reaching the miss threshold
        becomes a scheduled suspicion (verified by probe when it fires).
        Bounded by the horizon, so the event heap still drains."""
        n = self.machine.config.n_clusters
        suspicions: List[Tuple[Ticks, ClusterId, ClusterId]] = []
        for sender in range(n):
            rng = DeterministicRNG(seed).fork(f"heartbeat:{sender}")
            streak = 0
            index = 0
            while self._beacon_time(sender, index) <= HEARTBEAT_HORIZON:
                lost = rng.random() < loss_rate
                streak = streak + 1 if lost else 0
                if streak == self.miss_threshold:
                    last_missed = self._beacon_time(sender, index)
                    for observer in range(n):
                        if observer != sender:
                            suspicions.append(
                                (self._suspicion_time(last_missed,
                                                      observer),
                                 observer, sender))
                index += 1
        for when, observer, sender in suspicions:
            self.machine.sim.post(when, self._suspect, (observer, sender))

    def _suspect(self, observer: ClusterId, suspect: ClusterId) -> None:
        """A loss streak crossed the threshold: verify before believing.
        Live observers probe the suspect over the (degraded) bus; the
        probe/ack round trip is real traffic, subject to bus faults and
        masked by the ordinary retry protocol."""
        machine = self.machine
        kernel = machine.kernels[observer]
        if not kernel.alive or suspect in kernel.known_dead:
            return
        if not machine.clusters[suspect].alive:
            # The streak coincided with a real crash: detect early.
            self._confirm(observer, suspect)
            return
        machine.metrics.incr("resilience.heartbeat.false_positives")
        machine.trace.emit(machine.sim.now,
                           "resilience.heartbeat.false_positive",
                           suspect=suspect, by=observer)
        self._probe_nonce += 1
        machine.metrics.incr("resilience.heartbeat.probes")
        kernel.send_kernel_message(
            MessageKind.CRASH_NOTICE,
            {"op": "hb_probe", "src": observer, "dst": suspect,
             "nonce": self._probe_nonce},
            deliveries=(Delivery(suspect, DeliveryRole.KERNEL, 0),),
            size=16)

    # -- probe/ack traffic (arrives via the CRASH_NOTICE kernel leg) --------

    def on_notice(self, kernel: "ClusterKernel", payload: Dict) -> None:
        op = payload.get("op")
        if op == "hb_probe":
            kernel.send_kernel_message(
                MessageKind.CRASH_NOTICE,
                {"op": "hb_ack", "src": kernel.cluster_id,
                 "dst": payload["src"], "nonce": payload["nonce"]},
                deliveries=(Delivery(payload["src"],
                                     DeliveryRole.KERNEL, 0),),
                size=16)
            kernel.metrics.incr("resilience.heartbeat.probes_answered")
        elif op == "hb_ack":
            kernel.metrics.incr("resilience.heartbeat.refuted")
            kernel.trace.emit(kernel.sim.now,
                              "resilience.heartbeat.refute",
                              suspect=payload["src"],
                              by=kernel.cluster_id)
