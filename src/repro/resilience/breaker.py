"""Circuit breaker around the user-channel send path (the `breaker`
service).

One breaker per (sender cluster, destination cluster) pair.  Failure
evidence comes from the bus: a delivery attempt addressed to a dead
cluster (``bus.deliveries_to_dead``) counts against the pair; a
successful delivery resets it.  After ``breaker_failure_threshold``
consecutive failures the breaker *opens*: ``send_user_message`` calls
targeting that cluster are rejected at the sender — diverted to the
dead-letter queue when that service is on (lossless: the DLQ redelivers
them against repaired routes), dropped with accounting otherwise (a
lossy experiment knob, like ``server_inbox_policy="shed"``).  After
``breaker_cooldown`` ticks the breaker half-opens and lets one probe
through; a delivered probe closes it.  ``breaker_max_probes`` failed
cycles abandon the destination for good, bounding the event horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..config import ResilienceConfig
from ..types import ClusterId, Ticks

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.machine import Machine

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


@dataclass
class _Breaker:
    state: str = CLOSED
    failures: int = 0
    opened_at: Ticks = 0
    probes: int = 0
    abandoned: bool = False


class CircuitBreakerLayer:
    """All breakers of one machine, fed by the bus delivery observer."""

    def __init__(self, machine: "Machine",
                 config: ResilienceConfig) -> None:
        self.machine = machine
        self.threshold = config.breaker_failure_threshold
        self.cooldown = config.breaker_cooldown
        self.max_probes = config.breaker_max_probes
        self._breakers: Dict[Tuple[Optional[ClusterId], ClusterId],
                             _Breaker] = {}

    def _get(self, src: Optional[ClusterId],
             dst: ClusterId) -> _Breaker:
        breaker = self._breakers.get((src, dst))
        if breaker is None:
            breaker = self._breakers[(src, dst)] = _Breaker()
        return breaker

    def state_of(self, src: Optional[ClusterId], dst: ClusterId) -> str:
        return self._get(src, dst).state

    # -- bus evidence -------------------------------------------------------

    def record_failure(self, src: Optional[ClusterId],
                       dst: ClusterId) -> None:
        breaker = self._get(src, dst)
        if breaker.abandoned:
            return
        machine = self.machine
        if breaker.state is HALF_OPEN:
            # The probe failed: reopen (or abandon past the budget).
            breaker.probes += 1
            if breaker.probes >= self.max_probes:
                breaker.abandoned = True
                breaker.state = OPEN
                machine.metrics.incr("resilience.breaker.abandoned")
                machine.trace.emit(machine.sim.now,
                                   "resilience.breaker.abandon",
                                   src=src, dst=dst)
                return
            self._open(breaker, src, dst)
            return
        breaker.failures += 1
        if breaker.state is CLOSED \
                and breaker.failures >= self.threshold:
            machine.metrics.incr("resilience.breaker.opened")
            self._open(breaker, src, dst)

    def record_success(self, src: Optional[ClusterId],
                       dst: ClusterId) -> None:
        breaker = self._breakers.get((src, dst))
        if breaker is None or breaker.abandoned:
            return
        if breaker.state is HALF_OPEN:
            breaker.state = CLOSED
            breaker.probes = 0
            self.machine.metrics.incr("resilience.breaker.closed")
            self.machine.trace.emit(self.machine.sim.now,
                                    "resilience.breaker.close",
                                    src=src, dst=dst)
        breaker.failures = 0

    def _open(self, breaker: _Breaker, src: Optional[ClusterId],
              dst: ClusterId) -> None:
        machine = self.machine
        breaker.state = OPEN
        breaker.failures = 0
        breaker.opened_at = machine.sim.now
        machine.trace.emit(machine.sim.now, "resilience.breaker.open",
                           src=src, dst=dst)
        machine.sim.post(self.cooldown, self._half_open,
                         (src, dst, breaker.opened_at))

    def _half_open(self, src: Optional[ClusterId], dst: ClusterId,
                   opened_at: Ticks) -> None:
        breaker = self._get(src, dst)
        if breaker.abandoned or breaker.state is not OPEN \
                or breaker.opened_at != opened_at:
            return  # stale cooldown from an earlier open cycle
        breaker.state = HALF_OPEN
        self.machine.metrics.incr("resilience.breaker.half_opens")
        self.machine.trace.emit(self.machine.sim.now,
                                "resilience.breaker.half_open",
                                src=src, dst=dst)

    # -- send-path gate -----------------------------------------------------

    def allows(self, src: ClusterId, dst: Optional[ClusterId]) -> bool:
        """May ``src`` send to ``dst`` right now?  HALF_OPEN lets the
        probe through — the bus observer settles it either way."""
        if dst is None:
            return True
        breaker = self._breakers.get((src, dst))
        if breaker is None or breaker.state is CLOSED \
                or breaker.state is HALF_OPEN:
            return True
        if breaker.abandoned:
            return False
        return False
