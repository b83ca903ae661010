"""The resilience service layer: coordinator wiring services into a
machine.

Installed by :class:`~repro.core.machine.Machine` **only** when at least
one :class:`~repro.config.ResilienceConfig` flag is on — with every
service off, no object is built, every hook site sees ``None`` and the
machine's traces stay byte-identical to a build without this package
(the same post-construction-install idiom as the bus fault layer).

The coordinator owns one instance per enabled service and adapts them to
the two integration surfaces:

* **kernel hooks** — duplicate check / inbox admission / shed capture in
  ``_deliver_primary``, and heartbeat probe/ack traffic on the
  ``CRASH_NOTICE`` kernel leg;
* **machine lifecycle** — crash/restore notifications driving the
  heartbeat monitor and re-attaching restored kernels.

No hook sits on the send path: every user send takes the three-way
delivery route of section 5.1, whatever services are on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..messages.message import Delivery, Message
from ..types import ClusterId
from .bulkhead import BulkheadLayer
from .dlq import DeadLetterLayer
from .heartbeat import HeartbeatMonitor
from .idempotent import IdempotentReceiver

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.machine import Machine
    from ..kernel.kernel import ClusterKernel
    from ..messages.routing import RoutingEntry


class ResilienceServices:
    """All enabled services of one machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        config = machine.config.resilience
        self.config = config
        self.dlq = (DeadLetterLayer(machine, config)
                    if config.dlq else None)
        self.bulkhead = (BulkheadLayer(machine, config)
                         if config.bulkhead else None)
        self.idempotent = (IdempotentReceiver(machine, config)
                           if config.idempotent else None)
        self.heartbeat = (HeartbeatMonitor(machine, config)
                          if config.heartbeat else None)
        for kernel in machine.kernels:
            kernel.resilience = self

    # -- machine lifecycle --------------------------------------------------

    def attach_kernel(self, kernel: "ClusterKernel") -> None:
        """A restored cluster got a fresh kernel: hook it up."""
        kernel.resilience = self

    def on_crash(self, cluster_id: ClusterId) -> None:
        if self.heartbeat is not None:
            self.heartbeat.on_crash(cluster_id)

    # -- kernel delivery hooks ----------------------------------------------

    def check_duplicate(self, kernel: "ClusterKernel", message: Message,
                        delivery: Delivery) -> bool:
        if self.idempotent is None:
            return False
        return self.idempotent.is_duplicate(kernel, message, delivery)

    def note_accepted(self, kernel: "ClusterKernel", message: Message,
                      delivery: Delivery) -> None:
        if self.idempotent is not None:
            self.idempotent.register(kernel, message, delivery)

    def inbox_full(self, kernel: "ClusterKernel", entry: "RoutingEntry",
                   limit: int) -> bool:
        if self.bulkhead is None:
            return len(entry.queue) >= limit
        return self.bulkhead.over_limit(kernel, entry, limit)

    def on_shed(self, kernel: "ClusterKernel", message: Message,
                delivery: Delivery) -> None:
        if self.dlq is not None:
            self.dlq.capture_shed(kernel, message, delivery)

    # -- heartbeat probe/ack traffic ----------------------------------------

    def on_kernel_notice(self, kernel: "ClusterKernel",
                         message: Message) -> None:
        payload = message.payload
        if self.heartbeat is not None and isinstance(payload, dict) \
                and str(payload.get("op", "")).startswith("hb_"):
            self.heartbeat.on_notice(kernel, payload)


def install_services(machine: "Machine"
                     ) -> Optional[ResilienceServices]:
    """Build the layer for ``machine`` iff any service is enabled."""
    if not machine.config.resilience.enabled:
        return None
    return ResilienceServices(machine)
