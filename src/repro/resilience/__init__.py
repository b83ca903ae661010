"""Resilience service layer: registry-driven in-sim services
(heartbeat detection, bulkhead, dead-letter queue, idempotent receiver)
layered over the kernel and server paths.

Everything here is off by default — :func:`install_services` returns
``None`` unless :class:`~repro.config.ResilienceConfig` enables at least
one service, and a machine without the layer behaves byte-identically to
one built before this package existed.
"""

from .bulkhead import BulkheadLayer
from .dlq import DeadLetter, DeadLetterLayer
from .heartbeat import HeartbeatMonitor
from .idempotent import IdempotentReceiver
from .layer import ResilienceServices, install_services
from .registry import (SERVICE_REGISTRY, ServiceSpec, apply_services,
                       register_service, resilience_services_markdown,
                       service_names)

__all__ = [
    "BulkheadLayer",
    "DeadLetter",
    "DeadLetterLayer",
    "HeartbeatMonitor",
    "IdempotentReceiver",
    "ResilienceServices",
    "SERVICE_REGISTRY",
    "ServiceSpec",
    "apply_services",
    "install_services",
    "register_service",
    "resilience_services_markdown",
    "service_names",
]
