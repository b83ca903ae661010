"""Resilience service layer: registry-driven in-sim services over the
kernel.  Heartbeat crash detection is the one service.

It is off by default — :class:`~repro.core.machine.Machine` builds a
:class:`HeartbeatMonitor` only when
:class:`~repro.config.ResilienceConfig` turns it on, and a machine
without it behaves byte-identically to one built before this package
existed.
"""

from .heartbeat import HeartbeatMonitor
from .registry import (SERVICE_REGISTRY, ServiceSpec, apply_services,
                       register_service, resilience_services_markdown,
                       service_names)

__all__ = [
    "HeartbeatMonitor",
    "SERVICE_REGISTRY",
    "ServiceSpec",
    "apply_services",
    "register_service",
    "resilience_services_markdown",
    "service_names",
]
