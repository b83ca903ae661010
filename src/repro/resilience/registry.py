"""The resilience-service registry: named in-sim services scenarios toggle.

Each entry describes one service of the resilience layer
(:mod:`repro.resilience`): the :class:`~repro.config.ResilienceConfig`
flag that enables it, the tunable knobs it exposes to the scenario DSL's
``services:`` block, and a one-line description the generated
``docs/resilience.md`` table is pinned to.  The registry reuses the same
machinery as the fault-kind, workload and check registries
(:mod:`repro.scenario.registry`), so ``repro scenario list`` and the
did-you-mean diagnostics work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..config import ResilienceConfig
from ..scenario.registry import EntryMetadata, ParamSpec, Registry


@dataclass(frozen=True)
class ServiceSpec:
    """One resilience service: its config gate and its tunable knobs."""

    name: str
    #: The ``ResilienceConfig`` attribute that turns the service on.
    flag: str
    #: YAML knob name -> ``ResilienceConfig`` attribute it sets.
    knobs: Mapping[str, str]


SERVICE_REGISTRY: Registry[ServiceSpec] = Registry("resilience service")


def register_service(spec: ServiceSpec,
                     metadata: EntryMetadata) -> ServiceSpec:
    """Register a resilience service (the plugin entry point)."""
    return SERVICE_REGISTRY.register(spec.name, spec, metadata)


def service_names():
    return SERVICE_REGISTRY.names()


def resilience_services_markdown() -> str:
    """The service table in ``docs/resilience.md``, generated from
    registry metadata so the two cannot drift (a test pins the file
    content to this function's output)."""
    lines = ["| service | what it does |", "|---|---|"]
    for name, _, metadata in SERVICE_REGISTRY.items():
        lines.append(f"| `{name}` | {metadata.description} |")
    return "\n".join(lines)


def apply_services(config: ResilienceConfig,
                   services: Mapping[str, Mapping[str, object]]
                   ) -> ResilienceConfig:
    """Apply a validated ``services:`` mapping (service name -> knob
    values) onto a :class:`ResilienceConfig`, enabling each named
    service.  The scenario compiler calls this; knob values are assumed
    validated against the registry's :class:`ParamSpec` tables."""
    for name, knobs in services.items():
        spec = SERVICE_REGISTRY.get(name)
        setattr(config, spec.flag, True)
        for knob, value in (knobs or {}).items():
            setattr(config, spec.knobs[knob], value)
    return config.validate()


# ----------------------------------------------------------------------
# the built-in service
# ----------------------------------------------------------------------

_DEFAULTS = ResilienceConfig()


def _knob(attr: str, description: str) -> ParamSpec:
    default = getattr(_DEFAULTS, attr)
    return ParamSpec(type(default), description, default=default)


register_service(
    ServiceSpec(
        name="heartbeat", flag="heartbeat",
        knobs={"interval": "heartbeat_interval",
               "miss_threshold": "heartbeat_miss_threshold",
               "horizon": "heartbeat_horizon"}),
    EntryMetadata(
        description="beacon-based crash detection beside the poll "
                    "detector: suspects a cluster after N consecutive "
                    "missed beacons, verifies against a live peer with a "
                    "probe/ack round trip, and accounts false positives "
                    "under bus loss",
        params={
            "interval": _knob("heartbeat_interval",
                              "beacon period in ticks"),
            "miss_threshold": _knob("heartbeat_miss_threshold",
                                    "consecutive missed beacons before "
                                    "suspicion"),
            "horizon": _knob("heartbeat_horizon",
                             "ticks of beacon-loss modelling under a "
                             "degraded bus"),
        }))
