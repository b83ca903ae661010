"""Compile validated scenario documents onto the existing machinery.

A sweep-mode document compiles to a
:class:`~repro.faults.campaign.CampaignPlan` — the same object a
Python caller builds by hand, funneled through the same
:func:`~repro.faults.campaign.run_campaign` call, which is what makes
scenario-compiled campaign reports **byte-identical** to code-built
ones.  An explicit-mode document compiles to machine configs, a
workload recipe and (optionally) one :class:`FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..config import (BUS_KNOBS, MACHINE_KNOBS, BusFaultConfig, ConfigError,
                      Knob, MachineConfig)
from ..faults.campaign import (BUS_FAULT_KINDS, MAX_EVENTS,
                               CampaignPlan, FaultPlan)
from ..faults.kinds import FAULT_REGISTRY
from . import yamlite
from .schema import SchemaError, validate_scenario


@dataclass(frozen=True)
class CompiledScenario:
    """One scenario, validated and bound to concrete run machinery."""

    name: str
    description: str
    source: str
    #: The fully normalized document (defaults applied).
    doc: Dict[str, Any] = field(repr=False)
    #: Sweep mode: the campaign to run.  None in explicit mode.
    campaign: Optional[CampaignPlan] = None
    #: Explicit mode: the fault plan to install.  None for
    #: failure-free (smoke) scenarios and in sweep mode.
    fault_plan: Optional[FaultPlan] = None

    @property
    def mode(self) -> str:
        if self.campaign is not None:
            return "sweep"
        if self.doc["baseline"] is not None:
            return "baseline"
        return "explicit"

    @property
    def baseline(self) -> Optional[Dict[str, Any]]:
        """The normalized ``baseline:`` block (the F5 shootout spec),
        or None outside baseline mode."""
        return self.doc["baseline"]

    @property
    def max_events(self) -> int:
        return self.doc["max_events"] or MAX_EVENTS

    @property
    def workload_recipe(self) -> str:
        return self.doc["workload"]["recipe"]

    @property
    def workload_params(self) -> Dict[str, Any]:
        return dict(self.doc["workload"]["params"])

    @property
    def expect(self) -> Optional[Dict[str, Any]]:
        return self.doc["expect"]

    @property
    def survivable(self) -> bool:
        """The grade the behaviour checks hold the run to."""
        expect = self.expect
        if expect is not None and expect["survivable"] is not None:
            return expect["survivable"]
        if self.fault_plan is not None:
            return self.fault_plan.survivable
        return True

    # ------------------------------------------------------------------
    # explicit-mode machine configs
    # ------------------------------------------------------------------

    def machine_config(self) -> MachineConfig:
        """The faulted run's machine (explicit mode).  Sweep and
        baseline documents keep only the keys their modes accept, so
        for them this is the machine those keys describe."""
        return MachineConfig(
            bus_faults=self._bus_config(),
            **_settings(MACHINE_KNOBS, self.doc["machine"])).validate()

    def baseline_config(self) -> MachineConfig:
        """The failure-free reference machine: identical, except the
        bus is perfect (bus degradation counts as part of the fault
        under test, so the reference never sees it)."""
        config = self.machine_config()
        config.bus_faults = BusFaultConfig()
        return config

    def _bus_config(self) -> BusFaultConfig:
        config = BusFaultConfig(**_settings(BUS_KNOBS, self.doc["bus"]))
        plan = self.fault_plan
        if plan is not None and plan.kind in BUS_FAULT_KINDS:
            # A bus fault kind carries its own rates and stream seed;
            # they take precedence over the ambient bus: section.
            config.loss_rate = plan.params.get("loss_rate", 0.0)
            config.garble_rate = plan.params.get("garble_rate", 0.0)
            config.seed = plan.params.get("bus_seed", config.seed)
        return config.validate()

    # ------------------------------------------------------------------
    # round-trip serialization
    # ------------------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The normalized document with empty sections pruned — the
        round-trip form: ``compile_scenario(canonical())`` yields an
        equal canonical document, and :func:`yamlite.dumps` can emit
        it verbatim."""
        return _prune(self.doc)

    def canonical_yaml(self) -> str:
        return yamlite.dumps(self.canonical())


def _settings(table: Tuple[Knob, ...],
              section: Dict[str, Any]) -> Dict[str, Any]:
    """A scenario section's set keys as config field values; a null or
    absent key keeps the field default."""
    return {spec.name: section[spec.key] for spec in table
            if section.get(spec.key) is not None}


def _prune(value: Any) -> Any:
    """Drop ``None`` values and empty mappings, recursively; what is
    left re-validates to the same normalized document."""
    if isinstance(value, dict):
        pruned = {key: _prune(item) for key, item in value.items()}
        return {key: item for key, item in pruned.items()
                if item is not None and item != {}}
    if isinstance(value, (list, tuple)):
        return [_prune(item) for item in value]
    return value


def compile_scenario(doc: Any, source: str = "") -> CompiledScenario:
    """Validate ``doc`` and bind it: the one entry point from raw
    parsed YAML to something runnable."""
    normalized = validate_scenario(doc, source)
    where = source or "scenario"
    name = normalized["scenario"]
    campaign: Optional[CampaignPlan] = None
    fault_plan: Optional[FaultPlan] = None

    sweep = normalized["sweep"]
    if sweep is not None:
        seeds = sweep["seeds"]
        if isinstance(seeds, int):
            base = sweep["base_seed"]
            seeds = list(range(base, base + seeds))
        bus = normalized["bus"]
        campaign = CampaignPlan(
            seeds=tuple(seeds),
            n_clusters=normalized["machine"]["clusters"],
            kinds=tuple(sweep["kinds"]) if sweep["kinds"] else None,
            loss_rate=bus["loss_rate"] or None,
            garble_rate=bus["garble_rate"] or None,
            max_events=normalized["max_events"] or MAX_EVENTS)

    fault = normalized["fault"]
    if fault is not None:
        entry = FAULT_REGISTRY.get(fault["kind"])
        survivable = (entry.survivable if fault["survivable"] is None
                      else fault["survivable"])
        fault_plan = FaultPlan(fault["kind"], dict(fault["params"]),
                               survivable)
        n_clusters = normalized["machine"]["clusters"]
        for key in ("cluster", "first", "second"):
            cluster = fault["params"].get(key)
            if cluster is not None and not 0 <= cluster < n_clusters:
                raise SchemaError(
                    f"{where}: fault.params.{key}: {cluster} names no "
                    f"cluster of a {n_clusters}-cluster machine "
                    f"(0-{n_clusters - 1})")

    compiled = CompiledScenario(name=name,
                                description=normalized["description"],
                                source=source, doc=normalized,
                                campaign=campaign, fault_plan=fault_plan)
    # Every mode's machine and bus values are checked here, so a value
    # the config rejects is a located schema error, not a failed run.
    try:
        compiled.machine_config()
    except ConfigError as error:
        raise SchemaError(f"{where}: {error}") from None
    return compiled


def load_scenario(path: str) -> CompiledScenario:
    """Parse, validate and compile one scenario file."""
    return compile_scenario(yamlite.load_file(path), source=path)
