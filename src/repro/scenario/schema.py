"""The scenario-document schema: structure, types, and cross-rules.

:func:`validate_scenario` takes the raw mapping out of
:mod:`~repro.scenario.yamlite` and returns a fully normalized document
(every section present, every default applied) or raises
:class:`SchemaError` naming the offending key path, with did-you-mean
suggestions for unknown keys and enum values.

A scenario document has two mutually exclusive modes:

* **sweep** — a ``sweep:`` section compiles the document onto
  :class:`~repro.faults.campaign.CampaignPlan`: many seeds, the
  stratified fault-kind mix, the full invariant battery per seed.
* **explicit** — a ``fault:`` section (or none, for failure-free
  smoke runs) builds one workload on one machine, optionally installs
  one fault plan, and judges the run with the same invariant checks
  plus any ``expect:`` counter bounds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..config import BUS_KNOBS, MACHINE_KNOBS, Knob
from ..faults.kinds import FAULT_REGISTRY
from .registry import (ParamSpec, RegistryError, unknown_name_message,
                       validate_params)
from .workloads import WORKLOAD_REGISTRY


class SchemaError(RegistryError):
    """A scenario document violated the schema."""


# ----------------------------------------------------------------------
# section schemas
# ----------------------------------------------------------------------

TOP_LEVEL_KEYS: Tuple[str, ...] = (
    "scenario", "description", "workload", "machine", "bus",
    "sweep", "fault", "baseline", "expect", "max_events")

def _knob_specs(table: Tuple[Knob, ...]) -> Dict[str, ParamSpec]:
    """A config's knobs as a scenario section's schema, keyed by
    scenario key.  A nullable knob defaults to null (keep the config
    default); the others default to the field default."""
    return {spec.key: ParamSpec(type(spec.default), spec.description,
                                default=None if spec.nullable
                                else spec.default,
                                choices=spec.choices,
                                nullable=spec.nullable)
            for spec in table}


#: ``machine:`` — the MachineConfig knobs (``clusters`` sets
#: ``n_clusters``).
MACHINE_SPECS = _knob_specs(MACHINE_KNOBS)

#: ``bus:`` — the degraded-bus fault model (BusFaultConfig).
BUS_SPECS = _knob_specs(BUS_KNOBS)

#: ``workload:`` — a registered recipe plus its params.
WORKLOAD_SPECS: Dict[str, ParamSpec] = {
    "recipe": ParamSpec(str, "workload recipe name",
                        default="generated"),
    "params": ParamSpec(dict, "recipe parameters", default=None,
                        nullable=True),
}

#: ``sweep:`` — compile onto CampaignPlan.
SWEEP_SPECS: Dict[str, ParamSpec] = {
    "seeds": ParamSpec((int, list),
                       "seed count (int) or explicit seed list"),
    "base_seed": ParamSpec(int, "first seed when seeds is a count",
                           default=0),
    "kinds": ParamSpec(list, "fault kinds to stratify over "
                             "(null: every kind)",
                       default=None, nullable=True),
}

#: ``fault:`` — one explicit fault plan.
FAULT_SPECS: Dict[str, ParamSpec] = {
    "kind": ParamSpec(str, "fault kind name"),
    "params": ParamSpec(dict, "fault-kind parameters", default=None,
                        nullable=True),
    "survivable": ParamSpec(bool,
                            "override the kind's survivability grade",
                            default=None, nullable=True),
}

#: ``baseline:`` — the recovery-design shootout (experiment F5): run
#: every named design over the OLTP bank workload under every named
#: fault kind and report the recovery-time / p99-under-fault matrix.
BASELINE_SPECS: Dict[str, ParamSpec] = {
    "kinds": ParamSpec(list, "fault kinds to sweep the designs over"),
    "designs": ParamSpec(list, "recovery designs to compare "
                               "(null: all four)",
                         default=None, nullable=True),
    "clients": ParamSpec(int, "bank clients", default=3),
    "txns_per_client": ParamSpec(int, "transfers per client",
                                 default=12),
}

#: ``expect:`` — what the run is judged on (explicit mode).
EXPECT_SPECS: Dict[str, ParamSpec] = {
    "counters": ParamSpec(dict, "metric-counter bounds "
                                "(name -> min/max/equals)",
                          default=None, nullable=True),
    "survivable": ParamSpec(bool, "grade the behaviour checks expect",
                            default=None, nullable=True),
}

COUNTER_BOUND_SPECS: Dict[str, ParamSpec] = {
    "min": ParamSpec(int, "inclusive lower bound", default=None,
                     nullable=True),
    "max": ParamSpec(int, "inclusive upper bound", default=None,
                     nullable=True),
    "equals": ParamSpec(int, "exact expected value", default=None,
                        nullable=True),
}

#: Keys a sweep-mode scenario may set per section (the campaign
#: machinery owns everything else, by design — that is what keeps
#: scenario-compiled campaigns byte-identical to Python-built ones).
SWEEP_ALLOWED = {
    "machine": ("clusters",),
    "bus": ("loss_rate", "garble_rate"),
}


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def _require_mapping(value: Any, where: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: must be a mapping, "
                          f"got {type(value).__name__}")
    return value


def _int_list(value: Any, where: str) -> List[int]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: must be a list of integers")
    out: List[int] = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise SchemaError(f"{where}: must be a list of integers, "
                              f"found {item!r}")
        out.append(item)
    return out


def _name_list(value: Any, registry, where: str) -> List[str]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: must be a list of names")
    for item in value:
        if not isinstance(item, str):
            raise SchemaError(f"{where}: must be a list of names, "
                              f"found {item!r}")
        if item not in registry:
            raise SchemaError(f"{where}: " + unknown_name_message(
                registry.what, item, registry.names()))
    return list(value)


def validate_scenario(doc: Any, source: str = "") -> Dict[str, Any]:
    """Validate and normalize one scenario document.

    Returns a document with every section present and every default
    applied; raises :class:`SchemaError` on any violation.
    """
    where = source or "scenario"
    doc = _require_mapping(doc, where)
    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            raise SchemaError(f"{where}: " + unknown_name_message(
                "top-level key", key, TOP_LEVEL_KEYS))

    name = doc.get("scenario")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{where}: 'scenario:' must name the "
                          f"scenario (a non-empty string)")
    description = doc.get("description", "")
    if description is None:
        description = ""
    if not isinstance(description, str):
        raise SchemaError(f"{where}: description: must be a string")

    max_events = doc.get("max_events")
    if max_events is not None and (isinstance(max_events, bool)
                                   or not isinstance(max_events, int)
                                   or max_events < 1):
        raise SchemaError(f"{where}: max_events: must be a positive "
                          f"integer")

    try:
        machine = validate_params(
            _require_mapping(doc.get("machine"), "machine"),
            MACHINE_SPECS, "machine")
        bus = validate_params(
            _require_mapping(doc.get("bus"), "bus"),
            BUS_SPECS, "bus")
        workload = validate_params(
            _require_mapping(doc.get("workload"), "workload"),
            WORKLOAD_SPECS, "workload")
    except RegistryError as error:
        raise SchemaError(f"{where}: {error}") from None

    recipe = workload["recipe"]
    if recipe not in WORKLOAD_REGISTRY:
        raise SchemaError(f"{where}: workload.recipe: "
                          + unknown_name_message(
                              "workload recipe", recipe,
                              WORKLOAD_REGISTRY.names()))
    try:
        workload["params"] = validate_params(
            workload["params"],
            WORKLOAD_REGISTRY.metadata(recipe).params,
            "workload.params")
    except RegistryError as error:
        raise SchemaError(f"{where}: {error}") from None

    sweep = doc.get("sweep")
    fault = doc.get("fault")
    baseline = doc.get("baseline")
    modes = [key for key, value in (("sweep", sweep), ("fault", fault),
                                    ("baseline", baseline))
             if value is not None]
    if len(modes) > 1:
        raise SchemaError(f"{where}: " + " and ".join(
            f"'{mode}:'" for mode in modes) + " are mutually "
            "exclusive — a scenario is a seeded campaign sweep, one "
            "explicit fault plan, or a recovery-design baseline "
            "shootout")

    normalized: Dict[str, Any] = {
        "scenario": name,
        "description": description,
        "workload": workload,
        "machine": machine,
        "bus": bus,
        "sweep": None,
        "fault": None,
        "baseline": None,
        "expect": _validate_expect(doc.get("expect"), where),
        "max_events": max_events,
    }

    if sweep is not None:
        normalized["sweep"] = _validate_sweep(sweep, where)
        _check_sweep_constraints(doc, normalized, where)
        # The campaign machinery owns every key sweep mode rejects;
        # drop the defaults those sections just picked up so the
        # normalized document itself re-validates (the canonical
        # round-trip contract).
        normalized["workload"]["params"] = None
        for section, allowed in SWEEP_ALLOWED.items():
            normalized[section] = {key: normalized[section][key]
                                   for key in allowed}
    elif fault is not None:
        normalized["fault"] = _validate_fault(fault, where)
    elif baseline is not None:
        normalized["baseline"] = _validate_baseline(baseline, where)
        _check_baseline_constraints(doc, normalized, where)
    return normalized


def _validate_sweep(sweep: Any, where: str) -> Dict[str, Any]:
    try:
        sweep = validate_params(_require_mapping(sweep, "sweep"),
                                SWEEP_SPECS, "sweep")
    except RegistryError as error:
        raise SchemaError(f"{where}: {error}") from None
    seeds = sweep["seeds"]
    if isinstance(seeds, list):
        sweep["seeds"] = _int_list(seeds, f"{where}: sweep.seeds")
        if not sweep["seeds"]:
            raise SchemaError(f"{where}: sweep.seeds: must not be "
                              f"empty")
    elif seeds < 1:
        raise SchemaError(f"{where}: sweep.seeds: a seed count must "
                          f"be >= 1")
    if sweep["kinds"] is not None:
        sweep["kinds"] = _name_list(sweep["kinds"], FAULT_REGISTRY,
                                    f"{where}: sweep.kinds")
    return sweep


def _validate_baseline(baseline: Any, where: str) -> Dict[str, Any]:
    from ..baselines.designs import DESIGN_REGISTRY

    try:
        baseline = validate_params(
            _require_mapping(baseline, "baseline"),
            BASELINE_SPECS, "baseline")
    except RegistryError as error:
        raise SchemaError(f"{where}: {error}") from None
    baseline["kinds"] = _name_list(baseline["kinds"], FAULT_REGISTRY,
                                   f"{where}: baseline.kinds")
    if baseline["designs"] is not None:
        baseline["designs"] = _name_list(
            baseline["designs"], DESIGN_REGISTRY,
            f"{where}: baseline.designs")
    return baseline


def _check_baseline_constraints(doc: Mapping[str, Any],
                                normalized: Mapping[str, Any],
                                where: str) -> None:
    """Baseline mode owns its workload (the OLTP bank) and its
    machines (one per design x kind cell, built by the shootout
    harness); sections that cannot reach those machines are rejected,
    not ignored."""
    if normalized["expect"] is not None:
        raise SchemaError(
            f"{where}: 'expect:' is an explicit-mode section; a "
            f"baseline shootout is judged on cell completion")
    given = _require_mapping(doc.get("workload"), "workload")
    if given:
        raise SchemaError(
            f"{where}: 'workload:' is fixed in baseline mode (the "
            f"shootout always runs the OLTP bank workload)")
    for section, allowed in SWEEP_ALLOWED.items():
        for key in _require_mapping(doc.get(section), section):
            if section == "bus" or key not in allowed:
                raise SchemaError(
                    f"{where}: {section}.{key}: not available in "
                    f"baseline mode (fault plans carry their own bus "
                    f"rates); baseline scenarios may set "
                    + ", ".join(f"machine.{name}"
                                for name in SWEEP_ALLOWED["machine"]))
    # Null the owned sections entirely so the canonical round-trip
    # emits no workload/bus at all (this very check rejects them).
    normalized["workload"] = {"recipe": None, "params": None}
    normalized["machine"] = {
        key: normalized["machine"][key]
        for key in SWEEP_ALLOWED["machine"]}
    normalized["bus"] = {}


def _check_sweep_constraints(doc: Mapping[str, Any],
                             normalized: Mapping[str, Any],
                             where: str) -> None:
    """Sweep mode delegates wholesale to the campaign machinery; any
    knob the campaign does not take is rejected, not ignored."""
    if normalized["expect"] is not None:
        raise SchemaError(
            f"{where}: 'expect:' is an explicit-mode section; a sweep "
            f"always runs the full invariant battery per seed")
    if normalized["workload"]["recipe"] != "generated":
        raise SchemaError(
            f"{where}: workload.recipe: a sweep always uses the "
            f"'generated' workload (per-seed scenarios come from the "
            f"campaign's workload generator), "
            f"got {normalized['workload']['recipe']!r}")
    given = _require_mapping(doc.get("workload"), "workload")
    if given.get("params"):
        raise SchemaError(
            f"{where}: workload.params: a sweep derives workload "
            f"parameters from each seed; params are not accepted")
    for section, allowed in SWEEP_ALLOWED.items():
        for key in _require_mapping(doc.get(section), section):
            if key not in allowed:
                raise SchemaError(
                    f"{where}: {section}.{key}: not available in "
                    f"sweep mode (the campaign machinery owns it); "
                    f"sweep scenarios may set "
                    + ", ".join(f"{section}.{name}"
                                for name in allowed))


def _validate_fault(fault: Any, where: str) -> Dict[str, Any]:
    try:
        fault = validate_params(_require_mapping(fault, "fault"),
                                FAULT_SPECS, "fault")
    except RegistryError as error:
        raise SchemaError(f"{where}: {error}") from None
    kind = fault["kind"]
    if kind not in FAULT_REGISTRY:
        raise SchemaError(f"{where}: fault.kind: "
                          + unknown_name_message(
                              "fault kind", kind,
                              FAULT_REGISTRY.names()))
    try:
        fault["params"] = validate_params(
            fault["params"], FAULT_REGISTRY.metadata(kind).params,
            "fault.params")
    except RegistryError as error:
        raise SchemaError(f"{where}: {error}") from None
    return fault


def _validate_expect(expect: Any,
                     where: str) -> Optional[Dict[str, Any]]:
    if expect is None:
        return None
    try:
        expect = validate_params(_require_mapping(expect, "expect"),
                                 EXPECT_SPECS, "expect")
    except RegistryError as error:
        raise SchemaError(f"{where}: {error}") from None
    counters: Dict[str, Dict[str, Optional[int]]] = {}
    for counter, bounds in (expect["counters"] or {}).items():
        try:
            bounds = validate_params(
                _require_mapping(bounds, f"expect.counters.{counter}"),
                COUNTER_BOUND_SPECS, f"expect.counters.{counter}")
        except RegistryError as error:
            raise SchemaError(f"{where}: {error}") from None
        if all(bounds[key] is None for key in ("min", "max", "equals")):
            raise SchemaError(
                f"{where}: expect.counters.{counter}: set at least "
                f"one of min, max, equals")
        if bounds["equals"] is not None and (
                bounds["min"] is not None or bounds["max"] is not None):
            raise SchemaError(
                f"{where}: expect.counters.{counter}: equals excludes "
                f"min/max")
        counters[counter] = bounds
    expect["counters"] = counters
    return expect
