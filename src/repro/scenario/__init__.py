"""Declarative scenarios: a YAML DSL compiled onto the campaign engine.

The subsystem has four layers (see ``docs/scenarios.md``):

* :mod:`repro.scenario.registry` — the generic name -> entry/metadata
  table everything plugs into.  Dependency-free, so lower layers (the
  fault-kind registry lives in :mod:`repro.faults.kinds`) can host
  registries without import cycles.
* :mod:`repro.scenario.yamlite` — a tiny hand-rolled YAML-subset
  parser/serializer (mappings, scalar lists, comments); no third-party
  dependency.
* :mod:`repro.scenario.schema` / :mod:`repro.scenario.compile` — the
  scenario file schema, validated with precise "unknown key, did you
  mean ...?" errors, compiled onto the existing
  :class:`~repro.faults.campaign.CampaignPlan` /
  :class:`~repro.faults.campaign.FaultPlan` machinery.  A
  scenario-compiled campaign produces **byte-identical** reports to the
  equivalent Python-built one.
* :mod:`repro.scenario.runner` — executes one file or a whole corpus
  directory (``repro scenario run examples/scenarios/``), honoring
  ``--jobs`` and the reference cache.

Workload recipes register in :mod:`repro.scenario.workloads`; every
scenario is judged by the invariant checks in
:mod:`repro.faults.invariants`.

Submodules that depend on the simulator are imported lazily (PEP 562)
so ``repro.faults`` can import :mod:`repro.scenario.registry` without
dragging the whole scenario layer — or a cycle — in.
"""

from __future__ import annotations

from .registry import (DuplicateNameError, EntryMetadata, ParamSpec,
                       Registry, RegistryError, UnknownNameError,
                       suggest, unknown_name_message, validate_params)

#: Lazily resolved public names -> defining submodule.
_LAZY = {
    "YamlError": "yamlite",
    "loads": "yamlite",
    "dumps": "yamlite",
    "load_file": "yamlite",
    "SchemaError": "schema",
    "validate_scenario": "schema",
    "CompiledScenario": "compile",
    "compile_scenario": "compile",
    "load_scenario": "compile",
    "WORKLOAD_REGISTRY": "workloads",
    "register_workload": "workloads",
    "ScenarioOutcome": "runner",
    "corpus_report": "runner",
    "run_compiled": "runner",
    "run_paths": "runner",
    "scenario_files": "runner",
    "validate_paths": "runner",
}

__all__ = [
    "DuplicateNameError", "EntryMetadata", "ParamSpec", "Registry",
    "RegistryError", "UnknownNameError", "suggest",
    "unknown_name_message", "validate_params",
] + sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
