"""The declarative scenario subsystem: yamlite, registries, schema,
compilation, and the byte-identity gate against the campaign engine.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.config import BUS_KNOBS, MACHINE_KNOBS, MachineConfig
from repro.faults import CampaignPlan
from repro.faults.kinds import FAULT_REGISTRY, fault_kinds_markdown
from repro.scenario import yamlite
from repro.scenario.compile import compile_scenario, load_scenario
from repro.scenario.registry import (DuplicateNameError, EntryMetadata,
                                     ParamSpec, Registry, RegistryError,
                                     UnknownNameError, validate_params)
from repro.scenario.runner import (run_compiled, run_paths,
                                   scenario_files, validate_paths)
from repro.scenario.schema import (BUS_SPECS, MACHINE_SPECS, SchemaError,
                                   validate_scenario)
from repro.scenario.workloads import WORKLOAD_REGISTRY

REPO = pathlib.Path(__file__).resolve().parent.parent
CORPUS = REPO / "examples" / "scenarios"


# -- yamlite -----------------------------------------------------------


def test_yamlite_parses_the_subset():
    doc = yamlite.loads("""
# full-line comment
scenario: demo
count: 3
rate: 0.25
big: 1_000_000
sci: 1e3
on: true
off: false
nothing: null
quoted: "a: b # not a comment"
inline: [a, 2, 3.5, true, null]
block:
  - first
  - 2
nested:
  inner:
    deep: yes-a-string   # trailing comment
""")
    assert doc == {
        "scenario": "demo", "count": 3, "rate": 0.25,
        "big": 1_000_000, "sci": 1000.0, "on": True, "off": False,
        "nothing": None, "quoted": "a: b # not a comment",
        "inline": ["a", 2, 3.5, True, None],
        "block": ["first", 2],
        "nested": {"inner": {"deep": "yes-a-string"}},
    }


def test_yamlite_round_trip():
    value = {
        "scenario": "rt", "n": 7, "f": 0.5, "t": True, "z": None,
        "s": "needs: quoting", "lst": [1, "two", None],
        "nested": {"a": {"b": "c"}, "empty_list": []},
    }
    assert yamlite.loads(yamlite.dumps(value)) == value


@pytest.mark.parametrize("text,fragment", [
    ("\tkey: 1", "tabs"),
    ("key: &anchor", "unsupported YAML construct"),
    ("key: {a: 1}", "unsupported YAML construct"),
    ("list:\n  - a: 1", "lists of mappings"),
    ("a: 1\na: 2", "duplicate key"),
    ("a:\n    b: 1\n   c: 2", "unexpected indent"),
    ("just a bare line", "expected 'key: value'"),
    ("x: [a, b", "unbalanced inline list"),
    ("x: [a", "unbalanced inline list"),
    ("x: a]", "unbalanced inline list"),
    ('x: "abc', "unterminated quoted scalar"),
    ("x: 'abc", "unterminated quoted scalar"),
])
def test_yamlite_rejects_unsupported_constructs(text, fragment):
    with pytest.raises(yamlite.YamlError) as err:
        yamlite.loads(text, source="doc.yaml")
    assert fragment in str(err.value)
    assert "doc.yaml:" in str(err.value)  # line-numbered


# -- the registry core -------------------------------------------------


def test_registry_duplicate_name_raises():
    registry = Registry("widget")
    registry.register("a", 1, EntryMetadata(description="first"))
    with pytest.raises(DuplicateNameError):
        registry.register("a", 2, EntryMetadata(description="again"))


def test_registry_unknown_name_suggests():
    registry = Registry("widget")
    registry.register("pipeline", 1, EntryMetadata(description="x"))
    with pytest.raises(UnknownNameError) as err:
        registry.get("pipelnie")
    message = str(err.value)
    assert "unknown widget 'pipelnie'" in message
    assert "did you mean 'pipeline'?" in message
    assert err.value.suggestion == "pipeline"


def test_validate_params_unknown_key_and_choices():
    specs = {
        "stages": ParamSpec(int, "stages", default=3),
        "mode": ParamSpec(str, "mode", default=None, nullable=True,
                          choices=("quarterback", "halfback")),
    }
    with pytest.raises(RegistryError) as err:
        validate_params({"stgaes": 4}, specs, "workload.params")
    assert "did you mean 'stages'?" in str(err.value)
    with pytest.raises(RegistryError) as err:
        validate_params({"mode": "quarterbck"}, specs, "w")
    assert "did you mean 'quarterback'?" in str(err.value)
    # bool is not an int; ints coerce to float params, not vice versa
    with pytest.raises(RegistryError):
        validate_params({"stages": True}, specs, "w")
    assert validate_params({}, specs, "w") == {"stages": 3,
                                               "mode": None}


# -- schema ------------------------------------------------------------


def _base_doc(**extra):
    doc = {"scenario": "t", "workload": {"recipe": "pipeline"}}
    doc.update(extra)
    return doc


def test_schema_rejects_unknown_top_level_key():
    with pytest.raises(SchemaError) as err:
        validate_scenario(_base_doc(workloda={"recipe": "tty"}))
    assert "did you mean 'workload'?" in str(err.value)


def test_schema_rejects_unknown_recipe_and_kind():
    with pytest.raises(SchemaError) as err:
        validate_scenario({"scenario": "t",
                           "workload": {"recipe": "pipelin"}})
    assert "did you mean 'pipeline'?" in str(err.value)
    with pytest.raises(SchemaError) as err:
        validate_scenario(_base_doc(fault={"kind": "time_crsh",
                                           "params": {"cluster": 0,
                                                      "at": 5000}}))
    assert "did you mean 'time_crash'?" in str(err.value)


def test_schema_rejects_unknown_fault_param():
    with pytest.raises(SchemaError) as err:
        validate_scenario(_base_doc(
            fault={"kind": "time_crash",
                   "params": {"cluster": 0, "att": 5000}}))
    assert "did you mean 'at'?" in str(err.value)


def test_schema_rejects_bad_enum_value():
    with pytest.raises(SchemaError) as err:
        validate_scenario(_base_doc(
            workload={"recipe": "pipeline",
                      "params": {"mode": "fulback"}}))
    assert "did you mean 'fullback'?" in str(err.value)


def test_schema_sweep_and_fault_are_exclusive():
    with pytest.raises(SchemaError) as err:
        validate_scenario({"scenario": "t", "sweep": {"seeds": 2},
                           "fault": {"kind": "time_crash",
                                     "params": {"cluster": 0,
                                                "at": 1}}})
    assert "mutually exclusive" in str(err.value)


def test_schema_sweep_rejects_campaign_owned_knobs():
    with pytest.raises(SchemaError) as err:
        validate_scenario({"scenario": "t", "sweep": {"seeds": 2},
                           "machine": {"poll_interval": 4}})
    assert "sweep mode" in str(err.value)
    with pytest.raises(SchemaError) as err:
        validate_scenario({"scenario": "t", "sweep": {"seeds": 2},
                           "workload": {"recipe": "tty"}})
    assert "'generated'" in str(err.value)


def test_schema_missing_required_param_names_it():
    with pytest.raises(SchemaError) as err:
        validate_scenario(_base_doc(
            fault={"kind": "time_crash", "params": {"cluster": 0}}))
    assert "missing required key 'at'" in str(err.value)


# -- compile and round-trip -------------------------------------------


def test_compile_round_trips_through_canonical_yaml():
    every_machine_key = _base_doc(machine={
        "clusters": 5, "sync_reads_threshold": 4,
        "sync_time_threshold": 90_000, "poll_interval": 30_000,
        "server_sync_requests": 8, "seed": 3})
    docs = [(path.name, yamlite.loads(path.read_text()))
            for path in sorted(CORPUS.glob("*.yaml"))]
    for name, doc in docs + [("every-machine-key", every_machine_key)]:
        compiled = compile_scenario(doc, source=name)
        reparsed = compile_scenario(
            yamlite.loads(compiled.canonical_yaml()), source="rt")
        assert reparsed.canonical() == compiled.canonical(), name


def test_compile_sweep_builds_campaign_plan():
    compiled = compile_scenario({
        "scenario": "s",
        "sweep": {"seeds": 4, "base_seed": 10,
                  "kinds": ["time_crash", "proc_fail"]},
        "machine": {"clusters": 4},
    })
    assert compiled.mode == "sweep"
    assert compiled.campaign == CampaignPlan(
        seeds=(10, 11, 12, 13), n_clusters=4,
        kinds=("time_crash", "proc_fail"))


def test_corpus_validates_and_covers_every_fault_kind():
    paths = scenario_files(str(CORPUS))
    assert len(paths) >= 10
    assert all(error is None for _, error in validate_paths(paths))
    covered = set()
    for path in paths:
        compiled = load_scenario(path)
        if compiled.fault_plan is not None:
            covered.add(compiled.fault_plan.kind)
        elif compiled.campaign is not None:
            kinds = compiled.campaign.kinds or FAULT_REGISTRY.names()
            seeds = compiled.campaign.seeds
            covered.update(kinds[seed % len(kinds)] for seed in seeds)
    assert covered == set(FAULT_REGISTRY.names())


def test_corpus_includes_backpressure_smokes():
    recipes = {load_scenario(path).workload_recipe
               for path in scenario_files(str(CORPUS))}
    assert "flood" in recipes


# -- the byte-identity gate -------------------------------------------


SWEEP_YAML = """
scenario: identity-gate
sweep:
  seeds: 6
  base_seed: 0
  kinds: [time_crash, sync_crash, proc_fail]
"""


def test_scenario_sweep_report_is_byte_identical_to_python_plan():
    compiled = compile_scenario(yamlite.loads(SWEEP_YAML), "gate")
    reference = CampaignPlan(
        seeds=tuple(range(6)),
        kinds=("time_crash", "sync_crash", "proc_fail")).run(jobs=1)
    expected = json.dumps(reference.as_dict(), sort_keys=True)
    serial = run_compiled(compiled, jobs=1)
    assert json.dumps(serial.report, sort_keys=True) == expected
    parallel = run_compiled(compiled, jobs=2)
    assert json.dumps(parallel.report, sort_keys=True) == expected
    assert serial.passed and parallel.passed


# -- explicit-mode execution ------------------------------------------


def test_explicit_scenario_runs_and_checks(tmp_path):
    path = tmp_path / "crash.yaml"
    path.write_text("""
scenario: tiny-crash
workload:
  recipe: tty
  params:
    writers: 2
    lines: 5
machine:
  clusters: 3
fault:
  kind: time_crash
  params:
    cluster: 1
    at: 9000
""")
    outcomes = run_paths([str(path)])
    assert len(outcomes) == 1
    outcome = outcomes[0]
    assert outcome.mode == "explicit"
    assert outcome.passed, outcome.violations
    assert outcome.fault == "time_crash(at=9000 cluster=1)"
    assert outcome.digest


def test_explicit_counter_expectations_fail_loudly(tmp_path):
    path = tmp_path / "bounds.yaml"
    path.write_text("""
scenario: impossible-bounds
workload:
  recipe: tty
  params:
    writers: 1
    lines: 3
expect:
  counters:
    bus.transmissions:
      max: 0
""")
    outcome = run_paths([str(path)])[0]
    assert not outcome.passed
    assert any("bus.transmissions" in violation
               for violation in outcome.violations)


def test_explicit_scenario_exception_is_one_unjudged_violation(
        monkeypatch):
    """A faulted run that raises something other than the event-budget
    ``SimulationError`` fails its scenario with that one exception as
    its violation, unjudged; both of its machines are closed and the
    corpus goes on to the next file."""
    from repro import Machine

    def refuse(kernel, record, crashed):
        raise RuntimeError("promotion refused")

    closed = []
    close = Machine.close

    def counting_close(machine):
        closed.append(machine)
        close(machine)

    monkeypatch.setattr("repro.recovery.rollforward.promote", refuse)
    monkeypatch.setattr(Machine, "close", counting_close)
    outcomes = run_paths([str(CORPUS / "crash-mid-pipeline.yaml"),
                          str(CORPUS / "smoke-flood.yaml")])
    assert len(outcomes) == 2
    assert not outcomes[0].passed
    assert outcomes[0].violations == [
        "simulation: RuntimeError: promotion refused"]
    assert outcomes[1].passed, outcomes[1].violations
    # A reference and a faulted machine per scenario.
    assert len(closed) == 4


def test_explicit_scenario_is_not_judged_against_a_truncated_reference():
    """A reference run that exhausts its budget leaves nothing to judge
    against: the scenario reports the two budget violations and no
    check's verdict on a half-finished run."""
    doc = yamlite.loads((CORPUS / "crash-mid-pipeline.yaml").read_text())
    doc["max_events"] = 300
    outcome = run_compiled(compile_scenario(doc, "budget"))
    assert not outcome.passed
    assert [violation.split(":")[0] for violation in outcome.violations] \
        == ["reference run", "simulation"]
    assert all("did not go idle within 300 events" in violation
               for violation in outcome.violations)


def test_runner_turns_schema_errors_into_failed_outcomes(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("scenario: broken\nworkload:\n  recipe: nope\n")
    outcome = run_paths([str(path)])[0]
    assert outcome.mode == "error"
    assert not outcome.passed
    assert "did you mean" in outcome.violations[0]


def test_validate_rejects_a_retired_engine_block(tmp_path, capsys):
    """Documents naming retired features, or values the machine cannot
    take, fail ``scenario validate`` against the file with exit 2 and
    no traceback.  The simulator has one engine, so an ``engine:``
    section is an unknown top-level key; server inboxes are unbounded,
    so the inbox knobs are unknown machine keys; machines are sized by
    ``clusters:`` alone, so ``shape:`` is an unknown machine key; every
    scenario is judged by the same checks, so ``invariants:`` is an
    unknown expect key; heartbeat is a ``machine: detector:``, so
    ``services:`` is an unknown top-level key.  A machine or bus value
    the config rejects, and a fault aimed at a cluster the machine does
    not have, are schema errors too.  The retired config fields and the
    service package are gone."""
    from repro.cli import main

    pipeline = "workload:\n  recipe: pipeline\n"
    cases = {
        "engine.yaml": (pipeline + "engine:\n  queue: ladder\n",
                        "unknown top-level key 'engine'"),
        "limit.yaml": (pipeline + "machine:\n  server_inbox_limit: 2\n",
                       "machine: unknown key 'server_inbox_limit'"),
        "policy.yaml": (pipeline
                        + "machine:\n  server_inbox_policy: defer\n",
                        "machine: unknown key 'server_inbox_policy'"),
        "shape.yaml": (pipeline + "machine:\n  shape: small\n",
                       "machine: unknown key 'shape'"),
        "invariants.yaml": (pipeline
                            + "expect:\n  invariants: [runnability]\n",
                            "expect: unknown key 'invariants'"),
        "services.yaml": (pipeline
                          + "services:\n  heartbeat:\n"
                            "    interval: -5\n",
                          "unknown top-level key 'services'"),
        "intervl.yaml": (pipeline
                         + "machine:\n  heartbeat_intervl: 5\n",
                         "machine: unknown key 'heartbeat_intervl'"),
        "interval.yaml": (pipeline
                          + "machine:\n  detector: heartbeat\n"
                            "  heartbeat_interval: -5\n",
                          "heartbeat_interval must be >= 1"),
        "clusters.yaml": (pipeline + "machine:\n  clusters: 99\n",
                          "supports 2-32 clusters, got 99"),
        "sweep-clusters.yaml": ("machine:\n  clusters: 1\n"
                                "sweep:\n  seeds: 2\n",
                                "supports 2-32 clusters, got 1"),
        "poll.yaml": (pipeline + "machine:\n  poll_interval: 0\n",
                      "poll_interval must be >= 1"),
        "sync-0.yaml": (pipeline + "machine:\n  server_sync_requests: 0\n",
                        "server_sync_requests must be >= 1"),
        "sync-neg.yaml": (pipeline
                          + "machine:\n  server_sync_requests: -1\n",
                          "server_sync_requests must be >= 1"),
        "loss.yaml": (pipeline + "bus:\n  loss_rate: 2.0\n",
                      "loss_rate must be in [0, 1), got 2.0"),
        "victim.yaml": (pipeline
                        + "fault:\n  kind: time_crash\n  params:\n"
                          "    cluster: 7\n    at: 100\n",
                        "fault.params.cluster: 7 names no cluster of "
                        "a 3-cluster machine"),
    }
    for name, (body, error) in cases.items():
        path = tmp_path / name
        path.write_text("scenario: old\n" + body)
        assert main(["scenario", "validate", str(path)]) == 2
        out = capsys.readouterr().out
        assert f"{path}: " in out and error in out, name
        assert "Traceback" not in out
    with pytest.raises(TypeError):
        MachineConfig(server_inbox_limit=2)
    with pytest.raises(TypeError):
        MachineConfig(resilience=None)
    with pytest.raises(ModuleNotFoundError):
        import repro.resilience  # noqa: F401


# -- machine: and bus: knobs --------------------------------------------

KNOBS = [("machine", spec) for spec in MACHINE_KNOBS] \
    + [("bus", spec) for spec in BUS_KNOBS]


def _knob_ids(params):
    return [f"{section}.{spec.key}" for section, spec in params]


def _knob_doc(section, key, value):
    return {"scenario": "knob",
            "workload": {"recipe": "tty",
                         "params": {"writers": 1, "lines": 2}},
            section: {key: value}}


@pytest.mark.parametrize("section,spec", KNOBS,
                         ids=_knob_ids(KNOBS))
def test_each_scenario_knob_sets_its_field(section, spec):
    if spec.choices is not None:
        value = next(choice for choice in spec.choices
                     if choice != spec.default)
    elif isinstance(spec.default, float):
        value = 0.25
    else:
        value = spec.default + 1
    compiled = compile_scenario(_knob_doc(section, spec.key, value),
                                source="knob.yaml")
    config = compiled.machine_config()
    if section == "bus":
        config = config.bus_faults
    assert getattr(config, spec.name) == value != spec.default


BOUNDED = [(section, spec) for section, spec in KNOBS if spec.error]


@pytest.mark.parametrize("section,spec", BOUNDED,
                         ids=_knob_ids(BOUNDED))
def test_each_scenario_knob_rejects_an_out_of_range_value(section, spec):
    if spec.choices is not None:
        value = "bogus"
    elif spec.below is not None:
        value = spec.below
    else:
        value = spec.min - 1
    with pytest.raises(SchemaError, match=r"^knob\.yaml: .*"
                       + spec.key):
        compile_scenario(_knob_doc(section, spec.key, value),
                         source="knob.yaml")


def _doc_table(heading):
    """The rows of the docs/scenarios.md table whose header starts with
    ``heading``: ``(key, default, range, meaning)`` per row."""
    lines = (REPO / "docs" / "scenarios.md").read_text().splitlines()
    start = lines.index(next(line for line in lines
                             if line.startswith(f"| {heading}")))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`")
                          for cell in line.strip("|").split("|")))
    return rows


def _doc_range(spec):
    if spec.choices is not None:
        return "`, `".join(spec.choices)
    if isinstance(spec.below, int) and isinstance(spec.default, int):
        return f"{spec.min}-{spec.below - 1}"
    if spec.below is not None:
        return f"[{spec.min}, {spec.below})"
    if spec.min is not None:
        return f">= {spec.min}"
    return "any"


@pytest.mark.parametrize("heading,table,specs", [
    ("`machine:` key", MACHINE_KNOBS, MACHINE_SPECS),
    ("`bus:` key", BUS_KNOBS, BUS_SPECS),
], ids=["machine", "bus"])
def test_docs_list_the_generated_knobs(heading, table, specs):
    rows = _doc_table(heading)
    assert [row[0] for row in rows] == list(specs)
    for (key, default, legal, meaning), spec in zip(rows, table):
        assert default == str(spec.default), key
        assert legal == _doc_range(spec), key
        assert meaning.startswith(spec.description), key


def test_run_paths_reports_a_bad_machine_value_and_runs_the_rest(
        tmp_path):
    bad = tmp_path / "a-bad.yaml"
    bad.write_text("scenario: bad\nworkload:\n  recipe: tty\n"
                   "machine:\n  clusters: 99\n")
    good = tmp_path / "b-good.yaml"
    good.write_text("scenario: good\nworkload:\n  recipe: tty\n"
                    "  params:\n    writers: 1\n    lines: 2\n")
    outcomes = run_paths(scenario_files(str(tmp_path)))
    assert [(item.name, item.mode, item.passed) for item in outcomes] \
        == [("a-bad.yaml", "error", False), ("good", "explicit", True)]
    assert outcomes[0].violations[0].startswith(f"{bad}: ")


# -- plugin registration end to end -----------------------------------


def test_new_workload_plugin_is_reachable_from_yaml():
    from repro.scenario.workloads import register_workload

    def build(machine, params):
        return []

    register_workload("test_noop", build,
                      EntryMetadata(description="temporary"))
    try:
        compiled = compile_scenario(
            {"scenario": "p", "workload": {"recipe": "test_noop"}})
        assert compiled.workload_recipe == "test_noop"
    finally:
        WORKLOAD_REGISTRY.remove("test_noop")
    with pytest.raises(SchemaError):
        compile_scenario({"scenario": "p",
                          "workload": {"recipe": "test_noop"}})


# -- docs cannot drift -------------------------------------------------


def test_docs_fault_table_matches_registry():
    import re
    text = (REPO / "docs" / "faults.md").read_text()
    match = re.search(
        r"<!-- fault-kinds:begin[^>]*-->\n(.*?)\n<!-- fault-kinds:end -->",
        text, re.S)
    assert match, "docs/faults.md lost its fault-kinds markers"
    assert match.group(1) == fault_kinds_markdown()
