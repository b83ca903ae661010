"""Tests for the resilience service layer (repro.resilience).

Three layers of coverage:

* **byte identity** — with the service off no monitor is ever
  built and the fault campaign's report is byte-identical to the
  pinned pre-resilience artifact (the PR's hard constraint);
* **detector races** — heartbeat and poll detection funnel into the
  same idempotent crash handling (no double promotion whichever wins),
  and bus-loss false positives are refuted without promoting anyone;
* **plumbing** — registry validation, the ``services:`` block and the
  docs drift gate.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import BackupMode, Machine, MachineConfig
from repro.config import BusFaultConfig, ConfigError, ResilienceConfig
from repro.faults.campaign import run_campaign
from repro.resilience.registry import (SERVICE_REGISTRY, apply_services,
                                       resilience_services_markdown,
                                       service_names)
from repro.scenario.compile import compile_scenario
from repro.scenario.registry import UnknownNameError
from repro.workloads import TtyWriterProgram

ROOT = Path(__file__).resolve().parent.parent


def resilient_machine(n_clusters=3, trace=False, bus=None, services=None,
                      **overrides):
    """A machine with selected resilience services switched on."""
    config = MachineConfig(n_clusters=n_clusters, trace_enabled=trace)
    for key, value in (services or {}).items():
        setattr(config.resilience, key, value)
    if bus is not None:
        config.bus_faults = bus
    for key, value in overrides.items():
        setattr(config, key, value)
    return Machine(config.validate())


# ----------------------------------------------------------------------
# registry and docs drift gate
# ----------------------------------------------------------------------

def test_registry_lists_heartbeat_only():
    assert tuple(service_names()) == ("heartbeat",)


def test_docs_table_matches_registry():
    """docs/resilience.md carries the generated service table verbatim
    between markers — regenerating must be a no-op."""
    text = (ROOT / "docs" / "resilience.md").read_text()
    match = re.search(
        r"<!-- resilience-services:begin[^>]*-->\n(.*?)\n"
        r"<!-- resilience-services:end -->", text, re.S)
    assert match is not None, "markers missing from docs/resilience.md"
    assert match.group(1) == resilience_services_markdown()


def test_every_service_documents_every_knob():
    for name, spec, metadata in SERVICE_REGISTRY.items():
        assert set(spec.knobs) == set(metadata.params), name


# ----------------------------------------------------------------------
# byte identity with services disabled
# ----------------------------------------------------------------------

def test_disabled_config_installs_no_layer():
    machine = Machine(MachineConfig(n_clusters=3,
                                    trace_enabled=False).validate())
    assert machine.heartbeat is None
    assert all(kernel.heartbeat is None for kernel in machine.kernels)


def test_every_kernel_shares_the_monitor_across_a_restore():
    """The monitor is built once per machine and held as
    ``kernel.heartbeat`` by every kernel, the one a restore creates
    included."""
    machine = resilient_machine(services={"heartbeat": True})
    monitor = machine.heartbeat
    assert monitor is not None
    assert all(kernel.heartbeat is monitor for kernel in machine.kernels)
    machine.crash_cluster(1)
    machine.restore_cluster(1)
    assert machine.kernels[1].heartbeat is monitor


def test_campaign_byte_identical_with_services_disabled():
    """The PR's hard constraint: with every service off, the full fault
    campaign serializes byte-for-byte to the pre-resilience artifact."""
    report = run_campaign(seeds=range(6), n_clusters=3,
                          max_events=40_000_000)
    blob = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    pinned = (ROOT / "tests" / "data"
              / "campaign_pre_resilience.json").read_text()
    assert blob == pinned


# ----------------------------------------------------------------------
# heartbeat vs poll detection
# ----------------------------------------------------------------------

def _crashed_writer(services=None, bus=None, crash_at=15_000):
    machine = resilient_machine(trace=True, services=services, bus=bus)
    machine.spawn(TtyWriterProgram(lines=12, tag="a", compute=2_000),
                  cluster=2, sync_reads_threshold=3,
                  backup_mode=BackupMode.QUARTERBACK)
    if crash_at is not None:
        machine.crash_cluster(2, at=crash_at)
    machine.run_until_idle(max_events=5_000_000)
    return machine


def _detection_latency(machine, crash_at):
    begins = machine.trace.select("crash.handling_begin")
    assert begins, "crash was never detected"
    return min(record.time for record in begins) - crash_at


def test_heartbeat_detects_faster_than_poll():
    """Acceptance: heartbeat detection demonstrably beats the poll
    detector.  interval=4000 x (miss_threshold=2 + 1) ~= 12k ticks vs
    the poll detector's poll_interval=50k."""
    poll = _crashed_writer()
    heartbeat = _crashed_writer(services={
        "heartbeat": True, "heartbeat_interval": 4_000,
        "heartbeat_miss_threshold": 2})
    poll_latency = _detection_latency(poll, 15_000)
    hb_latency = _detection_latency(heartbeat, 15_000)
    assert hb_latency < poll_latency
    assert hb_latency <= 3 * 4_000 + 1_000   # (miss+1)*interval + slack
    assert poll_latency >= poll.config.poll_interval
    assert heartbeat.metrics.counter(
        "resilience.heartbeat.detections") >= 1
    # Faster detection must not change external behaviour.
    assert heartbeat.tty_output() == poll.tty_output()
    assert heartbeat.exits == poll.exits


def test_no_double_promotion_when_heartbeat_wins_the_race():
    """Heartbeat fires first, the poll detector's begin arrives later
    while recovery is already underway — promotion stays idempotent."""
    machine = _crashed_writer(services={
        "heartbeat": True, "heartbeat_interval": 4_000,
        "heartbeat_miss_threshold": 2})
    assert machine.metrics.counter("recovery.promotions") == 1
    promotes = machine.trace.select("recovery.promote")
    pids = [record.detail["pid"] for record in promotes]
    assert len(pids) == len(set(pids)) == 1
    assert machine.exits and all(code == 0
                                 for code in machine.exits.values())


def test_no_double_promotion_when_poll_wins_the_race():
    """The mirror race: a sluggish heartbeat (interval far beyond the
    poll interval) is still in flight when poll-based recovery promotes
    the backup; the late confirmation must not promote again."""
    machine = _crashed_writer(services={
        "heartbeat": True, "heartbeat_interval": 40_000,
        "heartbeat_miss_threshold": 3})
    baseline = _crashed_writer()
    assert machine.metrics.counter("recovery.promotions") == 1
    assert machine.tty_output() == baseline.tty_output()
    assert machine.exits == baseline.exits


def test_bus_ack_loss_false_positives_never_promote():
    """Beacon loss on a degraded bus suspects live clusters; the
    probe/ack round trip refutes every suspicion and nobody is
    promoted (a double-promotion here would corrupt routing)."""
    machine = resilient_machine(
        trace=True,
        services={"heartbeat": True, "heartbeat_interval": 4_000,
                  "heartbeat_miss_threshold": 2},
        bus=BusFaultConfig(loss_rate=0.2, seed=5))
    machine.spawn(TtyWriterProgram(lines=12, tag="a", compute=2_000),
                  cluster=2, sync_reads_threshold=3)
    machine.run_until_idle(max_events=5_000_000)
    false_positives = machine.metrics.counter(
        "resilience.heartbeat.false_positives")
    assert false_positives >= 1
    assert machine.metrics.counter(
        "resilience.heartbeat.refuted") == false_positives
    assert machine.metrics.counter(
        "resilience.heartbeat.detections") == 0
    assert machine.metrics.counter("recovery.promotions") == 0
    assert not machine.trace.select("crash.handling_begin")
    assert machine.exits and all(code == 0
                                 for code in machine.exits.values())


# ----------------------------------------------------------------------
# config plumbing: apply_services and the scenario services block
# ----------------------------------------------------------------------

def test_apply_services_sets_flags_and_knobs():
    config = apply_services(ResilienceConfig(), {
        "heartbeat": {"interval": 4_000, "miss_threshold": 2},
    })
    assert config.heartbeat
    assert config.heartbeat_interval == 4_000
    assert config.heartbeat_miss_threshold == 2
    assert config.heartbeat_horizon == ResilienceConfig().heartbeat_horizon


def test_apply_services_rejects_unknown_service():
    with pytest.raises(UnknownNameError):
        apply_services(ResilienceConfig(), {"hartbeat": {}})


def test_apply_services_rejects_invalid_knob_value():
    with pytest.raises(ConfigError):
        apply_services(ResilienceConfig(),
                       {"heartbeat": {"interval": 0}})


def test_scenario_services_block_round_trips():
    from repro.scenario import yamlite
    doc = {
        "scenario": "svc",
        "workload": {"recipe": "tty", "params": {"writers": 1,
                                                 "lines": 2}},
        "services": {"heartbeat": {"interval": 4_000}},
    }
    compiled = compile_scenario(doc, source="unit")
    # Defaults are filled in for every knob of every named service.
    assert compiled.services["heartbeat"]["interval"] == 4_000
    assert compiled.services["heartbeat"]["miss_threshold"] \
        == ResilienceConfig().heartbeat_miss_threshold
    assert compiled.services["heartbeat"]["horizon"] \
        == ResilienceConfig().heartbeat_horizon
    reparsed = compile_scenario(
        yamlite.loads(compiled.canonical_yaml()), source="rt")
    assert reparsed.canonical() == compiled.canonical()


def test_scenario_services_reject_unknown_knob():
    from repro.scenario.schema import SchemaError
    with pytest.raises(SchemaError):
        compile_scenario({
            "scenario": "svc",
            "workload": {"recipe": "tty", "params": {}},
            "services": {"heartbeat": {"intervl": 5}},
        })
