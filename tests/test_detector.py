"""Tests for crash detection (repro.recovery.detector).

Three layers of coverage:

* **byte identity** — with the poll detector alone no heartbeat
  monitor is ever built and the fault campaign's report is
  byte-identical to the pinned artifact from before heartbeat existed;
* **detector races** — heartbeat and poll detection funnel into the
  same idempotent crash handling (no double promotion whichever wins),
  and bus-loss false positives are refuted without promoting anyone;
* **config** — ``detector`` and the heartbeat knobs are
  ``MachineConfig`` fields, validated there and reachable as
  ``machine:`` keys of a scenario.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import BackupMode, Machine, MachineConfig
from repro.config import BusFaultConfig, ConfigError
from repro.faults.campaign import run_campaign
from repro.scenario.compile import compile_scenario
from repro.workloads import TtyWriterProgram

ROOT = Path(__file__).resolve().parent.parent


def detector_machine(trace=False, detector="heartbeat", **overrides):
    """A 3-cluster machine with the named crash detector."""
    config = MachineConfig(n_clusters=3, trace_enabled=trace,
                           detector=detector, **overrides)
    return Machine(config.validate())


# ----------------------------------------------------------------------
# byte identity with the poll detector alone
# ----------------------------------------------------------------------

def test_poll_detector_installs_no_monitor():
    machine = Machine(MachineConfig(n_clusters=3,
                                    trace_enabled=False).validate())
    assert machine.config.detector == "poll"
    assert machine.heartbeat is None
    assert all(kernel.heartbeat is None for kernel in machine.kernels)


def test_every_kernel_shares_the_monitor_across_a_restore():
    """The monitor is built once per machine and held as
    ``kernel.heartbeat`` by every kernel, the one a restore creates
    included."""
    machine = detector_machine()
    monitor = machine.heartbeat
    assert monitor is not None
    assert all(kernel.heartbeat is monitor for kernel in machine.kernels)
    machine.crash_cluster(1)
    machine.restore_cluster(1)
    assert machine.kernels[1].heartbeat is monitor


def test_campaign_byte_identical_with_the_poll_detector():
    """With the default poll detector, the full fault campaign
    serializes byte-for-byte to the artifact pinned before heartbeat
    detection existed."""
    report = run_campaign(seeds=range(6), n_clusters=3,
                          max_events=40_000_000)
    blob = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    pinned = (ROOT / "tests" / "data"
              / "campaign_pre_resilience.json").read_text()
    assert blob == pinned


# ----------------------------------------------------------------------
# heartbeat vs poll detection
# ----------------------------------------------------------------------

def _crashed_writer(crash_at=15_000, **overrides):
    machine = detector_machine(trace=True, **overrides)
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
    poll = _crashed_writer(detector="poll")
    heartbeat = _crashed_writer(heartbeat_interval=4_000,
                                heartbeat_miss_threshold=2)
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
    machine = _crashed_writer(heartbeat_interval=4_000,
                              heartbeat_miss_threshold=2)
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
    machine = _crashed_writer(heartbeat_interval=40_000,
                              heartbeat_miss_threshold=3)
    baseline = _crashed_writer(detector="poll")
    assert machine.metrics.counter("recovery.promotions") == 1
    assert machine.tty_output() == baseline.tty_output()
    assert machine.exits == baseline.exits


def test_bus_ack_loss_false_positives_never_promote():
    """Beacon loss on a degraded bus suspects live clusters; the
    probe/ack round trip refutes every suspicion and nobody is
    promoted (a double-promotion here would corrupt routing)."""
    machine = detector_machine(
        trace=True, heartbeat_interval=4_000, heartbeat_miss_threshold=2,
        bus_faults=BusFaultConfig(loss_rate=0.2, seed=5))
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
# config: MachineConfig fields and scenario machine: keys
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("detector", "beacon"),
    ("heartbeat_interval", 0),
    ("heartbeat_miss_threshold", 0),
])
def test_config_rejects_a_bad_detector_setting(field, value):
    with pytest.raises(ConfigError, match=field):
        MachineConfig(**{field: value}).validate()


def test_scenario_machine_keys_set_the_detector_and_round_trip():
    from repro.scenario import yamlite
    doc = {
        "scenario": "hb",
        "workload": {"recipe": "tty", "params": {"writers": 1,
                                                 "lines": 2}},
        "machine": {"detector": "heartbeat", "heartbeat_interval": 4_000},
    }
    compiled = compile_scenario(doc, source="unit")
    config = compiled.machine_config()
    assert config.detector == "heartbeat"
    assert config.heartbeat_interval == 4_000
    assert config.heartbeat_miss_threshold \
        == MachineConfig().heartbeat_miss_threshold
    assert compiled.baseline_config().detector == "heartbeat"
    reparsed = compile_scenario(
        yamlite.loads(compiled.canonical_yaml()), source="rt")
    assert reparsed.canonical() == compiled.canonical()

