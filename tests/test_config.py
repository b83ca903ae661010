"""Unit tests for MachineConfig validation (section 7.1 constraints)."""

import pytest

from repro.config import ConfigError, CostModel, MachineConfig


def test_default_config_is_valid():
    MachineConfig().validate()


def test_cluster_count_bounds():
    MachineConfig(n_clusters=2).validate()
    MachineConfig(n_clusters=32).validate()
    with pytest.raises(ConfigError):
        MachineConfig(n_clusters=1).validate()
    with pytest.raises(ConfigError):
        MachineConfig(n_clusters=33).validate()


def test_sync_thresholds_positive():
    with pytest.raises(ConfigError):
        MachineConfig(sync_reads_threshold=0).validate()
    with pytest.raises(ConfigError):
        MachineConfig(sync_time_threshold=0).validate()


def test_poll_interval_positive():
    with pytest.raises(ConfigError):
        MachineConfig(poll_interval=0).validate()


def test_cost_model_defaults_positive():
    costs = CostModel()
    for name in ("bus_latency", "exec_delivery", "syscall_overhead",
                 "sync_page_enqueue", "context_switch", "quantum",
                 "checkpoint_page_copy"):
        assert getattr(costs, name) > 0


def test_validate_returns_self():
    config = MachineConfig()
    assert config.validate() is config
