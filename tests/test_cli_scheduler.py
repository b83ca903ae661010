"""Tests for the CLI entry points and scheduler behaviour."""

import pytest

from repro.cli import main
from repro.kernel.pcb import ProcState
from repro.programs import BusyProgram
from repro.workloads import TtyWriterProgram
from tests.conftest import make_machine


# -- CLI ---------------------------------------------------------------------

def test_cli_demo_succeeds(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "identical: True" in out


def test_cli_topology_renders(capsys):
    assert main(["topology", "--clusters", "4"]) == 0
    out = capsys.readouterr().out
    assert "Processor Cluster 3" in out
    assert "intercluster bus" in out


def test_cli_overhead_table(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "checkpoint" in out and "auragen" in out


def test_cli_oltp(capsys):
    assert main(["oltp"]) == 0
    assert "exactly-once" in capsys.readouterr().out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv,message", [
    (["campaign", "--clusters", "1", "--seeds", "1"],
     "supports 2-32 clusters, got 1"),
    (["campaign", "--loss-rate", "2.0"], "loss_rate must be in [0, 1)"),
    (["demo", "--clusters", "1"], "supports 2-32 clusters, got 1"),
    (["oltp", "--clusters", "40"], "supports 2-32 clusters, got 40"),
    (["campaign", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["campaign", "--seeds", "-3"], "--seeds must be >= 1, got -3"),
    (["campaign", "--seeds", "3", "--verify", "-1"],
     "--verify must be >= 0, got -1"),
])
def test_cli_bad_machine_value_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


# -- scheduler ---------------------------------------------------------------------

def test_two_work_processors_run_in_parallel():
    """Two compute-bound processes on one cluster finish in about the time
    of one (two work processors), three take about two slots."""
    def run(count):
        machine = make_machine()
        for _ in range(count):
            machine.spawn(BusyProgram(steps=20, cost_per_step=2_000),
                          cluster=2, backup_mode=None)
        return machine.run_until_idle()

    one = run(1)
    two = run(2)
    three = run(3)
    assert two < one * 1.3
    assert three > two * 1.3


def test_quantum_interleaves_processes():
    """With more processes than processors, the quantum forces sharing:
    both long jobs make progress rather than running to completion
    back-to-back."""
    machine = make_machine()
    pids = [machine.spawn(BusyProgram(steps=30, cost_per_step=4_000),
                          cluster=2, backup_mode=None) for _ in range(3)]
    machine.run(until=60_000)
    states = [machine.find_pcb(pid) for pid in pids]
    # Nobody finished yet, but everyone has accumulated execution time.
    running = [pcb for pcb in states if pcb is not None]
    assert len(running) == 3
    assert all(pcb.total_steps > 0 for pcb in running)


def test_servers_have_priority():
    """Server processes schedule ahead of user processes: with the cluster
    saturated by user compute, server requests still get serviced."""
    machine = make_machine()
    # Saturate cluster 0 and 1 (the server clusters) with user work.
    for cluster in (0, 1):
        for _ in range(3):
            machine.spawn(BusyProgram(steps=200, cost_per_step=5_000),
                          cluster=cluster, backup_mode=None)
    writer = machine.spawn(TtyWriterProgram(lines=5, tag="p"), cluster=2)
    machine.run_until_idle(max_events=30_000_000)
    assert machine.exits[writer] == 0
    assert machine.tty_output() == [f"p:{i}" for i in range(5)]


def test_exited_process_released_from_processor():
    machine = make_machine()
    machine.spawn(BusyProgram(steps=1, cost_per_step=100), cluster=2,
                  backup_mode=None)
    machine.run_until_idle()
    for proc in machine.clusters[2].work_processors:
        assert proc.idle
