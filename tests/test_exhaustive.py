"""The exhaustive single-crash sweep (repro.faults.exhaustive).

The slice below is where a send-path gate once broke three-way delivery:
with a service that refused user sends switched on, crashing cluster 1
at 4,416, 4,530, 4,594 or 4,772 ticks made the pipeline sink print
``pipe:601`` before ``pipe:600``.  Running it with the heartbeat
detector on keeps any such gate beside detection from coming back
unnoticed.
"""

from __future__ import annotations

from repro import Machine
from repro.faults.exhaustive import sweep


def test_pipeline_slice_with_heartbeat_holds_at_every_crash_time():
    result = sweep("pipeline", detector="heartbeat",
                   start=4_000, end=5_000)
    # 5 distinct trace times in [4,000, 5,000] x 3 clusters.
    assert result.cells == 15
    assert result.failures == []


def test_sweep_reports_a_failing_cell():
    """Crashing a writer's cluster at t=0, inside the boot window the
    default ``start`` skips, loses that writer before any backup exists.
    The sweep reports each such cell with its cluster, time and
    violations; the crash of cluster 2, which hosts no writer, passes."""
    result = sweep("tty", start=0, end=0)
    assert result.cells == 3
    assert [(cluster, when) for cluster, when, _ in result.failures] \
        == [(0, 0), (1, 0)]
    assert all(violations for _, _, violations in result.failures)


def test_sweep_reports_an_exception_in_a_cell_and_goes_on(monkeypatch):
    """A cell whose run raises something other than the event-budget
    ``SimulationError`` fails with that exception as its one violation,
    unjudged; its machine is closed and the sweep runs every other
    cell.  In this slice of ``tty`` the crashes of clusters 0 and 1
    promote a writer's backup; the crash of cluster 2 promotes none."""
    promoted = []

    def refuse(kernel, record, crashed):
        promoted.append(crashed)
        raise RuntimeError("promotion refused")

    closed = []
    close = Machine.close

    def counting_close(machine):
        closed.append(machine)
        close(machine)

    monkeypatch.setattr("repro.recovery.rollforward.promote", refuse)
    monkeypatch.setattr(Machine, "close", counting_close)
    result = sweep("tty", start=4_000, end=6_000)
    # 2 distinct trace times in [4,000, 6,000] x 3 clusters.
    assert result.cells == 6
    assert len(result.failures) == len(promoted) == 4
    assert {cluster for cluster, _, _ in result.failures} \
        == set(promoted) == {0, 1}
    for _, _, violations in result.failures:
        assert violations == ["simulation: RuntimeError: promotion refused"]
    # The reference machine and all six cells' machines.
    assert len(closed) == 7


def test_sweep_reports_a_failed_reference_run_and_runs_no_cell(
        monkeypatch):
    """A reference run that raises leaves nothing to judge against: the
    sweep returns that one ``reference run:`` failure, with no cluster
    or time, runs no cell, and closes the reference machine."""

    def refuse(machine, max_events=None):
        raise RuntimeError("no reference")

    closed = []
    close = Machine.close

    def counting_close(machine):
        closed.append(machine)
        close(machine)

    monkeypatch.setattr(Machine, "run_until_idle", refuse)
    monkeypatch.setattr(Machine, "close", counting_close)
    result = sweep("tty", start=4_000, end=6_000)
    assert result.cells == 0
    assert result.failures == [
        (None, None, ["reference run: RuntimeError: no reference"])]
    assert len(closed) == 1
