"""Campaign engine tests: seeded plans, invariants, reproducibility,
and the ``repro campaign`` CLI."""

import json

from repro import Machine, cli
from repro.faults import (FAULT_KINDS, build_plan, run_campaign, run_seed,
                          verify_reproducibility)
from repro.sim.rng import DeterministicRNG


def test_fault_kinds_stratified_by_seed():
    report = run_campaign(range(len(FAULT_KINDS)))
    assert [r.kind for r in report.results] == list(FAULT_KINDS)
    assert set(report.kinds_covered()) == set(FAULT_KINDS)


#: Classes whose plans only promise safety, not exact equivalence.
UNSURVIVABLE = {"recovery_double", "double_crash",
                "crash_during_recovery"}


def test_build_plan_is_deterministic():
    for kind in FAULT_KINDS:
        first = build_plan(DeterministicRNG(42), kind, 3)
        second = build_plan(DeterministicRNG(42), kind, 3)
        assert first == second
        assert first.survivable == (kind not in UNSURVIVABLE)


def test_single_fault_scenarios_pass_invariants():
    # One survivable scenario of each survivable class (the full
    # stratification cycle minus the unsurvivable strata).
    for seed in range(len(FAULT_KINDS)):
        if FAULT_KINDS[seed] in UNSURVIVABLE:
            continue
        result = run_seed(seed)
        assert result.passed, (seed, result.violations)
        assert result.survivable


def test_double_fault_scenario_holds_safety():
    result = run_seed(3)                   # seed 3 -> recovery_double
    assert result.kind == "recovery_double"
    assert not result.survivable
    assert result.passed, result.violations


def test_seed_reruns_reproduce_trace_byte_for_byte():
    assert verify_reproducibility(1)
    assert verify_reproducibility(3)


def test_scenario_result_serializes():
    result = run_seed(0)
    data = result.as_dict()
    assert data["seed"] == 0
    assert data["kind"] == FAULT_KINDS[0]
    assert isinstance(data["digest"], str) and len(data["digest"]) == 64
    json.dumps(data)                       # round-trips to JSON


def test_failure_reporting_carries_trace_tail():
    """A scenario violating an invariant reports the end of its trace."""
    # Exhausting a tiny event budget is reported as a violation, not an
    # exception — and the tail is attached for debugging.
    # budget fits the failure-free run (315 events) but not the faulted
    # run's extra recovery work (446) -> reported as a violation.
    result = run_seed(0, max_events=400)
    assert not result.passed
    assert any(v.startswith("simulation:") for v in result.violations)
    assert result.trace_tail


def test_campaign_cli_end_to_end(tmp_path, capsys):
    n = len(FAULT_KINDS)
    report_path = tmp_path / "campaign.json"
    code = cli.main(["campaign", "--seeds", str(n), "--verify", "1",
                     "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"{n}/{n} scenarios passed" in out
    assert "matches byte-for-byte" in out
    data = json.loads(report_path.read_text())
    assert data["scenarios"] == n and data["failed"] == 0
    assert set(data["kinds"]) == set(FAULT_KINDS)
    assert data["recovery_latency"]["samples"] >= 1


def test_campaign_cli_kinds_subset_and_rates(tmp_path, capsys):
    report_path = tmp_path / "degraded.json"
    code = cli.main(["campaign", "--seeds", "2", "--verify", "1",
                     "--kinds", "bus_loss,bus_garble",
                     "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 scenarios passed" in out
    data = json.loads(report_path.read_text())
    assert set(data["kinds"]) == {"bus_loss", "bus_garble"}
    # Compound smoke mode: crash faults on a degraded bus.
    code = cli.main(["campaign", "--seeds", "2",
                     "--kinds", "time_crash", "--loss-rate", "0.1",
                     "--garble-rate", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 scenarios passed" in out


def test_campaign_cli_rejects_unknown_kind(capsys):
    code = cli.main(["campaign", "--seeds", "1", "--kinds", "nonsense"])
    assert code == 2
    assert "unknown fault kinds" in capsys.readouterr().out


#: A seed whose failure-free reference run needs more than this budget.
BUDGET_SEED, TINY_BUDGET = 7003, 300


def _assert_reference_budget_reported(result):
    assert not result.passed
    assert result.violations[0] == (
        f"reference run: simulation did not go idle within {TINY_BUDGET} "
        f"events (2 still pending)")


def test_reference_budget_exhaustion_is_a_violation(tmp_path):
    result = run_seed(BUDGET_SEED, max_events=TINY_BUDGET)
    _assert_reference_budget_reported(result)
    report = run_campaign([BUDGET_SEED], max_events=TINY_BUDGET,
                          cache_dir=str(tmp_path))
    _assert_reference_budget_reported(report.results[0])
    # An exhausted reference is no observable: nothing is cached.
    assert report.cache_misses == 1
    assert list(tmp_path.iterdir()) == []


def test_reference_budget_exhaustion_is_a_violation_with_two_jobs(
        tmp_path, monkeypatch):
    monkeypatch.setattr("repro.exec.pool.os.cpu_count", lambda: 2)
    seeds = [BUDGET_SEED, BUDGET_SEED + 1]
    serial = run_campaign(seeds, max_events=TINY_BUDGET)
    parallel = run_campaign(seeds, max_events=TINY_BUDGET, jobs=2,
                            cache_dir=str(tmp_path))
    assert parallel.jobs == 2
    _assert_reference_budget_reported(parallel.results[0])
    assert json.dumps(parallel.as_dict(), sort_keys=True) \
        == json.dumps(serial.as_dict(), sort_keys=True)
    assert list(tmp_path.iterdir()) == []


def _refuse_promotion(kernel, record, crashed):
    raise RuntimeError("promotion refused")


def test_an_exception_in_the_faulted_run_is_a_violation(monkeypatch):
    """Seed 7000 kills a process whose backup is promoted.  A run that
    raises something other than ``SimulationError`` fails the seed with
    that exception as its one violation, checks no invariant, and still
    reports its plan, digest and trace tail."""
    monkeypatch.setattr("repro.recovery.rollforward.promote",
                        _refuse_promotion)
    result = run_seed(7000)
    assert not result.passed
    assert result.violations == [
        "simulation: RuntimeError: promotion refused"]
    assert result.plan.startswith("proc_fail(")
    assert result.digest and result.trace_tail


def test_an_exception_in_the_reference_run_is_a_violation(monkeypatch):
    class Refusing(Machine):
        def run_until_idle(self, max_events=None):
            raise ValueError("no reference")

    # Only the reference machine, which the reference cache builds.
    monkeypatch.setattr("repro.exec.refcache.Machine", Refusing)
    result = run_seed(7000)
    assert not result.passed
    assert result.violations == ["reference run: ValueError: no reference"]
