"""E13 — negative ablations: recovery needs every pillar of the design.

Sections 5.1 and 5.4 motivate the two backup-side delivery legs; this
experiment removes each and reruns the OLTP bank with the server's
cluster crashing mid-run:

* **full protocol** — every client finishes with exactly-once replies;
* **no saved queues** (DEST_BACKUP copies dropped) — the promoted server
  has no input to replay: unserviced requests are lost and clients hang;
* **no send suppression** (write counts ignored) — the promoted server
  re-answers requests the lost primary already answered: clients consume
  the stale duplicates as replies to *later* requests and desynchronize.

Runs are time-bounded because the broken variants deadlock by design.
The ablations themselves are method patches in ``tests/ablations.py``.
"""

from contextlib import nullcontext

from repro import BackupMode, Machine, MachineConfig
from repro.metrics import format_table
from repro.workloads import (BankAuditorProgram, BankClientProgram,
                             BankServerProgram, build_bank_workload)
from repro.workloads.oltp import generate_transfers
from repro.sim.rng import DeterministicRNG

from conftest import run_once
from tests.ablations import no_saved_queues, no_send_suppression

DEADLINE = 600_000

VARIANTS = {"full": nullcontext, "no_saved_queues": no_saved_queues}


def run_variant(name):
    with VARIANTS[name]():
        machine = Machine(MachineConfig(n_clusters=4, trace_enabled=False))
        server, clients, _ = build_bank_workload(
            machine, n_clients=3, txns_per_client=8,
            server_mode=BackupMode.FULLBACK, server_cluster=2)
        machine.crash_cluster(2, at=8_000)
        machine.run(until=DEADLINE)
    completed = sum(1 for pid in clients if machine.exits.get(pid) == 0)
    return machine, clients, completed


ACCOUNTS = 8
DEPOSITS_PER_CLIENT = 8


def run_deposit_audit(ablate_suppression):
    """Deposit clients (money-creating ops), crash one client's cluster,
    then audit the balance sum.  Without write-count suppression the
    promoted client re-sends deposits the lost primary already made —
    money gets created twice and the audit total is inflated."""
    with no_send_suppression() if ablate_suppression else nullcontext():
        return _deposit_audit()


def _deposit_audit():
    machine = Machine(MachineConfig(n_clusters=4, trace_enabled=False))
    machine.spawn(
        BankServerProgram(clients=2, accounts=ACCOUNTS, audit=True,
                          expected_txns=2 * DEPOSITS_PER_CLIENT),
        backup_mode=BackupMode.FULLBACK, cluster=3)
    rng = DeterministicRNG(11)
    deposited = 0
    for index, cluster in enumerate((1, 2)):
        transfers = generate_transfers(rng.fork(f"c{index}"),
                                       DEPOSITS_PER_CLIENT, ACCOUNTS)
        deposited += sum(amount for _, _, amount in transfers)
        # Never-synced clients: recovery restarts them from the start
        # and replays *every* deposit — maximal exposure to duplicate
        # application when the write counts are ignored.
        machine.spawn(BankClientProgram(index=index, transfers=transfers,
                                        op="deposit"),
                      cluster=cluster, sync_reads_threshold=10 ** 6,
                      sync_time_threshold=10 ** 12)
    machine.crash_cluster(2, at=8_000)   # the second depositor's home
    machine.run(until=400_000)
    machine.spawn(BankAuditorProgram(accounts=ACCOUNTS), cluster=1,
                  backup_mode=None)
    machine.run(until=DEADLINE)
    expected = ACCOUNTS * 1_000 + deposited
    audit_lines = [line for line in machine.tty_output()
                   if line.startswith("audit:")]
    total = int(audit_lines[-1].split(":")[1]) if audit_lines else None
    return machine, expected, total


def run_experiment():
    rows = []
    outcomes = {}
    # Part A: lose the saved queues, crash the server cluster.
    for name, label in (("full", "full protocol"),
                        ("no_saved_queues", "ablate saved queues (5.1)")):
        machine, clients, completed = run_variant(name)
        rows.append([label, f"{completed}/{len(clients)} clients done",
                     machine.metrics.counter(
                         "ablation.backup_copies_dropped")])
        outcomes[name] = completed
    # Part B: lose the write counts, crash a depositor's cluster.
    for ablate, label in ((False, "full protocol (deposit audit)"),
                          (True, "ablate write counts (5.4)")):
        machine, expected, total = run_deposit_audit(ablate)
        verdict = ("conserved" if total == expected
                   else f"INFLATED by {total - expected}"
                   if total is not None else "no audit")
        rows.append([label, f"audit={total} expected={expected}", verdict])
        outcomes[f"audit_{ablate}"] = (total, expected)
    return rows, outcomes


def test_e13_negative_ablations(benchmark, table_printer):
    rows, outcomes = run_once(benchmark, run_experiment)
    table_printer(format_table(
        ["variant", "observed", "notes"],
        rows, title="E13: remove one mechanism and crash "
                    "(sections 5.1, 5.4)"))

    assert outcomes["full"] == 3
    # Without saved queues the promoted server has nothing to replay.
    assert outcomes["no_saved_queues"] < 3
    # With the full protocol money is exactly-once; without suppression
    # replayed deposits are applied twice.
    total, expected = outcomes["audit_False"]
    assert total == expected
    total, expected = outcomes["audit_True"]
    assert total is not None and total > expected
