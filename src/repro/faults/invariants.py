"""Invariant checkers run after every fault-injection scenario.

Each checker returns a list of violation strings (empty = pass).  They
encode what the paper guarantees, graded by what the injected faults
allow it to guarantee:

* **Single-fault scenarios** (one cluster crash, a crash followed by a
  restore, or one process failure) are *survivable*: externally visible
  behaviour — per-process terminal output and exit codes, the E8
  equivalence observable — must exactly equal the failure-free run's.
  Nothing lost, nothing duplicated.
* **Double-fault scenarios** can legitimately lose a process outright
  (both its incarnations die before a sync escapes; only fullbacks are
  double-fault proof, section 7.3).  There the external check weakens to
  safety alone: the faulted run's terminal lines per process must be a
  duplicate-free, order-preserving subsequence of the failure-free
  run's.  The machine may do less under unsurvivable faults — never
  something different, and never something twice.

On top of the behavioural checks, structural sanity: every promoted
process must end runnable (nothing parked forever awaiting a backup, no
stalled ready queue), and the metric counters must agree with the trace
(``bus.transmissions`` == number of ``bus.transmit`` records, etc.).

Every crash checker (campaign seeds, the exhaustive sweep, explicit
scenarios) runs and judges its machines through the same two helpers,
so all of them share one exception policy:

* :func:`run_reference` — the failure-free run.  Any exception, budget
  exhaustion included, is one ``reference run: ...`` violation and no
  observable: there is nothing to judge against.
* :func:`run_faulted` — the faulted run.  Budget exhaustion is a
  ``simulation: ...`` violation and the run is still judged; any other
  exception is ``simulation: <Type>: ...`` and the run is not judged,
  because the machine stopped mid-event.  Judging is
  :func:`check_scenario`.

Callers build the machines, read digests and counters off them, and
close them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.machine import Machine
from ..kernel.pcb import ProcState
from ..sim.events import SimulationError
from ..workloads.generator import observable

if TYPE_CHECKING:  # pragma: no cover - types only
    from .injector import FaultInjector

Observable = Tuple[Dict[str, List[str]], tuple]


def run_reference(machine: Machine, max_events: int
                  ) -> Tuple[Optional[Observable], List[str]]:
    """Run the failure-free reference until idle: its observable and no
    violation, or ``None`` and one ``reference run:`` violation."""
    try:
        machine.run_until_idle(max_events=max_events)
    except Exception as error:
        return None, [f"reference run: {_describe(error)}"]
    return observable(machine), []


def run_faulted(machine: Machine, max_events: int,
                expected: Optional[Observable], survivable: bool,
                injector: "FaultInjector") -> List[str]:
    """Run the faulted machine until idle and judge it against
    ``expected``; with no ``expected`` the run is not judged."""
    violations: List[str] = []
    try:
        machine.run_until_idle(max_events=max_events)
    except SimulationError as error:
        violations.append(f"simulation: {error}")
    except Exception as error:
        # The machine stopped mid-event: its state judges nothing.
        return [f"simulation: {_describe(error)}"]
    if expected is not None:
        violations += check_scenario(expected, machine, survivable,
                                     injector.crashes_delivered())
    return violations


def _describe(error: Exception) -> str:
    """The budget error's own message; any other exception's type too."""
    if isinstance(error, SimulationError):
        return str(error)
    return f"{type(error).__name__}: {error}"


def check_scenario(expected: Observable, faulted: Machine,
                   survivable: bool, injected_crashes: int) -> List[str]:
    """Run every checker against the failure-free run's observable;
    returns the combined violation list."""
    violations: List[str] = []
    violations += check_external_behaviour(expected,
                                           observable(faulted), survivable)
    violations += check_all_runnable(faulted, survivable)
    violations += check_metrics_sanity(faulted, injected_crashes)
    return violations


# ----------------------------------------------------------------------
# externally visible sends (the E8 observable)
# ----------------------------------------------------------------------

def check_external_behaviour(expected: Observable, actual: Observable,
                             survivable: bool) -> List[str]:
    """Exact equivalence when survivable; duplicate-free subsequence
    (safety without liveness) when not."""
    if survivable:
        if actual != expected:
            return _diff_observable(expected, actual)
        return []
    violations: List[str] = []
    expected_tags, actual_tags = expected[0], actual[0]
    for tag, lines in actual_tags.items():
        base = expected_tags.get(tag)
        if base is None:
            violations.append(
                f"external: invented output stream {tag!r}: {lines}")
            continue
        if not _is_subsequence(lines, base):
            violations.append(
                f"external: {tag!r} output is not an order-preserving, "
                f"duplicate-free subsequence of the failure-free run "
                f"(got {lines}, failure-free {base})")
    # A double fault may drop exits, but every exit that did happen must
    # use a code the failure-free run produced (multiset containment).
    base_codes = list(expected[1])
    for code in actual[1]:
        if code in base_codes:
            base_codes.remove(code)
        else:
            violations.append(f"external: exit code {code} surplus to "
                              f"the failure-free run's {expected[1]}")
    return violations


def _diff_observable(expected: Observable,
                     actual: Observable) -> List[str]:
    violations = []
    expected_tags, actual_tags = expected[0], actual[0]
    for tag in sorted(set(expected_tags) | set(actual_tags)):
        exp = expected_tags.get(tag)
        got = actual_tags.get(tag)
        if exp != got:
            violations.append(f"external: {tag!r} diverged: "
                              f"expected {exp}, got {got}")
    if expected[1] != actual[1]:
        violations.append(f"external: exit codes diverged: "
                          f"expected {expected[1]}, got {actual[1]}")
    if not violations:  # structurally equal but compared unequal
        violations.append("external: observables diverged")
    return violations


def _is_subsequence(sub: Sequence[str], full: Sequence[str]) -> bool:
    iterator = iter(full)
    return all(any(item == candidate for candidate in iterator)
               for item in sub)


# ----------------------------------------------------------------------
# liveness of promoted processes
# ----------------------------------------------------------------------

def check_all_runnable(machine: Machine, survivable: bool) -> List[str]:
    """After the run went idle, no process may be stalled half-scheduled:

    * a pcb still READY/RUNNING/EMBRYO with no events pending means the
      scheduler dropped it — always a bug;
    * a promoted fullback parked awaiting BACKUP_READY forever is a bug
      whenever its fault pattern was survivable (under an unsurvivable
      double fault the cluster holding the answer may simply be gone).
    """
    violations: List[str] = []
    stuck_states = (ProcState.READY, ProcState.RUNNING, ProcState.EMBRYO)
    for kernel in machine.kernels:
        if not kernel.alive:
            continue
        for pid, pcb in sorted(kernel.pcbs.items()):
            if pcb.state in stuck_states:
                violations.append(
                    f"runnable: pid {pid} stuck {pcb.state.value} on "
                    f"cluster {kernel.cluster_id} after idle")
        if survivable and kernel.awaiting_backup_ready:
            violations.append(
                f"runnable: cluster {kernel.cluster_id} still awaiting "
                f"BACKUP_READY for {sorted(kernel.awaiting_backup_ready)}")
    return violations


# ----------------------------------------------------------------------
# metrics vs trace agreement
# ----------------------------------------------------------------------

def check_metrics_sanity(machine: Machine,
                         injected_crashes: int) -> List[str]:
    """Counters and the trace describe the same run."""
    violations: List[str] = []
    metrics, trace = machine.metrics, machine.trace

    def must_equal(counter: str, observed: int, what: str) -> None:
        value = metrics.counter(counter)
        if value != observed:
            violations.append(f"metrics: {counter}={value} but {what} "
                              f"shows {observed}")

    must_equal("bus.transmissions", trace.count("bus.transmit"),
               "trace bus.transmit count")
    must_equal("bus.aborted_transmissions", trace.count("bus.aborted"),
               "trace bus.aborted count")
    must_equal("recovery.promotions", trace.count("recovery.promote"),
               "trace recovery.promote count")
    must_equal("cluster.crashes", injected_crashes,
               "injected cluster-crash count")
    aborted = metrics.counter("bus.aborted_transmissions")
    if aborted > metrics.counter("bus.transmissions"):
        violations.append("metrics: more aborted transmissions than "
                          "transmissions")
    violations += check_bus_fault_sanity(machine)
    return violations


def check_bus_fault_sanity(machine: Machine) -> List[str]:
    """Retransmission-count sanity for the degraded-bus fault layer.

    Every counter must agree with its trace category, and the protocol's
    arithmetic must close: each judged fault schedules exactly one
    retransmission, except faults whose retry was stranded when the
    sender crashed during the backoff window — at most one per aborted
    transmission.  A run with fault rates at zero must show zeroes
    everywhere (the fast path was taken).
    """
    violations: List[str] = []
    metrics, trace = machine.metrics, machine.trace

    def must_equal(counter: str, observed: int, what: str) -> None:
        value = metrics.counter(counter)
        if value != observed:
            violations.append(f"metrics: {counter}={value} but {what} "
                              f"shows {observed}")

    must_equal("bus.retransmissions", trace.count("bus.retransmit"),
               "trace bus.retransmit count")
    must_equal("bus.duplicates_suppressed", trace.count("bus.duplicate"),
               "trace bus.duplicate count")
    must_equal("bus.failovers", trace.count("bus.failover"),
               "trace bus.failover count")
    faults = sum(metrics.counter(f"bus.faults.{kind}")
                 for kind in ("loss", "ack_loss", "garble"))
    must_equal_faults = trace.count("bus.fault")
    if faults != must_equal_faults:
        violations.append(f"metrics: bus.faults.* total {faults} but "
                          f"trace bus.fault shows {must_equal_faults}")
    retransmissions = metrics.counter("bus.retransmissions")
    if retransmissions > faults:
        violations.append(
            f"metrics: {retransmissions} retransmissions exceed "
            f"{faults} judged bus faults")
    stranded = faults - retransmissions
    aborted = metrics.counter("bus.aborted_transmissions")
    if stranded > aborted:
        violations.append(
            f"metrics: {stranded} faults never retried but only "
            f"{aborted} transmissions were aborted")
    if metrics.counter("bus.failovers") > 1:
        violations.append("metrics: more than one bus failover on a "
                          "dual bus")
    return violations
