"""Regenerate EXPERIMENTS.md from a fresh benchmark run.

Usage:  python benchmarks/generate_experiments_md.py

Runs ``pytest benchmarks/ --benchmark-only -s``, captures each
experiment's printed table, and rebuilds EXPERIMENTS.md with the standing
commentary.  Keeping the document generated guarantees its numbers always
match the code.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

COMMENTARY = {
    "E1": (
        "## E1 — failure-free overhead vs section 2's alternatives",
        "**Paper claim (sections 2, 8):** explicit checkpointing \"slows"
        " down the primary process and uses up a large portion of the"
        " added computing power\"; the message-based scheme is \"both"
        " automatic and efficient\"; lockstep duplication wastes the"
        " duplicate hardware.\n\n**Measured** (two 48-page processes,"
        " sweeping the dirty working set; checkpointing copies the whole"
        " space every 8 ops, Auragen syncs dirty pages every 15 ms):",
        "**Shape check:** Auragen tracks the no-FT floor at small working"
        " sets and scales with the *dirty* set; checkpointing pays ~450%"
        " regardless, because it always ships all 48 pages and stalls the"
        " primary for the copy.  Active replication has zero time overhead"
        " but permanently doubles work-processor consumption — the"
        " section 2 story exactly."),
    "E2": (
        "## E2 — multiple message handling (section 8.1)",
        "**Paper claims:** \"transmitted just once across the intercluster"
        " bus\" for three destinations, and work processors \"are not"
        " affected by the delivery of the two backup copies.\"\n\n"
        "**Measured** (40-round request/response pair across clusters):",
        "**Shape check:** one bus transmission per message regardless of"
        " destination count, and exactly **0** work-processor ticks on"
        " backup-copy handling — it all lands on the executive"
        " processors."),
    "E3": (
        "## E3 — sync cost vs sync interval (sections 7.8, 8.3)",
        "**Paper claims:** the interval between syncs is tunable; \"The"
        " primary interrupts its normal execution for only as long as it"
        " takes to place its dirty pages and the sync message on the"
        " outgoing queue.\"\n\n**Measured** (60-round messaging pair,"
        " sweeping the reads-since-sync threshold):",
        "**Shape check:** total cost falls monotonically as the interval"
        " widens while the per-sync primary stall stays flat — bounded by"
        " *enqueue* work, never by page-server or backup processing."),
    "E4": (
        "## E4 — rollforward cost vs sync interval (sections 6, 8.4)",
        "**Paper claim:** \"Periodic synchronization ... limits the amount"
        " of recomputation required for the backup to catch up during"
        " recovery.\"  The flip side of E3's savings.\n\n**Measured**"
        " (terminal writer, cluster crashed mid-run; output verified"
        " identical to the failure-free run in every cell):",
        "**Shape check:** the widest interval pays the most recovery —"
        " full re-execution with re-sends suppressed — while tight syncing"
        " recovers fastest.  The E3/E4 pair is the paper's central tunable"
        " trade-off."),
    "E5": (
        "## E5 — deferred backup creation (sections 7.7, 8.2)",
        "**Paper claim:** \"In many cases, short lived processes will not"
        " have to have a backup process or a backup page account.\"\n\n"
        "**Measured** (6 forked children per run, sweeping child"
        " lifetime):",
        "**Shape check:** children living below the sync interval never"
        " create backup processes; only when lifetimes cross the trigger"
        " does the deferred policy converge to create-on-fork.  Birth"
        " notices are all short-lived children ever cost."),
    "E6": (
        "## E6 — crash-handling interference (sections 7.10.1, 8.4)",
        "**Paper claim:** \"Processes unaffected by the crash ... may"
        " begin to execute before all crash handling has been"
        " completed.\"\n\n**Measured** (victim in the crashed cluster,"
        " bystander elsewhere):",
        "**Shape check:** the bystander's cluster pauses ~1 ms for routing"
        " repair — far below the failure-*detection* delay and the"
        " victim's rollforward; both terminal records stay intact."),
    "E7": (
        "## E7 — backup modes (section 7.3)",
        "**Paper claims:** quarterbacks get no new backup after a crash;"
        " halfbacks get one when the crashed cluster returns to service;"
        " fullbacks get one *before* the new primary begins executing.\n\n"
        "**Measured** (same workload per mode, primary cluster crashed"
        " mid-run; the `+restore` row returns the cluster to service):",
        "**Shape check:** every mode survives the single crash with intact"
        " output; only the fullback performed a backup transfer before"
        " running, and the restored-cluster run re-protected the halfback"
        " via a full sync."),
    "E8": (
        "## E8 — output equivalence across a crash grid (sections 3.1, 4)",
        "**The headline correctness experiment.**  Paper claim: \"all"
        " executing processes will survive any single hardware failure ..."
        " User programs should be completely unaware of the failure.\"\n\n"
        "**Measured** (4 workloads × 2 crashed clusters × 4 crash times;"
        " \"MATCH\" = per-process terminal output and exit codes identical"
        " to the failure-free run):",
        "**Shape check:** every cell matches.  Crashing cluster 0 takes"
        " down the primary file, page, tty and raw servers simultaneously;"
        " later crash times exercise more suppression and"
        " terminal-duplicate filtering.  `tests/test_prop_scenarios.py`"
        " extends this with hypothesis-generated workloads, crash times,"
        " per-process failures and fullback double crashes."),
    "E9": (
        "## E9 — file-server sync rides the cache flush (section 7.9)",
        "**Paper claim:** flushing the cache to the dual-ported disk at"
        " sync time means \"we avoid sending a large amount of information"
        " to the backup via the message system.\"\n\n**Measured** (two"
        " file workers, sweeping the server sync interval):",
        "**Shape check:** server-state shipping stays a small fraction of"
        " bus bytes even at the tightest interval, while the bulk rides"
        " the disk the backup can already reach through its own port."),
    "E10": (
        "## E10 — piggybacked nondeterministic events (section 10)",
        "**Paper sketch (future work):** buffer nondeterministic results,"
        " attach them to the next ordinary outgoing message, replay them"
        " during rollforward; a crash before any message escaped may redo"
        " them fresh \"without inconsistency\".\n\n**Measured** (clients"
        " reading server time; the process server reads its local clock"
        " through the nondet log):",
        "**Shape check:** logging adds no extra transmissions (it rides"
        " existing messages).  After the server-cluster crash the rolling-"
        "forward process server replayed logged clock values and redid the"
        " evidence-free ones — clients still observed monotonic time."),
    "E11": (
        "## E11 — individual-process failure (section 10 extension)",
        "**Paper sketch (future work):** \"Hardware failures which do not"
        " affect all processes in a cluster will not cause the cluster to"
        " crash, but will cause individual backups to be brought up for"
        " the affected processes.\"\n\n**Measured** (victim and bystander"
        " co-located; both outputs verified identical to failure-free):",
        "**Shape check:** per-process failure promotes exactly one backup"
        " with zero cluster-wide crash handling and the cluster stays up;"
        " a whole-cluster crash drags the bystander through recovery"
        " too."),
    "E12": (
        "## E12 — the sync-interval optimum, model vs measurement"
        " (section 7.8)",
        "**Paper gap:** the interval is \"tunable\" with no guidance.  We"
        " sweep it under repeated injected failures and compare against"
        " the analytic square-root law in `repro.analysis`"
        " (`T* = sqrt(2 * stall * MTBF)`):",
        "**Shape check:** measured completion is U-shaped in the interval"
        " and the measured argmin brackets the analytic optimum — tight"
        " syncing pays overhead on every interval, loose syncing pays"
        " rollforward on every failure."),
    "E13": (
        "## E13 — negative ablations (sections 5.1, 5.4)",
        "**Why three destinations and a write count?**  Each mechanism is"
        " removed by a method patch (`tests/ablations.py`) and a failure"
        " lands in the gap:",
        "**Shape check:** without the DEST_BACKUP saved queues, the"
        " promoted bank server has no input to replay and every client"
        " hangs.  Without writes-since-sync suppression, a restarted"
        " depositor re-sends deposits the lost primary already made and"
        " the audit finds money created from nothing.  The full protocol"
        " is exactly-once in both scenarios."),
    "P2": (
        "## P2 — parallel, cache-aware campaign execution (wall-clock"
        " speedup, byte-identical reports)",
        "**Not a paper claim — an infrastructure result.**  One scenario"
        " runs in milliseconds; campaigns run hundreds, each twice"
        " (failure-free reference + faulted run), and `run_campaign` used to execute"
        " them strictly serially.  `repro.exec` shards seeds across a"
        " spawn-safe process pool (the simulator stays single-threaded"
        " *per scenario*) with a deterministic seed-order merge, and"
        " memoizes failure-free references in an on-disk cache keyed by"
        " content hash of (workload recipe, machine shape, event budget,"
        " code-version stamp) — stale or corrupt entries are detected"
        " and fall back to live runs"
        " (`benchmarks/test_p2_parallel_campaign.py`;"
        " `repro campaign --jobs N --cache-dir D` runs the same engine"
        " from the CLI; see `docs/performance.md`):",
        "**Shape check:** the parallel and warm-cache reports are"
        " **byte-identical** to the serial sweep — digests, fault"
        " outcomes and verdicts — regardless of worker count or"
        " completion order; the warm run hits the reference cache on"
        " every seed.  The ≥ 2× wall-clock speedup (serial vs"
        " `--jobs 4`, cold cache) is asserted on ≥ 4-core hosts."
        "  Worker counts clamp to the CPU count, and one effective"
        " worker degrades to an in-process serial run with no pool"
        " spawned — on a 1-core host the recorded speedup is 1.0 by"
        " construction (`degraded_to_serial` in the JSON), the measured"
        " serial/degraded wall ratio is asserted ≥ 0.9 (the guard that"
        " caught `--jobs 4` running 0.85× serial speed on one core),"
        " and determinism plus the cache's own speedup are still"
        " verified.  Numbers land in `BENCH_core.json` under"
        " `parallel_campaign`."),
    "F4": (
        "## F4 — latency under fault: request percentiles through"
        " crash recovery and bus degradation",
        "**Paper claim (section 8):** fault tolerance is affordable"
        " because its cost hides off the critical path.  F1–F3 price"
        " that in throughput; F4 prices it where production systems"
        " feel it — the request-latency distribution.  The OLTP bank"
        " workload runs under escalating fault regimes; every"
        " Send→reply round trip feeds a streaming log-spaced histogram"
        " (`repro.metrics`, ≤3.125% relative error, exact deterministic"
        " merge) and each regime reports p50/p90/p99 in virtual ticks"
        " (`repro campaign` prints the same curve per fault kind;"
        " see `docs/faults.md`):",
        "**Shape check:** the *median* is untouched by a crash — p50"
        " under crash-rollforward equals the failure-free p50 to the"
        " tick, while p99 absorbs the whole recovery stall (>10× the"
        " failure-free p99).  p99 escalates monotonically with regime"
        " severity (clean < degraded bus < crash ≤ crash on a degraded"
        " bus), and every regime still delivers exactly one reply per"
        " transaction — the latency *is* the whole price.  Curves land"
        " in `BENCH_core.json` under `latency_under_fault`."),
    "F5": (
        "## F5 — recovery-design shootout: four designs over the fault"
        " campaign, plus heartbeat vs poll detection",
        "**Paper claim (section 2):** the survey dismisses the era's"
        " alternatives qualitatively; F5 makes the comparison"
        " quantitative.  Four recovery designs — the paper's dual-backup"
        " rollforward (`auragen`), frequent whole-state checkpointing"
        " (`checkpoint`, every 8 ops), LLFT-style per-input"
        " reconciliation (`llft`, arXiv:1004.1864) and message logging"
        " with sparse checkpoints (`msglog`, arXiv:0911.3092) — protect"
        " the same OLTP bank server while the seeded fault-campaign"
        " machinery aims six fault kinds at the machine.  All four are"
        " knob settings of the *same* backup mechanism, so only the"
        " policy varies.  **How to read the table:** one row per"
        " (design, fault kind) cell; `request p99` is the Send→reply"
        " tail under that fault (virtual ticks), `recovery mean` the"
        " crash-handling latency (None for the kinds that never kill a"
        " cluster), and `syncs`/`ckpts` show what the steady state"
        " paid.  Compare designs down a fixed fault kind; compare fault"
        " kinds along a fixed design (scenario files reach the same"
        " matrix via the `baseline:` block —"
        " `examples/scenarios/baseline-shootout.yaml`):",
        "**Shape check:** every cell completes — the designs trade"
        " cost, never correctness.  `auragen` owns the steady-state"
        " tail (never beaten on the non-crash kinds) while `llft` pays"
        " ~2.7× its p99 for per-input syncs; under `time_crash` the"
        " long-replay designs (`checkpoint`, `llft`) pay >10× the"
        " rollforward p99.  The second table prices *detection*: the"
        " heartbeat detector (`MachineConfig.detector = \"heartbeat\"`,"
        " interval 4000, 2 misses; see `docs/faults.md`, \"Crash"
        " detection\") detects the same crash in ~9k ticks against the"
        " poll detector's ~50k — a 5.5× cut, asserted in the benchmark"
        " and in `tests/test_detector.py`."
        "  Curves land in `BENCH_core.json` under `recovery_shootout`."),
    "F2": (
        "## F2 — seeded fault-injection campaign (sections 7.8–7.10)",
        "**Why random timing?**  The grid experiments crash clusters at"
        " hand-picked virtual times; the paper's claim is that recovery"
        " works under *any* single-failure timing.  Each seed expands"
        " deterministically into a workload plus a fault plan — a crash at"
        " an arbitrary time, squarely inside a sync, mid bus transmission,"
        " during an in-progress recovery (double fault), a single-process"
        " failure, a crash-then-restore cycle, a degraded bus (seeded"
        " loss/garble, forced failover), or a compound fault (double"
        " crash, crash during recovery, drive failure plus crash) — and"
        " invariant checkers compare the run against its failure-free twin"
        " (`repro campaign --seeds N` runs the same sweep from the CLI;"
        " see `docs/faults.md`):",
        "**Shape check:** every scenario passes — single faults reproduce"
        " the failure-free terminal output and exit codes exactly, double"
        " faults never duplicate or reorder externally visible output, all"
        " promoted processes become runnable, and bus/recovery metrics"
        " agree with the trace.  Re-running any seed reproduces its trace"
        " byte-for-byte."),
    "F3": (
        "## F3 — degraded-bus sweep: loss rate vs throughput and"
        " recovery (section 5.1)",
        "**Paper claim (section 5.1):** messages are sent \"across one of"
        " the two intercluster buses\" with all-or-none delivery; the"
        " second bus exists precisely because one can fail.  F3 injects"
        " seeded per-transmission loss and garble on either physical bus"
        " and lets the retransmission/ack/failover protocol mask them,"
        " sweeping the loss rate over the OLTP bank workload — once"
        " failure-free and once with the bank server's cluster crashed"
        " mid-run (`repro campaign --kinds bus_loss,bus_garble` and"
        " `--loss-rate` run the same machinery from the CLI):",
        "**Shape check:** terminal output and client exit codes are"
        " identical at every loss rate — the degradation is priced purely"
        " in virtual time (retry backoff), never in external behaviour."
        "  Retransmissions grow with the rate; the heaviest setting"
        " forces a bus failover and still recovers the mid-run crash"
        " with exactly-once replies."),
}

HEADER = """# EXPERIMENTS — paper claims vs measured results

**Paper:** Borg, Baumbach & Glazer, *A Message System Supporting Fault
Tolerance*, SOSP 1983.

The paper's evaluation (section 8) is qualitative — the prototype was not
finished and "realistic performance measurements are not available" — and
it contains **no numbered result tables or figures** beyond the section
7.1 architecture diagram.  Following DESIGN.md's experiment index, every
claim in sections 2 and 8 (plus the section 10 extensions) is quantified
by a benchmark that regenerates the tables below.

This file is generated:

    python benchmarks/generate_experiments_md.py

All times are virtual ticks (1 tick = 1 µs of simulated 1983 hardware).
Absolute numbers depend on the cost model in `repro/config.py` (documented
there; not calibrated to real Auragen hardware, which was never measured);
the *shapes* are the reproduction targets and every benchmark asserts its
shape, so regressions fail the suite.

---

## F1 — Auragen 4000 architecture (section 7.1)

`benchmarks/test_f1_topology.py` regenerates the paper's only figure: 2-32
processor clusters (two work processors, one executive processor, shared
memory) on the dual intercluster bus, every peripheral dual-ported between
two clusters, disks mirrored in pairs, and clusters that may have no
peripherals at all.  Run with `-s` to see the rendered diagram; the test
asserts each structural constraint.
"""

SUMMARY = """
---

## Summary

| Experiment | Paper claim | Result |
|---|---|---|
| F1 | cluster architecture constraints | all hold |
| E1 | message-based FT ≪ checkpointing overhead | percents vs ~450% |
| E2 | 1 bus transmission / 3 destinations; no work-CPU cost | holds; 0 ticks |
| E3 | primary stalls only to enqueue | flat per-sync stalls |
| E4 | sync bounds recomputation | delay grows with interval |
| E5 | short-lived processes need no backup | 100% avoided below trigger |
| E6 | unaffected processes barely pause | ~1 ms vs 50 ms detection |
| E7 | three modes behave as specified | all survive; fullback pre-protects |
| E8 | failures invisible to users | every grid cell identical |
| E9 | server sync avoids bulk message traffic | small share of bus bytes |
| E10 | nondet events replayable via piggyback | consistent across crashes |
| E11 | per-process failure, cluster stays up | 1 promotion, 0 crash handling |
| E12 | sync interval tunable (no guidance given) | sqrt-law optimum matches sweep |
| E13 | each mechanism is load-bearing | ablations hang clients / inflate money |
| F2 | recovery survives any single-failure timing | all seeded scenarios pass |
| F3 | dual bus masks transient bus faults | identical output at every loss rate |
| F4 | FT cost hides off the critical path | crash leaves p50 untouched; p99 pays |
| F5 | section 2 rivals priced quantitatively | auragen owns the tail; heartbeat 5.5× faster |
| P2 | (infrastructure) parallel campaign engine | ≥2× on ≥4 cores, byte-identical reports |
"""


def capture_tables() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH"))
        if part)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
         "-q", "-s", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=1800, env=env)
    if "failed" in result.stdout:
        print(result.stdout[-3000:])
        raise SystemExit("benchmarks failed; not regenerating")
    tables = {}
    current_tag, buffer = None, []
    for line in result.stdout.splitlines():
        tag = line.split(":", 1)[0]
        if tag in COMMENTARY and line.startswith(tag + ":"):
            if current_tag is not None:
                tables[current_tag] = "\n".join(buffer)
            current_tag, buffer = tag, [line]
        elif current_tag is not None:
            # Dots-only lines are pytest progress markers, not table rows;
            # they (or the benchmark footer) terminate the current table.
            if not line.strip(". ") or line.startswith("="):
                tables[current_tag] = "\n".join(buffer)
                current_tag, buffer = None, []
            else:
                buffer.append(line)
    if current_tag is not None:
        tables[current_tag] = "\n".join(buffer)
    return tables


def main() -> None:
    tables = capture_tables()
    order = [f"E{i}" for i in range(1, 14)] + ["F2", "F3", "F4", "F5",
                                               "P2"]
    missing = [tag for tag in order if tag not in tables]
    if missing:
        raise SystemExit(f"missing experiment tables: {missing}")
    parts = [HEADER]
    for tag in order:
        title, intro, outro = COMMENTARY[tag]
        parts.append(f"\n---\n\n{title}\n\n{intro}\n")
        parts.append("```\n" + tables[tag] + "\n```\n")
        parts.append(outro + "\n")
    parts.append(SUMMARY)
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"EXPERIMENTS.md regenerated with {len(order)} experiments")


if __name__ == "__main__":
    main()
