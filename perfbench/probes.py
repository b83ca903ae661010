"""Isolated layer probes and the host-speed yardstick; prints one JSON line.

Timed calls into public functions only, each the median of ``ROUNDS``
batches, in ns per operation.  ``probe.calib_ns_per_op`` touches no
``repro`` code: it is a pure-Python ``heapq`` push/pop loop, printed so
two sets of runs taken on different hosts can be normalised.

The queue probes use the classic *hold* model (pop the earliest event,
push one a random increment later) at a fixed pending depth.  They are
the only place queue-backend cost can show: the modelled bus keeps the
pending set below ~100 events on every end-to-end workload.
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import statistics
import sys
import time
from typing import Callable, Dict

ROUNDS = 5


def _ns_per_op(batch: Callable[[], None], ops: int) -> float:
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        batch()
        samples.append((time.perf_counter() - start) / ops * 1e9)
    return statistics.median(samples)


def probe_calibration(ops: int) -> float:
    rng = random.Random(1)
    increments = [rng.randrange(1, 1000) for _ in range(ops)]

    def batch() -> None:
        heap = list(range(64))
        push, pop = heapq.heappush, heapq.heappop
        for increment in increments:
            push(heap, pop(heap) + increment)

    return _ns_per_op(batch, ops)


def probe_queue_hold(name: str, depth: int, ops: int) -> float:
    from repro.sim.queues import make_queue

    rng = random.Random(depth)
    increments = [rng.randrange(1, 2000) for _ in range(ops)]
    queue = make_queue(name)

    def action() -> None:
        pass

    for _ in range(depth):
        queue.push(rng.randrange(0, 2000), action)

    def batch() -> None:
        push, pop = queue.push, queue.pop
        for increment in increments:
            push(pop().time + increment, action)

    return _ns_per_op(batch, ops)


def probe_hist_record(ops: int) -> float:
    from repro.metrics.histogram import LogHistogram

    rng = random.Random(2)
    values = [rng.randrange(0, 200_000) for _ in range(ops)]
    hist = LogHistogram()

    def batch() -> None:
        record = hist.record
        for value in values:
            record(value)

    return _ns_per_op(batch, ops)


def probe_trace(enabled: bool, ops: int) -> float:
    """``emit`` with recording on, or the hot-path ``if trace.active``
    gate with it off."""
    from repro.sim.trace import TraceLog

    trace = TraceLog(enabled=enabled)

    def batch() -> None:
        for tick in range(ops):
            if trace.active:
                trace.emit(tick, "probe.event", pid=7, channel=3)
        trace.clear()

    return _ns_per_op(batch, ops)


def probe_addrspace_set(ops: int) -> float:
    from repro.paging.addrspace import AddressSpace

    space = AddressSpace(words_per_page=128)
    space.declare("data", 64 * 128)
    space.make_fully_resident()
    base = space.address_of("data")
    rng = random.Random(3)
    addresses = [base + rng.randrange(0, 64 * 128) for _ in range(ops)]

    def batch() -> None:
        write = space.write_word
        for address in addresses:
            write(address, 1)
        space.clear_dirty()

    return _ns_per_op(batch, ops)


def run_probes(scale: float) -> Dict[str, float]:
    ops = max(1000, int(60_000 * scale))
    out = {"probe.calib_ns_per_op": probe_calibration(ops)}
    for name in ("heap", "calendar", "ladder"):
        for depth in (64, 16384):
            out[f"probe.queue_hold_ns.{name}.d{depth}"] = \
                probe_queue_hold(name, depth, ops // 2)
    out["probe.hist_record_ns"] = probe_hist_record(ops)
    out["probe.trace_emit_ns"] = probe_trace(True, ops)
    out["probe.trace_gated_ns"] = probe_trace(False, ops)
    out["probe.addrspace_set_ns"] = probe_addrspace_set(ops)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    print(json.dumps(run_probes(args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
