"""Statistical (SIGPROF) profile of one perfbench workload's timed region.

cProfile charges every call its own bookkeeping, so it inflates cheap,
frequent calls and hides costs that are not calls at all: object
construction inside a generated ``__init__``, an ``Enum.__hash__`` paid
for a dict lookup, a builtin charged to whichever layer called it.  This
script samples instead.  A ``SIGPROF`` interval timer interrupts the
untraced timed region (``run.run()``, exactly what perfbench times), and
each sample charges the Python frame that was executing:

* ``layers``: share of samples per perfbench layer (``perfbench/layers.py``
  map).  A frame with no source file (a dataclass ``__init__``) or one
  outside ``repro`` (``enum.py``, ``heapq``) is charged to the innermost
  ``repro`` frame below it, the way the cProfile ledger charges a builtin
  to its caller;
* ``functions``: share per leaf function, ``file:function`` (``repro``
  files relative to the package, others by basename);
* ``repro_lines``: share per innermost ``repro`` source line, which names
  the call site of a leaf outside ``repro``.

Python runs a signal handler at its next check point (a function entry
or a backward jump), so a sample lands on the first such point after the
timer fired: a short function entered very often collects some of the C
work just before it.  The kernel also rounds the interval up to its tick
(4 ms on a 250 Hz host, whatever ``--interval-ms`` asks for), so
``--runs`` repeats the timed region on freshly built workloads for more
samples; ``samples_per_s`` reports the rate actually achieved.

The workload is built with perfbench's own builders (``perfbench/
workloads.py``), at the frozen size times ``--scale``; nothing under
``perfbench/`` is modified.  Prints one JSON object; ``--out`` also
writes it to a file.  Sampling only observes: the run's fingerprint is
included (and checked equal across ``--runs``) so a sampled run can be
checked against an unsampled one.

    python3 benchmarks/sampled_profile.py --workload oltp-steady
    python3 benchmarks/sampled_profile.py --workload oltp-steady \\
        --scale 0.05 --runs 10 --out sampled.json
"""

from __future__ import annotations

import argparse
import collections
import json
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layers  # noqa: E402  (perfbench/layers.py)
import workloads  # noqa: E402  (perfbench/workloads.py)
import repro  # noqa: E402

REPRO_ROOT = Path(repro.__file__).resolve().parent
_REPRO_PREFIX = str(REPRO_ROOT) + "/"


def _where(filename: str) -> str:
    if filename.startswith(_REPRO_PREFIX):
        return filename[len(_REPRO_PREFIX):]
    return Path(filename).name if filename.startswith("/") else filename


class Sampler:
    """Counts (leaf function, layer, innermost repro line) per SIGPROF."""

    def __init__(self) -> None:
        self.functions: collections.Counter = collections.Counter()
        self.layers: collections.Counter = collections.Counter()
        self.lines: collections.Counter = collections.Counter()
        self.samples = 0

    def __call__(self, signum: int, frame: Any) -> None:
        if frame is None:
            return
        self.samples += 1
        code = frame.f_code
        self.functions[f"{_where(code.co_filename)}:{code.co_name}"] += 1
        inner: Optional[Any] = frame
        while inner is not None \
                and not inner.f_code.co_filename.startswith(_REPRO_PREFIX):
            inner = inner.f_back
        if inner is None:
            self.layers["other"] += 1
            return
        filename = inner.f_code.co_filename
        self.layers[layers.layer_of(filename, REPRO_ROOT)] += 1
        self.lines[f"{_where(filename)}:{inner.f_lineno}"] += 1


def _shares(counter: collections.Counter, total: int,
            top: Optional[int]) -> List[Dict[str, Any]]:
    return [{"name": name, "samples": count,
             "share": round(count / total, 4)}
            for name, count in counter.most_common(top)]


def profile(workload: str, seed: int, scale: float, interval_ms: float,
            top: int, runs: int = 1) -> Dict[str, Any]:
    sampler = Sampler()
    interval = interval_ms / 1000.0
    fingerprints = set()
    wall_s = 0.0
    for _ in range(runs):
        run = workloads.BUILDERS[workload](
            seed, workloads.scaled(workload, scale))
        previous = signal.signal(signal.SIGPROF, sampler)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        try:
            run.run()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        wall_s += time.perf_counter() - start
        fingerprints.add(run.outcome()["fingerprint"])
    if len(fingerprints) != 1:
        raise SystemExit(f"{workload}: runs disagree on the fingerprint: "
                         f"{sorted(fingerprints)}")
    total = max(sampler.samples, 1)
    return {
        "workload": workload, "seed": seed, "scale": scale, "runs": runs,
        "interval_ms": interval_ms, "wall_s": round(wall_s, 4),
        "samples": sampler.samples,
        "samples_per_s": round(sampler.samples / wall_s, 1),
        "fingerprint": fingerprints.pop(),
        "layers": {layer: round(sampler.layers.get(layer, 0) / total, 4)
                   for layer in layers.LAYERS},
        "functions": _shares(sampler.functions, total, top),
        "repro_lines": _shares(sampler.lines, total, top),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="oltp-steady",
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the frozen perfbench size")
    parser.add_argument("--interval-ms", type=float, default=0.5,
                        help="SIGPROF interval in CPU milliseconds")
    parser.add_argument("--runs", type=int, default=1,
                        help="timed regions sampled, each freshly built")
    parser.add_argument("--top", type=int, default=40,
                        help="functions and lines listed")
    parser.add_argument("--out", default="", help="also write the JSON here")
    args = parser.parse_args()
    report = profile(args.workload, args.seed, args.scale,
                     args.interval_ms, args.top, args.runs)
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
