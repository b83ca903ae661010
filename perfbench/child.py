"""One (workload, repeat) in a fresh interpreter; prints one JSON line.

``run.py`` spawns this sequentially, once per repeat, so ``ru_maxrss``
is per workload and no run warms another.  ``setup_s`` runs from the
parent's spawn stamp (``time.perf_counter`` is CLOCK_MONOTONIC, shared
across processes) to just before the timed region: interpreter start,
``import repro``, machine construction, workload build.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's perf_counter at spawn")
    parser.add_argument("--mode", choices=("timed", "traced", "setup"),
                        default="timed")
    args = parser.parse_args()

    import repro
    import layers
    import workloads

    run = workloads.BUILDERS[args.workload](
        args.seed, workloads.scaled(args.workload, args.scale))
    gc.collect()
    setup_s = time.perf_counter() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_s}
    if args.mode == "traced":
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.runcall(run.run_stepped)
        result["wall_s"] = time.perf_counter() - start
        result["ledger"] = layers.ledger(
            profile.getstats(), Path(repro.__file__).parent,
            type(run).run_stepped.__code__)
    else:
        start = time.perf_counter()
        run.run()
        result["wall_s"] = time.perf_counter() - start
    result.update(run.outcome())
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
