"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one experiment from DESIGN.md's index (the
paper has no numbered result tables; these quantify its section 8 claims
and section 2 comparisons).  Conventions:

* each benchmark prints the experiment's result table (visible with
  ``pytest benchmarks/ --benchmark-only -s`` and summarized in
  EXPERIMENTS.md);
* each asserts the qualitative *shape* the paper predicts, so a regression
  that flips a conclusion fails loudly;
* simulations are deterministic, so ``benchmark.pedantic(rounds=1)`` wraps
  one full run — the reported time is real wall-clock for the whole
  simulated experiment.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

import pytest

from repro import Machine, MachineConfig


def quiet_machine(n_clusters: int = 3, **overrides) -> Machine:
    config = MachineConfig(n_clusters=n_clusters, trace_enabled=False)
    for key, value in overrides.items():
        setattr(config, key, value)
    return Machine(config.validate())


#: The experiment record P2, F4 and F5 merge their sections into.
BENCH_CORE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_core.json")


def record_section(name: str, section: Dict[str, Any]) -> None:
    """Merge ``section`` into ``BENCH_core.json`` under ``name``, keeping
    the sections the other experiments wrote."""
    data: Dict[str, Any] = {}
    try:
        with open(BENCH_CORE) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        pass
    data["schema"] = "repro-bench/1"
    data[name] = section
    with open(BENCH_CORE, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its
    result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def table_printer(capsys):
    """Print a table so it survives pytest's capture (shown with -s)."""
    def emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)
    return emit
