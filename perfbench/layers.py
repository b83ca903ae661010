"""Layer map and the per-layer ledger built from one cProfile run.

A layer is a ``repro`` subpackage (a few small ones fold into a
neighbour); every called Python function is charged to the layer that
owns its file.  A builtin has no file, so its time and calls are charged
to the layer of the function that called it -- ``heapq.heappush`` called
from ``sim/loop.py`` is event-queue time, i.e. ``sim``.  Python code
outside ``repro`` (stdlib, perfbench's own stepping loop) is ``other``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable

LAYERS = ("sim", "hardware", "kernel", "messages", "backup", "paging",
          "programs", "workloads", "servers", "recovery", "resilience",
          "faults", "scenario", "metrics", "core", "other")

#: ``repro`` subpackage -> layer.  A subpackage missing here is an error
#: (``test_perfbench.py`` walks ``src/repro``), so a new one must be
#: placed deliberately.  Top-level modules (``config.py``, ``cli.py``,
#: ``types.py`` ...) are ``core``.
SUBPACKAGE_LAYER = {
    "sim": "sim", "hardware": "hardware", "kernel": "kernel",
    "messages": "messages", "backup": "backup", "paging": "paging",
    "programs": "programs", "avm": "programs",
    "workloads": "workloads",
    "servers": "servers", "fs": "servers",
    "recovery": "recovery", "resilience": "resilience",
    "faults": "faults", "exec": "faults",
    "scenario": "scenario", "metrics": "metrics",
    "core": "core", "analysis": "core", "baselines": "core",
    "bench": "core",
}


class LayerMapError(Exception):
    """A file under ``repro`` belongs to no declared layer."""


def layer_of(filename: str, repro_root: Path) -> str:
    """The layer owning ``filename`` (``other`` outside ``repro``)."""
    try:
        relative = Path(filename).relative_to(repro_root)
    except ValueError:
        return "other"
    if len(relative.parts) == 1:
        return "core"
    layer = SUBPACKAGE_LAYER.get(relative.parts[0])
    if layer is None:
        raise LayerMapError(f"{filename}: subpackage "
                            f"{relative.parts[0]!r} maps to no layer")
    return layer


def ledger(stats: Iterable[Any], repro_root: Path,
           root_code: Any) -> Dict[str, Any]:
    """Fold ``cProfile.Profile.getstats()`` into per-layer self time and
    calls.  ``root_code`` is the code object of the profiled function:
    its span (``totaltime``) is the traced total the ledger must sum to.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    # Builtin time already charged to a calling layer, per builtin.
    charged_s: Dict[str, float] = {}
    charged_calls: Dict[str, int] = {}
    total_s = 0.0
    builtins = []
    for entry in stats:
        code = entry.code
        if isinstance(code, str):
            builtins.append(entry)
            continue
        if code is root_code:
            total_s = entry.totaltime
        layer = layer_of(code.co_filename, repro_root)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                self_s[layer] += sub.inlinetime
                calls[layer] += sub.callcount
                charged_s[sub.code] = (charged_s.get(sub.code, 0.0)
                                       + sub.inlinetime)
                charged_calls[sub.code] = (charged_calls.get(sub.code, 0)
                                           + sub.callcount)
    # What is left of a builtin was called from outside the profiled
    # span (the profiler's own disable()).
    for entry in builtins:
        self_s["other"] += entry.inlinetime - charged_s.get(entry.code, 0.0)
        calls["other"] += entry.callcount - charged_calls.get(entry.code, 0)
    sum_s = sum(self_s.values())
    return {
        "total_s": total_s,
        "sum_s": sum_s,
        "layers": {layer: {"self_s": self_s[layer],
                           "share": self_s[layer] / sum_s if sum_s else 0.0,
                           "calls": calls[layer]}
                   for layer in LAYERS},
    }
