"""On-disk memoization of failure-free reference runs.

Every campaign scenario runs twice: a failure-free reference and the
faulted run the invariants judge against it.  The reference's only role
is its *observable* — per-process terminal output plus exit codes (the
E8 equivalence projection) — and that observable is a pure function of
the workload recipe, the machine shape, the event budget, and the code
that simulates them.  So it caches: :class:`ReferenceCache` stores one
small JSON file per distinct reference, keyed by a content hash of
exactly those four inputs, and any number of seeds (or re-runs, or
parallel workers) that stratify to the same workload pay for one live
reference run instead of N.

Safety over speed, always:

* the key — and a ``stamp`` field inside every entry — includes a
  **code-version stamp** (a hash over the ``repro`` package sources), so
  entries written by different code can never be confused for current;
* every entry carries a ``check`` digest of its own payload, so a
  truncated or hand-edited file is detected, not trusted;
* any unreadable, malformed, stale or tampered entry is treated as a
  plain miss: the caller falls back to a live reference run and the
  entry is rewritten.  A poisoned cache can cost time, never verdicts.

Writes are atomic (temp file + :func:`os.replace` in the same
directory), so concurrent workers computing the same reference race
benignly: last writer wins and both wrote identical content.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..config import MachineConfig
from ..core.machine import Machine
from ..faults.invariants import run_reference

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..workloads.generator import Scenario

#: (per-tag terminal lines, sorted exit codes) — the cached payload.
Observable = Tuple[Dict[str, List[str]], Tuple[int, ...]]

#: Bumped whenever the entry layout changes; old entries become misses.
SCHEMA = "repro-refcache/1"

_code_stamp: Optional[str] = None


def code_stamp() -> str:
    """Hash of every ``.py`` source under the ``repro`` package: the
    code-version component of each cache key.  Computed once per
    process; identical across workers because they see the same tree."""
    global _code_stamp
    if _code_stamp is None:
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        hasher = hashlib.sha256()
        for directory, subdirs, files in os.walk(package_root):
            subdirs[:] = sorted(name for name in subdirs
                                if name != "__pycache__")
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, package_root).encode())
                hasher.update(b"\0")
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
                hasher.update(b"\0")
        _code_stamp = hasher.hexdigest()[:16]
    return _code_stamp


def _canonical_recipe(scenario: "Scenario") -> List[List[Any]]:
    """The workload recipe as plain JSON values (enum modes by name)."""
    items: List[List[Any]] = []
    for kind, cluster, threshold, mode, params in scenario.recipe:
        items.append([kind, cluster, threshold,
                      getattr(mode, "name", str(mode)), list(params)])
    return items


def _payload_check(payload: Dict[str, Any]) -> str:
    """Content digest over an entry's payload, stored alongside it."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ReferenceCache:
    """A directory of memoized failure-free observables.

    ``hits`` / ``misses`` count :meth:`get` outcomes; a detected
    poisoned or stale entry counts as a miss (and is reported in
    ``poisoned``), never as data.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.poisoned = 0

    # -- keys ----------------------------------------------------------

    def scenario_key(self, scenario: "Scenario", max_events: int) -> str:
        """Content hash of everything the reference run depends on."""
        identity = {
            "schema": SCHEMA,
            "stamp": code_stamp(),
            "n_clusters": scenario.n_clusters,
            "max_events": max_events,
            "recipe": _canonical_recipe(scenario),
        }
        canonical = json.dumps(identity, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    # -- read ----------------------------------------------------------

    def get(self, key: str) -> Optional[Observable]:
        """The cached observable, or None on miss *or* on any entry
        that fails validation (stale stamp, bad checksum, truncation)."""
        path = self._path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
            observable = self._validate(entry, key)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if observable is None:
            self.poisoned += 1
            self.misses += 1
            return None
        self.hits += 1
        return observable

    def _validate(self, entry: Any, key: str) -> Optional[Observable]:
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != SCHEMA:
            return None
        if entry.get("stamp") != code_stamp():
            return None  # written by different code: stale, not data
        if entry.get("key") != key:
            return None
        payload = entry.get("payload")
        if (not isinstance(payload, dict)
                or entry.get("check") != _payload_check(payload)):
            return None
        tags = payload.get("tags")
        exits = payload.get("exits")
        if not isinstance(tags, dict) or not isinstance(exits, list):
            return None
        if not all(isinstance(tag, str) and isinstance(lines, list)
                   and all(isinstance(line, str) for line in lines)
                   for tag, lines in tags.items()):
            return None
        if not all(isinstance(code, int) for code in exits):
            return None
        return ({tag: list(lines) for tag, lines in tags.items()},
                tuple(exits))

    # -- write ---------------------------------------------------------

    def put(self, key: str, observable: Observable) -> None:
        """Atomically write an entry; concurrent writers of the same
        key race benignly (identical content, last writer wins)."""
        tags, exits = observable
        payload = {"tags": {tag: list(lines)
                            for tag, lines in tags.items()},
                   "exits": list(exits)}
        entry = {
            "schema": SCHEMA,
            "stamp": code_stamp(),
            "key": key,
            "check": _payload_check(payload),
            "payload": payload,
        }
        descriptor, temp_path = tempfile.mkstemp(
            prefix=f".{key[:16]}.", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(descriptor, "w") as handle:
                json.dump(entry, handle)
            os.replace(temp_path, self._path(key))
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            # A cache write failure must never fail the campaign.


def reference_observable(scenario: "Scenario", max_events: int,
                         cache: Optional[ReferenceCache] = None
                         ) -> Tuple[Optional[Observable], List[str]]:
    """The failure-free observable for a scenario: from the cache when
    possible, from a live reference run otherwise (and then cached).
    A failed live run gives no observable, its one ``reference run:``
    violation, and no cache entry
    (:func:`~repro.faults.invariants.run_reference`)."""
    key = None
    if cache is not None:
        key = cache.scenario_key(scenario, max_events)
        cached = cache.get(key)
        if cached is not None:
            return cached, []
    machine = Machine(MachineConfig(n_clusters=scenario.n_clusters,
                                    trace_enabled=False))
    scenario.build(machine)
    result, violations = run_reference(machine, max_events)
    machine.close()
    if result is not None and key is not None:
        cache.put(key, result)
    return result, violations
