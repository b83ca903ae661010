"""Structured trace log for simulation runs.

Every interesting transition (message transmitted, sync applied, cluster
crashed, backup promoted, ...) is appended to the :class:`TraceLog` and
read back as a :class:`TraceRecord`.  The trace serves three purposes:

* debugging — a readable timeline of a run;
* tests — assertions about *how* an outcome was reached, not just the
  outcome (e.g. "exactly one bus transmission per three-destination
  message" in experiment E2);
* the equivalence experiment E8 — comparing externally visible event
  subsequences between failure-free and crashed-and-recovered runs.

Emit points sit on the hottest paths in the simulator, so the quiet case
must cost almost nothing: :attr:`TraceLog.active` is a precomputed
"anyone listening?" flag (recording enabled or at least one listener) and
:meth:`TraceLog.emit` returns immediately when it is false, before
building any record.  Listeners subscribe either to every record or to an
explicit set of categories; category subscriptions are dispatched through
a per-category index, so a fault-injection trigger armed on
``sync.primary`` never pays for the flood of ``bus.*`` records.

What a traced run *retains* is one flat tuple per record, not a record
object: ``(time, category, keys, *values)``, where ``keys`` is the emit
site's keyword-name tuple, shared between every record the site emits.
A :class:`TraceRecord` is a view built from a row when someone reads the
log, or at emit time when a listener is subscribed to the category.
"""

from __future__ import annotations

from sys import intern
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

Listener = Callable[["TraceRecord"], None]

#: One stored record: ``(time, category, keys, *values)``.
Row = Tuple[Any, ...]


def _format_line(time: int, category: str, keys: Iterable[str],
                 values: Iterable[Any]) -> str:
    """The one-line rendering shared by records and stored rows."""
    parts = " ".join(f"{key}={value!r}" for key, value in zip(keys, values))
    return f"[{time:>12}] {category:<24} {parts}"


class TraceRecord:
    """One timeline entry: what happened, when, and structured details.

    This is what readers and listeners see, not what :class:`TraceLog`
    stores: the log keeps flat rows and builds a record per row on
    iteration/``select`` (and per emit for a subscribed listener), so
    two reads of the same entry give equal but distinct objects, and
    changing a record changes nothing in the log.  Slotted and category-
    interned (``sys.intern``); records compare by value and are mutated
    nowhere (treat them as frozen).
    """

    __slots__ = ("time", "category", "detail")

    def __init__(self, time: int, category: str,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.category = intern(category)
        self.detail = {} if detail is None else detail

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, "
                f"category={self.category!r}, detail={self.detail!r})")

    def __eq__(self, other: object) -> Any:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time
                and self.category == other.category
                and self.detail == other.detail)

    def format(self) -> str:
        """Render the record as a single human-readable line."""
        detail = self.detail
        return _format_line(self.time, self.category, detail,
                            detail.values())


def _record_of(row: Row) -> TraceRecord:
    return TraceRecord(row[0], row[1], dict(zip(row[2], row[3:])))


class TraceLog:
    """An append-only, filterable log read as :class:`TraceRecord` entries.

    Storage is one flat tuple per record (see the module docstring);
    ``__iter__``, :meth:`select` and listeners hand out records built
    from the rows, :meth:`lines`/:meth:`dump`/:meth:`tail` format the
    rows directly.

    Tracing can be disabled wholesale (``enabled=False``) for benchmark runs
    where the retained rows themselves would dominate cost; counters in
    :mod:`repro.metrics` stay live regardless.
    """

    def __init__(self, enabled: bool = True,
                 categories: Optional[List[str]] = None) -> None:
        self._enabled = enabled
        self._only = set(categories) if categories is not None else None
        self._rows: List[Row] = []
        #: Key tuple -> the one shared instance every row of that shape
        #: points at (one per emit-site signature, a few dozen per run).
        self._schemas: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._listeners: List[Listener] = []
        self._by_category: Dict[str, List[Listener]] = {}
        #: True when :meth:`emit` has any work to do (recording on, or at
        #: least one listener).  Hot call sites may read this to skip
        #: building expensive detail values; ``emit`` checks it first
        #: regardless.  Maintained internally — do not assign to it.
        self.active = enabled
        #: Dispatch depth: >0 while listener callbacks run, so listener
        #: (un)subscriptions from inside a callback can be deferred
        #: instead of copying the listener list on every emit.
        self._dispatching = 0
        self._deferred: List = []

    @property
    def enabled(self) -> bool:
        """Whether records are stored (listeners fire regardless)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._refresh_active()

    def _refresh_active(self) -> None:
        self.active = bool(self._enabled or self._listeners
                           or self._by_category)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_record_of, self._rows)

    def subscribe(self, listener: Listener,
                  categories: Optional[Sequence[str]] = None) -> None:
        """Register a callback invoked synchronously for emitted records,
        regardless of the ``enabled`` flag or storage category filter.

        With ``categories=None`` the listener observes *every* record.
        With an explicit category list it observes only those categories,
        via a per-category index — the cheap option for triggers that
        care about one transition kind on a machine emitting thousands.

        This is the hook semantic fault-injection triggers attach to
        (:mod:`repro.faults`): emit points mark the interesting
        transitions — "Nth sync of pid", "first transmission from cluster
        C", "a recovery began" — so a listener can act on them without
        the components knowing about fault injection.  Listeners must be
        deterministic; anything they schedule goes through the simulator
        and keeps the run reproducible.

        Subscribing from inside a listener callback takes effect after
        the current record finishes dispatching.
        """
        if self._dispatching:
            self._deferred.append((self.subscribe, (listener, categories)))
            return
        if categories is None:
            self._listeners.append(listener)
        else:
            for category in categories:
                self._by_category.setdefault(category, []).append(listener)
        self._refresh_active()

    def unsubscribe(self, listener: Listener) -> None:
        """Remove a previously subscribed listener from the wildcard list
        and every category index (no-op if absent).  Unsubscribing from
        inside a listener callback takes effect after the current record
        finishes dispatching (the in-flight dispatch still completes)."""
        if self._dispatching:
            self._deferred.append((self.unsubscribe, (listener,)))
            return
        if listener in self._listeners:
            self._listeners.remove(listener)
        for category, listeners in list(self._by_category.items()):
            if listener in listeners:
                listeners.remove(listener)
            if not listeners:
                del self._by_category[category]
        self._refresh_active()

    def emit(self, time: int, category: str, **detail: Any) -> None:
        """Append one record (no-op when disabled or filtered out).

        Subscribed listeners observe the record even when recording is
        disabled or the category is filtered out of storage.
        """
        if not self.active:
            return
        if self._enabled and (self._only is None or category in self._only):
            keys = tuple(detail)
            schemas = self._schemas
            try:
                keys = schemas[keys]
            except KeyError:
                schemas[keys] = keys
            self._rows.append((time, category, keys, *detail.values()))
        listeners = self._listeners
        scoped = self._by_category.get(category)
        if not listeners and not scoped:
            return
        record = TraceRecord(time, category, detail)
        self._dispatching += 1
        try:
            for listener in listeners:
                listener(record)
            if scoped:
                for listener in scoped:
                    listener(record)
        finally:
            self._dispatching -= 1
            if self._deferred and not self._dispatching:
                deferred, self._deferred = self._deferred, []
                for method, args in deferred:
                    method(*args)

    def select(self, category: Optional[str] = None,
               where: Optional[Callable[[TraceRecord], bool]] = None
               ) -> List[TraceRecord]:
        """Return records matching ``category`` and/or predicate ``where``."""
        result = []
        for row in self._rows:
            if category is not None and row[1] != category:
                continue
            record = _record_of(row)
            if where is not None and not where(record):
                continue
            result.append(record)
        return result

    def count(self, category: str) -> int:
        """Number of records in ``category``."""
        return sum(1 for row in self._rows if row[1] == category)

    def lines(self, start: Optional[int] = None,
              stop: Optional[int] = None) -> List[str]:
        """Records ``[start:stop]`` (slice semantics; default all) as the
        lines :meth:`TraceRecord.format` renders, formatted straight from
        the stored rows without building a record each."""
        return [_format_line(row[0], row[1], row[2], row[3:])
                for row in self._rows[start:stop]]

    def dump(self, limit: Optional[int] = None) -> str:
        """Render the (optionally truncated) trace as text."""
        lines = self.lines(stop=limit)
        if limit is not None and len(self._rows) > limit:
            lines.append(f"... {len(self._rows) - limit} more records")
        return "\n".join(lines)

    def tail(self, count: int) -> List[str]:
        """The last ``count`` records as formatted lines (failure reports
        show the end of a diverged run's timeline)."""
        return self.lines(start=-count)

    def clear(self) -> None:
        """Drop all records (keeps enabled/filter settings)."""
        self._rows.clear()
