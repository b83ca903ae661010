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

What a traced run *retains* is columns, not a record object per entry:

* ``_times``, an ``array("q")`` of emit times, so ``time`` must be an
  ``int`` number of ticks (the simulator's clock; anything else raises
  ``TypeError`` at ``emit``);
* ``_sids``, an ``array("I")`` of schema ids, a schema being the
  ``(category, keys)`` pair of one emit-site signature, interned once
  (a few dozen per run);
* ``_values``, one flat list holding every record's detail values in
  emit order, ``len(keys)`` of them per record, so readers find a
  record's values by walking the columns in order.

A :class:`TraceRecord` is a view built from the columns when someone
reads the log, or at emit time when a listener is subscribed to the
category.
"""

from __future__ import annotations

from array import array
from sys import intern
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

Listener = Callable[["TraceRecord"], None]

#: One interned emit-site signature: ``(category, keys)``.
Schema = Tuple[str, Tuple[str, ...]]


def _format_line(time: int, category: str, keys: Iterable[str],
                 values: Iterable[Any]) -> str:
    """The one-line rendering shared by records and the stored columns."""
    parts = " ".join(f"{key}={value!r}" for key, value in zip(keys, values))
    return f"[{time:>12}] {category:<24} {parts}"


class TraceRecord:
    """One timeline entry: what happened, when, and structured details.

    This is what readers and listeners see, not what :class:`TraceLog`
    stores: the log keeps columns and builds a record per entry on
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


class TraceLog:
    """An append-only, filterable log read as :class:`TraceRecord` entries.

    Storage is columnar (see the module docstring): a record is one
    entry in each of the time and schema-id arrays plus its values in
    the flat value list.  ``__iter__``, :meth:`select` and listeners
    hand out records built from the columns;
    :meth:`lines`/:meth:`dump`/:meth:`tail` format the columns
    directly, and :meth:`count` counts schema ids without reading a
    record.  ``time`` is an ``int`` number of ticks.

    Tracing can be disabled wholesale (``enabled=False``) for benchmark runs
    where the retained records themselves would dominate cost; counters in
    :mod:`repro.metrics` stay live regardless.
    """

    def __init__(self, enabled: bool = True,
                 categories: Optional[List[str]] = None) -> None:
        self._enabled = enabled
        self._only = set(categories) if categories is not None else None
        self._times = array("q")
        self._sids = array("I")
        self._values: List[Any] = []
        #: Schema id -> schema, and ``(category, *keys)`` -> schema id:
        #: one entry per emit-site signature, a few dozen per run, kept
        #: across :meth:`clear`.
        self._schemas: List[Schema] = []
        self._schema_ids: Dict[Tuple[str, ...], int] = {}
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
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        for time, category, keys, values in self._rows():
            yield TraceRecord(time, category, dict(zip(keys, values)))

    def _rows(self, first: int = 0, last: Optional[int] = None,
              category: Optional[str] = None
              ) -> Iterator[Tuple[int, str, Tuple[str, ...], List[Any]]]:
        """``(time, category, keys, values)`` of records ``[first:last]``
        (non-negative bounds), optionally of one category only, read from
        the columns in order."""
        schemas, values = self._schemas, self._values
        widths = [len(keys) for _, keys in schemas]
        # Records [first:] hold the last values of the list: counting
        # back from its end reads only them, so tail() reads no more
        # than it returns.
        offset = len(values) - sum(map(widths.__getitem__,
                                       self._sids[first:]))
        for time, sid in zip(self._times[first:last],
                             self._sids[first:last]):
            name, keys = schemas[sid]
            end = offset + len(keys)
            if category is None or name == category:
                yield time, name, keys, values[offset:end]
            offset = end

    def _add_schema(self, signature: Tuple[str, ...]) -> int:
        sid = len(self._schemas)
        self._schemas.append((signature[0], signature[1:]))
        self._schema_ids[signature] = sid
        return sid

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
            signature = (category, *detail)
            try:
                sid = self._schema_ids[signature]
            except KeyError:
                sid = self._add_schema(signature)
            # Times first: a non-int time raises before any column grows.
            self._times.append(time)
            self._sids.append(sid)
            self._values.extend(detail.values())
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
        records = (TraceRecord(time, name, dict(zip(keys, values)))
                   for time, name, keys, values in self._rows(
                       category=category))
        if where is None:
            return list(records)
        return [record for record in records if where(record)]

    def count(self, category: str) -> int:
        """Number of records in ``category``."""
        return sum(self._sids.count(sid)
                   for sid, schema in enumerate(self._schemas)
                   if schema[0] == category)

    def lines(self, start: Optional[int] = None,
              stop: Optional[int] = None) -> List[str]:
        """Records ``[start:stop]`` (slice semantics; default all) as the
        lines :meth:`TraceRecord.format` renders, formatted straight from
        the columns without building a record each."""
        first, last, _ = slice(start, stop).indices(len(self._times))
        return [_format_line(*row) for row in self._rows(first, last)]

    def dump(self, limit: Optional[int] = None) -> str:
        """Render the trace, or its first ``limit`` records and a count of
        the rest, as text."""
        if limit is not None and limit < 0:
            raise ValueError(f"dump limit must be >= 0, not {limit}")
        lines = self.lines(stop=limit)
        if limit is not None and len(self) > limit:
            lines.append(f"... {len(self) - limit} more records")
        return "\n".join(lines)

    def tail(self, count: int) -> List[str]:
        """The last ``count`` records as formatted lines (failure reports
        show the end of a diverged run's timeline)."""
        if count < 0:
            raise ValueError(f"tail count must be >= 0, not {count}")
        return self.lines(start=max(len(self) - count, 0))

    def clear(self) -> None:
        """Drop all records (keeps enabled/filter settings)."""
        self._times = array("q")
        self._sids = array("I")
        self._values = []
