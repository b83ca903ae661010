"""TraceLog's columnar storage against the list-of-records model it replaced.

``TraceLog`` retains each record as one entry in its time and schema-id
columns plus its values in one flat list, and hands out
:class:`TraceRecord` views on demand.  Nothing a reader or a listener can
observe may differ from the obvious implementation — a list of
``TraceRecord`` objects, one built per emit — which is kept here as the
reference.  A seeded random sequence of emits (varying categories, key
sets and value types), wildcard and scoped (un)subscriptions, including
ones made from inside a listener callback, ``enabled`` toggles and
``clear()`` calls is driven through both in lockstep, with and without a
``categories=`` storage filter; length, iteration, ``select``, ``count``,
``tail``, ``dump``, ``lines`` (every slice of the log) and every record
every listener saw must agree, and so must the ``ValueError`` a negative
``tail`` count or ``dump`` limit raises.

The second half pins what the layout is for: retained bytes per record
on a traced bank run.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Sequence

import pytest

from repro import Machine, MachineConfig
from repro.sim.trace import TraceLog, TraceRecord
from repro.workloads.oltp import build_bank_workload


class ReferenceTraceLog:
    """The model: every emit builds a ``TraceRecord`` and the log is a
    list of them.  Listener (un)subscriptions made while a record is
    being dispatched take effect after that dispatch."""

    def __init__(self, enabled: bool = True,
                 categories: Optional[List[str]] = None) -> None:
        self.enabled = enabled
        self._only = set(categories) if categories is not None else None
        self._records: List[TraceRecord] = []
        self._wildcard: List[Callable] = []
        self._scoped: Dict[str, List[Callable]] = {}
        self._dispatching = False
        self._deferred: List[Callable[[], None]] = []

    @property
    def active(self) -> bool:
        return bool(self.enabled or self._wildcard or self._scoped)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def subscribe(self, listener, categories: Optional[Sequence[str]] = None):
        if self._dispatching:
            self._deferred.append(
                lambda: self.subscribe(listener, categories))
            return
        if categories is None:
            self._wildcard.append(listener)
        else:
            for category in categories:
                self._scoped.setdefault(category, []).append(listener)

    def unsubscribe(self, listener) -> None:
        if self._dispatching:
            self._deferred.append(lambda: self.unsubscribe(listener))
            return
        if listener in self._wildcard:
            self._wildcard.remove(listener)
        for category in list(self._scoped):
            if listener in self._scoped[category]:
                self._scoped[category].remove(listener)
            if not self._scoped[category]:
                del self._scoped[category]

    def emit(self, time: int, category: str, **detail: Any) -> None:
        record = TraceRecord(time, category, detail)
        if self.enabled and (self._only is None or category in self._only):
            self._records.append(record)
        targets = self._wildcard + self._scoped.get(category, [])
        if not targets:
            return
        self._dispatching = True
        for listener in targets:
            listener(record)
        self._dispatching = False
        deferred, self._deferred = self._deferred, []
        for action in deferred:
            action()

    def select(self, category=None, where=None) -> List[TraceRecord]:
        return [record for record in self._records
                if (category is None or record.category == category)
                and (where is None or where(record))]

    def count(self, category: str) -> int:
        return len(self.select(category))

    def lines(self, start=None, stop=None) -> List[str]:
        return [record.format() for record in self._records[start:stop]]

    def dump(self, limit: Optional[int] = None) -> str:
        if limit is not None and limit < 0:
            raise ValueError(limit)
        lines = self.lines(stop=limit)
        if limit is not None and len(self._records) > limit:
            lines.append(f"... {len(self._records) - limit} more records")
        return "\n".join(lines)

    def tail(self, count: int) -> List[str]:
        if count < 0:
            raise ValueError(count)
        return [record.format()
                for record in self._records[max(len(self) - count, 0):]]

    def clear(self) -> None:
        self._records.clear()


CATEGORIES = ["bus.transmit", "bus.deliver", "sync.primary", "proc.exit",
              "x", "a.much.longer.category.name.than.the.column"]

#: Key sets an emit draws from: shared keys in different orders, a
#: singleton, the empty detail and a wide one.
KEY_SETS = [(), ("pid",), ("pid", "cluster"), ("cluster", "pid"),
            ("src", "msg", "targets"),
            ("kind", "link", "src", "seq", "attempt", "extra")]


def _value(rng: random.Random) -> Any:
    pick = rng.randrange(8)
    if pick == 0:
        return rng.randrange(-5, 10 ** 12)
    if pick == 1:
        return f"data#{rng.randrange(1000)} 3->7 chan={rng.randrange(9)}"
    if pick == 2:
        return tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
    if pick == 3:
        return None
    if pick == 4:
        return rng.random() < 0.5
    if pick == 5:
        return rng.random()
    if pick == 6:
        return [rng.randrange(3), "it's"]
    return {"nested": rng.randrange(3)}


class Pair:
    """One logical listener, instantiated once per implementation so
    each side records what *its* log dispatched."""

    def __init__(self, index: int, real: TraceLog,
                 model: ReferenceTraceLog) -> None:
        self.index = index
        self.seen = {id(real): [], id(model): []}
        #: Set by the driver: ``(trigger category, action)`` runs once
        #: per log from inside the callback, against the dispatching log.
        self.inside: Optional[tuple] = None
        self._fired: set = set()
        self.real = self._make(real)
        self.model = self._make(model)

    def _make(self, log):
        def listener(record: TraceRecord) -> None:
            self.seen[id(log)].append(
                (record.time, record.category, dict(record.detail)))
            if self.inside is not None and id(log) not in self._fired \
                    and record.category == self.inside[0]:
                self._fired.add(id(log))
                self.inside[1](log)
        return listener

    def arm(self, trigger: str, action: Callable) -> None:
        self.inside = (trigger, action)
        self._fired = set()

    def of(self, log):
        return self.real if isinstance(log, TraceLog) else self.model


def _assert_same(real: TraceLog, model: ReferenceTraceLog,
                 rng: random.Random) -> None:
    assert len(real) == len(model)
    assert real.active == model.active
    assert list(real) == list(model)
    assert real.lines() == model.lines()
    assert real.lines() == [record.format() for record in real]
    category = rng.choice(CATEGORIES)
    assert real.select(category) == model.select(category)
    assert real.count(category) == model.count(category)

    def where(record: TraceRecord) -> bool:
        return record.time % 3 == 0 and "pid" in record.detail

    assert real.select(where=where) == model.select(where=where)
    assert real.select(category, where) == model.select(category, where)
    size = len(model)
    for count in (0, 1, 5, size, size + 3):
        assert real.tail(count) == model.tail(count)
    for limit in (None, 0, 2, size, size + 1):
        assert real.dump(limit) == model.dump(limit)
    for log in (real, model):
        with pytest.raises(ValueError):
            log.tail(-2)
        with pytest.raises(ValueError):
            log.dump(-1)
    start = rng.randrange(-size - 2, size + 3)
    stop = rng.randrange(-size - 2, size + 3)
    assert real.lines(start, stop) == model.lines(start, stop)


@pytest.mark.parametrize("only", [None, ["bus.transmit", "x"]])
@pytest.mark.parametrize("seed", range(6))
def test_rows_match_record_list_model(seed, only):
    rng = random.Random(seed)
    enabled = rng.random() < 0.7
    real = TraceLog(enabled=enabled, categories=only)
    model = ReferenceTraceLog(enabled=enabled, categories=only)
    pairs = [Pair(index, real, model) for index in range(5)]
    key_sets = list(KEY_SETS)
    now = 0

    def both(action: Callable) -> None:
        action(real)
        action(model)

    for step in range(700):
        roll = rng.random()
        if roll < 0.62:
            now += rng.randrange(0, 2_000_000)
            category = rng.choice(CATEGORIES)
            keys = rng.choice(key_sets)
            detail = {key: _value(rng) for key in keys}
            both(lambda log: log.emit(now, category, **detail))
        elif roll < 0.72:
            pair = rng.choice(pairs)
            scope = (None if rng.random() < 0.4 else
                     rng.sample(CATEGORIES, rng.randrange(1, 3)))
            both(lambda log: log.subscribe(pair.of(log), scope))
        elif roll < 0.80:
            pair = rng.choice(pairs)
            both(lambda log: log.unsubscribe(pair.of(log)))
        elif roll < 0.88:
            # Re-arm one listener to (un)subscribe from inside its own
            # callback the next time it sees a given category.
            pair, other = rng.sample(pairs, 2)
            trigger = rng.choice(CATEGORIES)
            kind = rng.randrange(3)
            if kind == 0:
                pair.arm(trigger, lambda log, p=pair:
                         log.unsubscribe(p.of(log)))
            elif kind == 1:
                pair.arm(trigger, lambda log, o=other:
                         log.subscribe(o.of(log)))
            else:
                pair.arm(trigger, lambda log, o=other, c=trigger:
                         log.subscribe(o.of(log), [c]))
        elif roll < 0.95:
            value = rng.random() < 0.6
            real.enabled = value
            model.enabled = value
        else:
            both(lambda log: log.clear())
            # Key sets never emitted before the clear.
            key_sets.append((f"after_clear_{step}", "pid"))
            key_sets.append((f"after_clear_{step}",))
        if step % 7 == 0:
            _assert_same(real, model, rng)
    _assert_same(real, model, rng)
    for pair in pairs:
        assert pair.seen[id(real)] == pair.seen[id(model)], pair.index


def test_records_are_views_not_storage():
    trace = TraceLog()
    seen: List[TraceRecord] = []
    trace.subscribe(seen.append)
    trace.emit(5, "proc.exit", pid=7, code=0)
    (record,) = trace.select("proc.exit")
    assert record == seen[0] == TraceRecord(5, "proc.exit",
                                            {"pid": 7, "code": 0})
    record.detail["pid"] = 99            # a reader's copy ...
    seen[0].detail["code"] = 99          # ... and a listener's
    assert trace.lines() == ["[           5] proc.exit                "
                             "pid=7 code=0"]
    assert next(iter(trace)).detail == {"pid": 7, "code": 0}


def test_rows_of_one_emit_site_share_their_key_tuple():
    trace = TraceLog()
    for tick in range(50):
        trace.emit(tick, "sync.primary", pid=tick, cluster=1)
        trace.emit(tick, "sync.applied", cluster=1, pid=tick)
    assert trace._schemas == [
        ("sync.primary", ("pid", "cluster")),
        ("sync.applied", ("cluster", "pid"))]
    assert list(trace._sids) == [0, 1] * 50
    trace.clear()
    trace.emit(50, "sync.applied", cluster=2, pid=3)
    assert len(trace._schemas) == 2 and list(trace._sids) == [1]


def test_time_is_int_ticks():
    trace = TraceLog()
    trace.emit(3, "proc.exit", pid=1)
    with pytest.raises(TypeError):
        trace.emit(4.5, "proc.exit", pid=2)
    assert len(trace) == 1
    assert trace.lines() == ["[           3] proc.exit                pid=1"]


# -- what the layout is for -------------------------------------------------

def _retained_by_bank_run(trace_enabled: bool):
    """(bytes still allocated after a 4-cluster bank run, records)."""
    gc.collect()
    tracemalloc.start()
    try:
        machine = Machine(MachineConfig(n_clusters=4,
                                        trace_enabled=trace_enabled))
        build_bank_workload(machine, n_clients=4, txns_per_client=400)
        machine.run_until_idle()
        gc.collect()
        return tracemalloc.get_traced_memory()[0], len(machine.trace)
    finally:
        tracemalloc.stop()


def test_retained_bytes_per_record_bound():
    quiet, no_records = _retained_by_bank_run(trace_enabled=False)
    traced, records = _retained_by_bank_run(trace_enabled=True)
    assert no_records == 0 and records > 3000
    per_record = (traced - quiet) / records
    # The describe() string, its value-list slot and 12 B of columns; a
    # flat row tuple per entry was ~204, a record object plus its
    # detail dict ~440.
    assert per_record <= 140, per_record
