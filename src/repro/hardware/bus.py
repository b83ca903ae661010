"""The intercluster bus with atomic multi-destination delivery.

Section 5.1 requires two hardware guarantees, and this module is where the
reproduction provides them:

1. **All-or-none**: either every addressed (live) cluster receives a
   transmission or none does.  We deliver all legs at a single event time;
   if the *sender* crashes before the transmission completes, no cluster
   receives anything (matching 7.8: a sync that never leaves the crashed
   cluster simply never happened).
2. **No interleaving**: the bus carries one transmission at a time, so two
   messages can never arrive at shared destinations in different relative
   orders — a primary and its backup always see the same message order.

Each transmission crosses the bus exactly once regardless of how many
clusters it addresses (section 8.1's "transmitted just once" claim, counted
by the ``bus.transmissions`` metric).

The Auragen's dual bus exists for hardware fault tolerance; with
:class:`~repro.config.BusFaultConfig` rates set, a deterministic
transient-fault layer (:mod:`repro.hardware.buslink`) sits under the
logical channel: attempts may be lost or garbled, the sender retries with
exponential backoff, receivers suppress duplicates by sequence number,
and a link that keeps failing is declared dead (failover to the
alternate bus, trace ``bus.failover``).  The bus stays granted to the
retrying transmission for the whole retry chain, so both section 5.1
guarantees hold *above* the fault layer: a faulted attempt delivers to
no one (loss) or to everyone exactly once (ack loss + suppression), and
transmissions never interleave.  With rates at zero no layer is
installed and this module's original fast path runs byte-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, TYPE_CHECKING

from ..config import BusFaultConfig, CostModel
from ..messages.message import Message
from ..metrics import MetricSet
from ..sim import Simulator, TraceLog
from ..types import ClusterId
from .buslink import ACK_LOSS, DualBusFaultLayer, OK
from .cluster import group_legs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .cluster import Cluster


@dataclass(slots=True)
class _Transmission:
    """The bus's in-flight transmission; slotted, one per message."""

    src: ClusterId
    message: Message
    #: Fault-layer fields (unused — and never touched — on the perfect
    #: channel fast path).
    seqno: int = 0
    attempts: int = 0
    attempts_on_link: int = 0


class InterclusterBus:
    """A single shared bus serializing all intercluster transmissions.

    Clusters request the bus when their outgoing queue becomes non-empty;
    arbitration is FIFO by request order (deterministic).  The Auragen's
    dual bus is modelled as one logical bus: the duplicate exists for
    hardware fault tolerance, not extra bandwidth, and single-bus
    serialization is exactly the non-interleaving guarantee we need.
    """

    def __init__(self, sim: Simulator, costs: CostModel, metrics: MetricSet,
                 trace: TraceLog) -> None:
        self._sim = sim
        self._costs = costs
        self._metrics = metrics
        self._trace = trace
        #: Hot-path aliases (stable in-place-mutated stores, a bound
        #: histogram recorder and fixed per-transmission cost
        #: parameters): one transmission pays two counter bumps, one busy
        #: charge and one histogram record, and the method-call layers
        #: were measurable on dense workloads.
        self._mcounters = metrics._counters
        self._mbusy = metrics._busy
        self._record_request_queue = metrics.recorder("bus.request_queue")
        self._latency = costs.bus_latency
        self._ticks_per_byte = costs.bus_ticks_per_byte
        self._clusters: Dict[ClusterId, "Cluster"] = {}
        self._requests: Deque[ClusterId] = deque()
        self._requested: set = set()
        self._current: Optional[_Transmission] = None
        #: Cumulative ticks the bus spent transmitting (every physical
        #: attempt, retries included) — the numerator of
        #: :meth:`utilization`.
        self._busy_ticks = 0
        #: Installed by :meth:`configure_faults`; ``None`` keeps the
        #: original perfect-channel fast path byte-identical.
        self._faults: Optional[DualBusFaultLayer] = None

    def attach(self, cluster: "Cluster") -> None:
        """Register a cluster on the bus (done once at machine build)."""
        self._clusters[cluster.cluster_id] = cluster

    def configure_faults(self, config: BusFaultConfig) -> None:
        """Install (or remove) the dual-bus transient-fault layer; a
        config with both rates at zero leaves the perfect channel."""
        self._faults = (DualBusFaultLayer(config) if config is not None
                        and config.enabled else None)

    def close(self) -> None:
        """Forget the attached clusters, each of which holds this bus
        (part of :meth:`repro.core.machine.Machine.close`)."""
        self._clusters.clear()

    @property
    def fault_layer(self) -> Optional[DualBusFaultLayer]:
        return self._faults

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def busy_ticks(self) -> int:
        """Total ticks spent transmitting (retries included)."""
        return self._busy_ticks

    def utilization(self, now: int) -> float:
        """Fraction of virtual time the bus spent occupied — the
        saturation gauge the million-user scaling argument reads."""
        return self._busy_ticks / now if now > 0 else 0.0

    def request(self, cluster_id: ClusterId) -> None:
        """A cluster signals it has outgoing traffic ready to transmit."""
        if cluster_id in self._requested:
            return
        self._requested.add(cluster_id)
        self._requests.append(cluster_id)
        self._record_request_queue(len(self._requests))
        if self._current is None:
            self._grant_next()

    def sender_crashed(self, cluster_id: ClusterId) -> None:
        """Abort any in-flight transmission from a crashed cluster.

        The message is lost in its entirety: no destination receives it
        (all-or-none).  Queued bus requests from the cluster are dropped.
        """
        if self._current is not None and self._current.src == cluster_id:
            self._trace.emit(self._sim.now, "bus.aborted",
                             src=cluster_id,
                             msg=self._current.message.describe())
            self._metrics.incr("bus.aborted_transmissions")
            self._current = None
            # Re-grant immediately: queued traffic from live clusters must
            # not stall until the aborted transmission's original
            # completion event fires.  That stale event sees a different
            # ``_current`` and is a no-op.
            self._grant_next()

    def _grant_next(self) -> None:
        if self._current is not None:
            return  # a grant is already in flight
        while self._requests:
            cluster_id = self._requests.popleft()
            self._requested.discard(cluster_id)
            cluster = self._clusters[cluster_id]
            if not cluster.alive or not cluster.outgoing_enabled:
                continue
            message = cluster.pop_outgoing()
            if message is None:
                continue
            self._begin(cluster_id, message)
            return

    def _begin(self, src: ClusterId, message: Message) -> None:
        if self._faults is not None:
            self._begin_faulted(src, message)
            return
        transmission = _Transmission(src, message)
        self._current = transmission
        size = message.size_bytes
        duration = self._latency + size * self._ticks_per_byte
        counters = self._mcounters
        counters["bus.transmissions"] += 1
        counters["bus.bytes"] += size
        # ``_value_``, the member's stored value: ``.value`` is a
        # Python-level descriptor call per transmission.
        self._mbusy[("bus", message.kind._value_)] += duration
        self._busy_ticks += duration
        if self._trace.active:
            # describe()/target_clusters() build strings and tuples; skip
            # the work entirely when nothing is listening.
            self._trace.emit(self._sim.now, "bus.transmit", src=src,
                             msg=message.describe(),
                             targets=message.target_clusters())
        self._sim.post(duration, self._complete, (transmission,))

    def _complete(self, transmission: _Transmission) -> None:
        if self._current is not transmission:
            # Aborted mid-flight by a sender crash; the abort re-granted
            # the bus already, so this stale completion does nothing.
            return
        self._current = None
        message = transmission.message
        src_cluster = self._clusters[transmission.src]
        if not src_cluster.alive:
            # Sender died at the exact completion instant: treat as lost.
            self._trace.emit(self._sim.now, "bus.aborted",
                             src=transmission.src, msg=message.describe())
            self._metrics.incr("bus.aborted_transmissions")
        else:
            self._deliver_all(message)
            # The sender may have queued more traffic while we were busy
            # (``has_outgoing()``, inlined: once per transmission).
            if src_cluster._outgoing:
                self.request(transmission.src)
        self._grant_next()

    def _deliver_all(self, message: Message) -> None:
        """Atomic delivery: every live addressed cluster receives the
        message at this same event time.

        Each cluster gets its group of legs (:func:`group_legs`, cluster
        order matching ``target_clusters()``): precompiled on a channel
        message, grouped here for any other.
        """
        groups = message.leg_groups
        if groups is None:
            groups = group_legs(message.kind, message.deliveries)
        clusters = self._clusters
        counters = self._mcounters
        for cluster_id, legs in groups:
            cluster = clusters.get(cluster_id)
            if cluster is None or not cluster.alive:
                counters["bus.deliveries_to_dead"] += 1
                continue
            cluster.receive(message, legs)
            counters["bus.deliveries"] += 1

    # ------------------------------------------------------------------
    # degraded mode: the dual-bus transient-fault protocol
    # ------------------------------------------------------------------
    #
    # The bus stays granted to one transmission for its whole retry
    # chain, so the no-interleaving guarantee is structural.  Every
    # attempt is judged by the active link's deterministic fault stream;
    # a lost or garbled attempt delivers to nobody, an ack-lost attempt
    # delivers to everybody (receivers later suppress the retransmitted
    # duplicate by sequence number) — all-or-none either way.

    def _begin_faulted(self, src: ClusterId, message: Message) -> None:
        transmission = _Transmission(src=src, message=message,
                                     seqno=self._faults.next_seqno(src))
        self._current = transmission
        self._attempt(transmission)

    def _attempt(self, transmission: _Transmission) -> None:
        """Put one physical attempt on the active link."""
        faults = self._faults
        link = faults.active_link
        first = transmission.attempts == 0
        transmission.attempts += 1
        transmission.attempts_on_link += 1
        message = transmission.message
        duration = (self._costs.bus_latency
                    + message.size_bytes * self._costs.bus_ticks_per_byte)
        if first:
            self._metrics.incr("bus.transmissions")
        else:
            self._metrics.incr("bus.retransmissions")
        self._metrics.incr("bus.bytes", message.size_bytes)
        self._metrics.add_busy("bus", message.kind._value_, duration)
        self._busy_ticks += duration
        if self._trace.active:
            category = "bus.transmit" if first else "bus.retransmit"
            self._trace.emit(self._sim.now, category, src=transmission.src,
                             msg=message.describe(),
                             targets=message.target_clusters(),
                             link=link.link_id, seq=transmission.seqno,
                             attempt=transmission.attempts)
        self._sim.post(duration, self._complete_attempt,
                       (transmission, link))

    def _complete_attempt(self, transmission: _Transmission,
                          link) -> None:
        if self._current is not transmission:
            # Aborted mid-flight by a sender crash (stale completion).
            return
        src_cluster = self._clusters[transmission.src]
        if not src_cluster.alive:
            self._abort_faulted(transmission)
            return
        faults = self._faults
        outcome = link.judge()
        if outcome is OK or outcome is ACK_LOSS:
            self._deliver_tracked(transmission)
        if outcome is OK:
            faults.record_success(link)
            self._current = None
            if src_cluster.has_outgoing():
                self.request(transmission.src)
            self._grant_next()
            return
        # loss / ack_loss / garble: the sender sees no acknowledgement.
        faults.record_failure(link)
        self._metrics.incr(f"bus.faults.{outcome}")
        if self._trace.active:
            self._trace.emit(self._sim.now, "bus.fault", kind=outcome,
                             link=link.link_id, src=transmission.src,
                             seq=transmission.seqno,
                             attempt=transmission.attempts)
        if faults.should_fail_over(link, transmission.attempts_on_link):
            fresh = faults.fail_over(link)
            transmission.attempts_on_link = 0
            self._metrics.incr("bus.failovers")
            self._trace.emit(self._sim.now, "bus.failover",
                             dead_link=link.link_id,
                             active_link=fresh.link_id,
                             consecutive=link.consecutive_failures)
        backoff = faults.backoff(transmission.attempts)
        self._sim.post(backoff, self._retry, (transmission,))

    def _retry(self, transmission: _Transmission) -> None:
        if self._current is not transmission:
            return  # sender crashed during the backoff window
        if not self._clusters[transmission.src].alive:
            self._abort_faulted(transmission)
            return
        self._attempt(transmission)

    def _abort_faulted(self, transmission: _Transmission) -> None:
        """Sender died between attempts (or at a completion instant)."""
        self._trace.emit(self._sim.now, "bus.aborted",
                         src=transmission.src,
                         msg=transmission.message.describe())
        self._metrics.incr("bus.aborted_transmissions")
        self._current = None
        self._grant_next()

    def _deliver_tracked(self, transmission: _Transmission) -> None:
        """Atomic delivery with receiver-side duplicate suppression: a
        cluster that already accepted this (src, seqno) — an earlier
        ack-lost attempt — drops the retransmitted copy."""
        faults = self._faults
        message = transmission.message
        groups = message.leg_groups
        if groups is None:
            groups = group_legs(message.kind, message.deliveries)
        for cluster_id, cluster_legs in groups:
            cluster = self._clusters.get(cluster_id)
            if cluster is None or not cluster.alive:
                self._metrics.incr("bus.deliveries_to_dead")
                continue
            if faults.is_duplicate(cluster_id, transmission.src,
                                   transmission.seqno):
                self._metrics.incr("bus.duplicates_suppressed")
                if self._trace.active:
                    self._trace.emit(self._sim.now, "bus.duplicate",
                                     dst=cluster_id, src=transmission.src,
                                     seq=transmission.seqno)
                continue
            cluster.receive(message, cluster_legs)
            self._metrics.incr("bus.deliveries")
