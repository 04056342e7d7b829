"""The simulated transport (default :class:`TransportBackend`).

The query engine and the async runtime talk to the network through the
:class:`TransportBackend` protocol; :class:`SimTransport` below is its
discrete-event implementation (and the default), while
:mod:`repro.net.udp` provides a real asyncio/UDP backend with the same
surface.

Three delivery modes are offered:

* :meth:`SimTransport.request` — synchronous request/response.  The
  handler of the destination endpoint runs immediately; bytes are
  accounted in both directions and the round-trip latency is *returned*
  so callers can accumulate per-operation virtual time without running
  the event loop.  Indexing and maintenance flows (the statistics
  phase, HDK and incremental publishing, QDI activation) use this mode,
  as does the synchronous routing walk behind them
  (:meth:`SimTransport.deliver_hop` is its per-hop fast path); queries
  never do.

* :meth:`SimTransport.send_async` — schedules delivery through the
  simulator's event queue after a sampled latency; the building block
  of :meth:`SimTransport.request_async`.

* :meth:`SimTransport.request_async` — the correlated request/reply API
  the async query runtime builds on: every call gets a request id and a
  :class:`~repro.sim.procs.Future` that resolves with a
  :class:`RequestOutcome` when the reply arrives (or, for one-way
  messages, on delivery).  Churn drops and timeouts are *surfaced* in
  the outcome instead of raising, and per-destination in-flight counts
  are tracked for the monitoring dashboard.

With :meth:`SimTransport.configure_service_model` each destination
endpoint additionally gets a *bounded service queue* on the event
kernel (the queue the Klemm/NCA'06 congestion controller protects,
loaded by experiment E8): async messages wait in a finite FIFO and are
processed at a fixed ``service_rate``, so hot owners exhibit real
queueing delay — and overflow *drops*, surfaced to async senders as an
``"overflow"`` outcome whose notification travels back with one network
delay.  Off by default (infinite instantaneous capacity, the historical
behaviour); only the event-loop delivery paths queue, the synchronous
compatibility path is untouched.

Every byte is accounted twice over: globally per message kind
(``net.bytes.sent.<kind>``) and per destination peer (for load-balance
metrics).
"""

from __future__ import annotations

import collections
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Mapping, Optional, Protocol, Tuple

from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.sim.events import Simulator
from repro.sim.procs import Future

__all__ = ["DeliveryError", "Endpoint", "RequestOutcome", "SimTransport",
           "TransportBackend"]


class DeliveryError(Exception):
    """Raised when a message is addressed to an unknown or dead endpoint."""


@dataclass
class RequestOutcome:
    """Resolution of one :meth:`SimTransport.request_async` call.

    ``status`` is ``"ok"`` (reply received, or one-way delivery
    confirmed), ``"dropped"`` (the destination unregistered before
    delivery — churn), ``"overflow"`` (the destination's bounded service
    queue was full — congestion; the request is retryable), or
    ``"timeout"``.  ``rtt`` is the virtual time between send and
    resolution.
    """

    request_id: int
    status: str
    request: Message
    reply: Optional[Message]
    rtt: float

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def request_bytes(self) -> int:
        return self.request.size_bytes()

    @property
    def reply_bytes(self) -> int:
        return self.reply.size_bytes() if self.reply is not None else 0


class Endpoint(Protocol):
    """Anything attachable to the transport.

    ``on_message`` may return a reply message (or ``None`` for one-way
    traffic).
    """

    def on_message(self, message: Message) -> Optional[Message]:
        """Handle one inbound message, optionally returning a reply."""
        ...


class TransportBackend(Protocol):
    """What the query engine requires from a transport.

    Extracted from the simulated transport so the same
    ``AsyncQueryRuntime`` query engine drives either the
    discrete-event simulator (:class:`SimTransport`) or real sockets
    (:class:`repro.net.udp.UdpTransport`).  Implementations must mirror
    the failure semantics documented on :class:`SimTransport`:

    * :meth:`request` raises :class:`DeliveryError` for unknown or
      departed destinations (and, on real networks, timeouts);
    * :meth:`request_async` never raises — churn, congestion and
      timeouts are surfaced as the :class:`RequestOutcome` status;
    * per-destination in-flight counts cover every
      :meth:`request_async` send-to-resolution window and return to
      zero once all outcomes resolved.
    """

    #: Per-destination inbound traffic, for load-balance metrics.
    bytes_in: Dict[int, int]
    msgs_in: Dict[int, int]

    def register(self, peer_id: int, endpoint: Endpoint) -> None:
        """Attach a locally-hosted endpoint under ``peer_id``."""
        ...

    def unregister(self, peer_id: int) -> None:
        """Detach a peer (e.g. on churn departure)."""
        ...

    def is_registered(self, peer_id: int) -> bool:
        ...

    def endpoints(self) -> Tuple[int, ...]:
        ...

    def reset_load_counters(self) -> None:
        ...

    def inflight(self, peer_id: int) -> int:
        ...

    def total_inflight(self) -> int:
        ...

    def request(self, message: Message) -> Tuple[Optional[Message], float]:
        ...

    def send_local(self, message: Message) -> Optional[Message]:
        ...

    def send_async(self, message: Message,
                   on_reply: Optional[Callable[[Message], None]] = None,
                   on_drop: Optional[Callable[[Message], None]] = None,
                   on_delivered: Optional[
                       Callable[[Message, Optional[Message]], None]] = None,
                   on_overflow: Optional[
                       Callable[[Message], None]] = None) -> None:
        ...

    def request_async(self, message: Message,
                      timeout: Optional[float] = None) -> Future:
        ...


class _ServiceQueue:
    """A bounded FIFO + fixed-rate server for one destination endpoint.

    Tasks (message deliveries) wait in a finite queue and complete after
    ``1 / rate`` seconds of service each; arrivals beyond ``capacity``
    invoke their overflow callback instead.

    ``reject_cost`` is the fraction of one service time the server
    spends *shedding* an overflow arrival (receiving the message off
    the wire and generating the rejection) — wasted work that competes
    with useful service, the mechanism that turns an overload of blind
    retransmissions into genuine congestion collapse.  The cost is
    accumulated and charged onto the next service completion.
    """

    __slots__ = ("simulator", "rate", "capacity", "reject_cost",
                 "arrived", "completed", "dropped", "_queue", "_busy",
                 "_penalty")

    def __init__(self, simulator: Simulator, rate: float, capacity: int,
                 reject_cost: float = 0.0):
        self.simulator = simulator
        self.rate = rate
        self.capacity = capacity
        self.reject_cost = reject_cost
        self.arrived = 0
        self.completed = 0
        self.dropped = 0
        self._queue: Deque[Callable[[], None]] = collections.deque()
        self._busy = False
        self._penalty = 0.0      #: reject-handling seconds not yet served

    @property
    def queue_length(self) -> int:
        """Tasks currently waiting (excluding the one in service)."""
        return len(self._queue)

    def offer(self, task: Callable[[], None],
              on_overflow: Callable[[], None]) -> None:
        self.arrived += 1
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            self._penalty += self.reject_cost / self.rate
            on_overflow()
            return
        self._queue.append(task)
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        task = self._queue.popleft()
        service_time = 1.0 / self.rate + self._penalty
        self._penalty = 0.0

        def finish() -> None:
            self.completed += 1
            task()
            self._serve_next()

        self.simulator.schedule(service_time, finish)


class SimTransport:
    """Point-to-point messaging between registered endpoints (simulated).

    The default :class:`TransportBackend`: delivery happens in virtual
    time on the discrete-event kernel, with per-message byte accounting
    against the wire-size model of :mod:`repro.net.message`.
    """

    def __init__(self, simulator: Simulator,
                 latency: Optional[LatencyModel] = None,
                 rng: Optional[random.Random] = None):
        self.simulator = simulator
        self.latency = latency if latency is not None else ConstantLatency()
        self.rng = rng if rng is not None else random.Random(0)
        self._endpoints: Dict[int, Endpoint] = {}
        #: Per-peer inbound traffic, for load-balance experiments.
        self.bytes_in: Dict[int, int] = {}
        self.msgs_in: Dict[int, int] = {}
        #: Outstanding :meth:`request_async` calls per destination.
        self._inflight: Dict[int, int] = {}
        self._request_ids = itertools.count(1)
        #: Bounded-service-queue model (0 rate = disabled: infinite
        #: instantaneous capacity, the historical behaviour).
        self._service_rate = 0.0
        self._service_capacity = 0
        self._service_reject_cost = 0.0
        self._service_queues: Dict[int, _ServiceQueue] = {}
        #: Heterogeneity: per-endpoint service-rate overrides (slow or
        #: fast minorities) on top of the uniform configured rate.
        self._service_rate_overrides: Dict[int, float] = {}
        #: Active network partition: endpoint id -> group tag; ``None``
        #: means fully connected.  Endpoints absent from the mapping are
        #: in the implicit group ``0``.
        self._partition_of: Optional[Dict[int, int]] = None
        #: Accounting fast path: direct ``Counter`` references per
        #: message kind, invalidated when the registry's generation
        #: moves (``MetricsRegistry.reset`` drops the counter objects).
        self._counter_cache: Dict[str, Tuple] = {}
        self._counter_gen = -1
        self._total_counters: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(self, peer_id: int, endpoint: Endpoint) -> None:
        """Attach ``endpoint`` under ``peer_id``; replaces any previous one."""
        self._endpoints[peer_id] = endpoint
        self.bytes_in.setdefault(peer_id, 0)
        self.msgs_in.setdefault(peer_id, 0)

    def unregister(self, peer_id: int) -> None:
        """Detach a peer (e.g. on churn departure)."""
        self._endpoints.pop(peer_id, None)

    def is_registered(self, peer_id: int) -> bool:
        """True if a live endpoint is attached under ``peer_id``."""
        return peer_id in self._endpoints

    def endpoints(self) -> Tuple[int, ...]:
        """Ids of all registered endpoints."""
        return tuple(self._endpoints.keys())

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _account(self, message: Message) -> None:
        self._account_raw(message.kind, message.dst, message.size_bytes())

    def _kind_counters(self, kind: str) -> Tuple:
        """The ``(messages, bytes)`` counter objects of ``kind``, cached
        (with the totals in ``_total_counters``) until the registry's
        generation moves.

        ``metrics.counter(name)`` is two dict probes plus an f-string per
        call; at 100k-peer indexing scale that dominated delivery.
        """
        metrics = self.simulator.metrics
        if metrics.generation != self._counter_gen:
            self._counter_cache = {}
            self._counter_gen = metrics.generation
            self._total_counters = (metrics.counter("net.msgs.sent"),
                                    metrics.counter("net.bytes.sent"))
        counters = self._counter_cache.get(kind)
        if counters is None:
            counters = (metrics.counter(f"net.msgs.sent.{kind}"),
                        metrics.counter(f"net.bytes.sent.{kind}"))
            self._counter_cache[kind] = counters
        return counters

    def _account_raw(self, kind: str, dst: int, size: int) -> None:
        """Accounting with cached counter objects.  Sizes are always
        non-negative (wire-size model), so the values are bumped
        directly."""
        counters = self._kind_counters(kind)
        msgs_total, bytes_total = self._total_counters
        msgs_total.value += 1.0
        bytes_total.value += size
        counters[0].value += 1.0
        counters[1].value += size
        self.bytes_in[dst] = self.bytes_in.get(dst, 0) + size
        self.msgs_in[dst] = self.msgs_in.get(dst, 0) + 1

    def reset_load_counters(self) -> None:
        """Zero the per-peer inbound counters (between experiment phases).

        Entries for peers that have since unregistered are pruned rather
        than zeroed: under sustained churn the counter dicts would
        otherwise grow monotonically with every peer that ever existed.
        """
        self.bytes_in = {peer_id: 0 for peer_id in self._endpoints}
        self.msgs_in = {peer_id: 0 for peer_id in self._endpoints}

    # ------------------------------------------------------------------
    # Network partitions (fault injection)
    # ------------------------------------------------------------------

    def set_partition(self, groups: Mapping[int, int]) -> None:
        """Partition the network: ``groups`` maps endpoint ids to group
        tags, and any message whose source and destination carry
        different tags is dropped in flight.

        Endpoints absent from the mapping are in the implicit group
        ``0`` (so a single explicit group splits it from the rest, and
        peers joining mid-partition land on the majority side).  Failure
        surfacing matches churn: synchronous :meth:`request` raises
        :class:`DeliveryError`, async delivery invokes ``on_drop`` — and
        the reply leg is checked too, so a partition installed while a
        reply is in flight drops it.  Replaces any previous partition;
        :meth:`clear_partition` heals.
        """
        self._partition_of = dict(groups)

    def clear_partition(self) -> None:
        """Heal the network: resume cross-group delivery."""
        self._partition_of = None

    @property
    def partition_active(self) -> bool:
        """True while a partition installed by :meth:`set_partition`
        is in effect."""
        return self._partition_of is not None

    def _partitioned(self, src: int, dst: int) -> bool:
        groups = self._partition_of
        if groups is None:
            return False
        return groups.get(src, 0) != groups.get(dst, 0)

    # ------------------------------------------------------------------
    # In-flight tracking (async requests)
    # ------------------------------------------------------------------

    def inflight(self, peer_id: int) -> int:
        """Outstanding async requests addressed to ``peer_id``."""
        return self._inflight.get(peer_id, 0)

    def total_inflight(self) -> int:
        """Outstanding async requests across all destinations."""
        return sum(self._inflight.values())

    # ------------------------------------------------------------------
    # Bounded endpoint service queues (congestion model)
    # ------------------------------------------------------------------

    def configure_service_model(self, service_rate: float,
                                queue_capacity: int,
                                reject_cost: float = 0.0) -> None:
        """Give every endpoint a bounded service queue for async delivery.

        ``service_rate`` requests/second per endpoint, at most
        ``queue_capacity`` waiting; overflow surfaces as an
        ``"overflow"`` :class:`RequestOutcome` and costs the server
        ``reject_cost`` service-time fractions of wasted shedding work.
        ``service_rate = 0`` disables the model (and clears any existing
        queues).
        """
        if service_rate < 0:
            raise ValueError(
                f"service_rate must be >= 0, got {service_rate}")
        if service_rate > 0 and queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity}")
        if reject_cost < 0:
            raise ValueError(
                f"reject_cost must be >= 0, got {reject_cost}")
        self._service_rate = service_rate
        self._service_capacity = queue_capacity
        self._service_reject_cost = reject_cost
        self._service_queues = {}
        self._service_rate_overrides = {}

    def set_service_rate(self, peer_id: int, service_rate: float) -> None:
        """Override one endpoint's service rate (peer heterogeneity).

        Requires the service model to be active
        (:meth:`configure_service_model`); the override survives until
        the model is reconfigured.  An existing queue is re-rated in
        place — in-service tasks keep their already-scheduled completion
        time, later ones are served at the new rate.
        """
        if self._service_rate <= 0:
            raise ValueError(
                "set_service_rate requires an active service model "
                "(configure_service_model first)")
        if service_rate <= 0:
            raise ValueError(
                f"service_rate must be positive, got {service_rate}")
        self._service_rate_overrides[peer_id] = service_rate
        queue = self._service_queues.get(peer_id)
        if queue is not None:
            queue.rate = service_rate

    def service_rate_of(self, peer_id: int) -> float:
        """The effective service rate for ``peer_id`` (0 = model off)."""
        if self._service_rate <= 0:
            return 0.0
        return self._service_rate_overrides.get(peer_id,
                                                self._service_rate)

    @property
    def service_model_active(self) -> bool:
        """True when async deliveries go through bounded service queues."""
        return self._service_rate > 0

    def _service_queue_for(self, peer_id: int) -> Optional[_ServiceQueue]:
        if self._service_rate <= 0:
            return None
        queue = self._service_queues.get(peer_id)
        if queue is None:
            queue = _ServiceQueue(self.simulator,
                                  self._service_rate_overrides.get(
                                      peer_id, self._service_rate),
                                  self._service_capacity,
                                  self._service_reject_cost)
            self._service_queues[peer_id] = queue
        return queue

    def service_queue_length(self, peer_id: int) -> int:
        """Messages waiting in ``peer_id``'s service queue."""
        queue = self._service_queues.get(peer_id)
        return queue.queue_length if queue is not None else 0

    def queue_drops_total(self) -> int:
        """Service-queue overflow drops across all endpoints."""
        return sum(queue.dropped
                   for queue in self._service_queues.values())

    def service_stats(self) -> Dict[str, int]:
        """Aggregated service-queue counters (arrived/completed/dropped/
        queued) across all endpoints."""
        queues = self._service_queues.values()
        return {
            "arrived": sum(queue.arrived for queue in queues),
            "completed": sum(queue.completed for queue in queues),
            "dropped": sum(queue.dropped for queue in queues),
            "queued": sum(queue.queue_length for queue in queues),
        }

    # ------------------------------------------------------------------
    # Synchronous request/response
    # ------------------------------------------------------------------

    def request(self, message: Message) -> Tuple[Optional[Message], float]:
        """Deliver ``message`` synchronously and return ``(reply, rtt)``.

        ``rtt`` is the simulated round-trip time (request latency plus, when
        the handler returned a reply, the reply's latency).  Raises
        :class:`DeliveryError` when the destination is not registered.
        """
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None:
            raise DeliveryError(
                f"no endpoint registered for peer {message.dst}")
        if self._partitioned(message.src, message.dst):
            raise DeliveryError(
                f"peer {message.dst} unreachable from {message.src}: "
                f"network partition")
        self._account(message)
        elapsed = self.latency.delay(self.rng, message.src, message.dst,
                                     message.size_bytes())
        reply = endpoint.on_message(message)
        if reply is not None:
            self._account(reply)
            elapsed += self.latency.delay(self.rng, reply.src, reply.dst,
                                          reply.size_bytes())
        return reply, elapsed

    def deliver_hop(self, src: int, dst: int, size: int) -> float:
        """Fast path for one routing hop: account + latency, no objects.

        ``LookupHop`` handlers are no-ops (routing decisions live in the
        ring, not the endpoint), so a full :meth:`request` — Message
        construction, handler dispatch, reply bookkeeping — is pure
        overhead per hop.  This delivers the same observable effects
        (byte/message accounting against the precomputed wire ``size``,
        one latency draw from the same RNG stream, churn/partition
        failure semantics) and returns the one-way delay.
        """
        if dst not in self._endpoints:
            raise DeliveryError(f"no endpoint registered for peer {dst}")
        if self._partitioned(src, dst):
            raise DeliveryError(
                f"peer {dst} unreachable from {src}: network partition")
        self._account_raw("LookupHop", dst, size)
        return self.latency.delay(self.rng, src, dst, size)

    def begin_hop_bulk(self):
        """Live-endpoint view for bulk hop accounting, or ``None``.

        Bulk mode lets a batched routing round accumulate its
        ``LookupHop`` deliveries locally and settle them in one
        :meth:`flush_hop_bulk` call, skipping the per-hop
        :meth:`deliver_hop` overhead.  It is only offered when per-hop
        delivery has no observable effect beyond accounting: constant
        latency (the per-hop delay draw consumes no randomness and its
        value is discarded by batched routing) and no active partition
        (so the only failure mode is an unregistered destination, which
        the caller checks against the returned view).  Totals are
        identical to per-hop delivery in every case, and no routing
        decision depends on whether bulk mode is on: it is an accounting
        fast path only.
        """
        if self._partition_of is not None:
            return None
        if not isinstance(self.latency, ConstantLatency):
            return None
        return self._endpoints.keys()

    def flush_hop_bulk(self, counts: Dict[int, list]) -> None:
        """Settle hops accumulated under :meth:`begin_hop_bulk`.

        ``counts`` maps destination id to ``[messages, bytes]``.  The
        effect equals calling :meth:`deliver_hop` once per message.
        """
        counters = self._kind_counters("LookupHop")
        bytes_in = self.bytes_in
        msgs_in = self.msgs_in
        total_msgs = 0
        total_bytes = 0
        # Direct indexing: every destination came from the live-endpoint
        # view, and register() seeds both load dicts for live peers.
        for dst, (msgs, size) in counts.items():
            total_msgs += msgs
            total_bytes += size
            bytes_in[dst] += size
            msgs_in[dst] += msgs
        msgs_total, bytes_total = self._total_counters
        msgs_total.value += float(total_msgs)
        bytes_total.value += total_bytes
        counters[0].value += float(total_msgs)
        counters[1].value += total_bytes

    def send_local(self, message: Message) -> Optional[Message]:
        """Loopback delivery: no bytes accounted, no latency.

        Used when a peer addresses itself (the DHT frequently resolves a key
        to the requesting peer); real systems short-circuit this in memory.
        """
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None:
            raise DeliveryError(
                f"no endpoint registered for peer {message.dst}")
        return endpoint.on_message(message)

    # ------------------------------------------------------------------
    # Asynchronous (event-loop) delivery
    # ------------------------------------------------------------------

    def send_async(self, message: Message,
                   on_reply: Optional[Callable[[Message], None]] = None,
                   on_drop: Optional[Callable[[Message], None]] = None,
                   on_delivered: Optional[
                       Callable[[Message, Optional[Message]], None]] = None,
                   on_overflow: Optional[
                       Callable[[Message], None]] = None) -> None:
        """Schedule delivery of ``message`` through the event queue.

        If the destination handler returns a reply and ``on_reply`` is
        given, the reply is scheduled back to the caller after its own
        latency.  If the destination vanished by delivery time (churn),
        ``on_drop`` is invoked instead of raising.  ``on_delivered`` is
        invoked right after the destination handler ran, with the reply
        it returned (not yet delivered back) — the hook one-way
        protocols use to learn their message arrived.

        With the service model active (:meth:`configure_service_model`)
        the handler runs only after the message waited in the
        destination's bounded queue and was serviced; a full queue
        instead invokes ``on_overflow`` after one return network delay
        (the drop signal travels back like an ack would — never
        instantly).

        The reply leg is symmetric: if the *requester* unregisters while
        the reply is in flight, the reply is dropped (``on_drop`` with
        the original request) instead of resurrecting the departed peer.
        """
        self._account(message)
        delay = self.latency.delay(self.rng, message.src, message.dst,
                                   message.size_bytes())

        def deliver_reply(reply: Message) -> None:
            if (reply.dst not in self._endpoints
                    or self._partitioned(reply.src, reply.dst)):
                if on_drop is not None:
                    on_drop(message)
                return
            on_reply(reply)

        def process() -> None:
            # Re-fetched: the endpoint may have departed while the
            # message waited in its service queue.
            endpoint = self._endpoints.get(message.dst)
            if endpoint is None:
                if on_drop is not None:
                    on_drop(message)
                return
            reply = endpoint.on_message(message)
            if reply is not None and on_reply is not None:
                self._account(reply)
                reply_delay = self.latency.delay(
                    self.rng, reply.src, reply.dst, reply.size_bytes())
                self.simulator.schedule(reply_delay,
                                        lambda: deliver_reply(reply))
            if on_delivered is not None:
                on_delivered(message, reply)

        def overflow() -> None:
            if on_overflow is None:
                return
            nack_delay = self.latency.delay(self.rng, message.dst,
                                            message.src, 0)
            self.simulator.schedule(nack_delay,
                                    lambda: on_overflow(message))

        def deliver() -> None:
            if (message.dst not in self._endpoints
                    or self._partitioned(message.src, message.dst)):
                if on_drop is not None:
                    on_drop(message)
                return
            queue = self._service_queue_for(message.dst)
            if queue is None:
                process()
            else:
                queue.offer(process, overflow)

        self.simulator.schedule(delay, deliver)

    def request_async(self, message: Message,
                      timeout: Optional[float] = None) -> Future:
        """Send ``message`` and return a future for its outcome.

        The future resolves with a :class:`RequestOutcome`:

        * on reply arrival (``status="ok"``, ``reply`` set);
        * on delivery, when the handler returned no reply — one-way
          traffic (``status="ok"``, ``reply=None``);
        * when the destination unregistered before delivery
          (``status="dropped"``) — churn surfaced to the caller instead
          of a :class:`DeliveryError`;
        * when the destination's bounded service queue was full
          (``status="overflow"``) — congestion; the caller may
          retransmit;
        * after ``timeout`` virtual seconds without any of the above
          (``status="timeout"``); a reply arriving later is discarded.

        Per-destination in-flight counts (:meth:`inflight`) cover the
        send-to-resolution window.
        """
        future = Future()
        request_id = next(self._request_ids)
        sent_at = self.simulator.now
        dst = message.dst
        self._inflight[dst] = self._inflight.get(dst, 0) + 1
        timeout_event = [None]

        def finish(status: str, reply: Optional[Message]) -> None:
            if future.done:
                return          # late reply after timeout/drop
            remaining = self._inflight.get(dst, 0) - 1
            if remaining > 0:
                self._inflight[dst] = remaining
            else:
                self._inflight.pop(dst, None)
            if timeout_event[0] is not None:
                timeout_event[0].cancel()
            future.resolve(RequestOutcome(
                request_id=request_id, status=status, request=message,
                reply=reply, rtt=self.simulator.now - sent_at))

        self.send_async(
            message,
            on_reply=lambda reply: finish("ok", reply),
            on_drop=lambda _message: finish("dropped", None),
            on_delivered=lambda _message, reply:
                finish("ok", None) if reply is None else None,
            on_overflow=lambda _message: finish("overflow", None))
        if timeout is not None and timeout > 0:
            timeout_event[0] = self.simulator.schedule(
                timeout, lambda: finish("timeout", None))
        return future
