"""Real-network transport backend: asyncio datagrams over UDP.

A :class:`UdpTransport` implements the :class:`~repro.net.transport.
TransportBackend` protocol over real localhost/LAN sockets, so the same
``AsyncQueryRuntime`` query engine that drives the simulator
drives OS processes instead (see :mod:`repro.cluster`).  Semantics
mirror :class:`~repro.net.transport.SimTransport`:

* **request-id correlation** — every outbound request carries its
  message id; replies carry it back in ``reply_to`` and resolve the
  pending entry.  One-way messages are confirmed with a wire-level
  ``__ack__`` control datagram (the real-network analogue of the
  simulator's ``on_delivered`` hook), so ``request_async`` resolves
  ``("ok", None)`` for them exactly as on the simulator.
* **failures surface, never raise** — :meth:`request_async` resolves
  ``"dropped"`` for unroutable or unknown peers (the receiving host
  nacks with ``__err__``) and ``"timeout"`` after the per-request
  timeout; only the synchronous :meth:`request` raises
  :class:`DeliveryError`, as the simulator does.
* **byte accounting** — protocol messages are accounted into the same
  ``net.msgs.sent`` / ``net.bytes.sent[.kind]`` counters with their
  *modelled* sizes (the codec is size-exact, see
  :mod:`repro.net.wire`), so ``AlvisNetwork.bytes_sent_total`` works
  unchanged.  This transport accounts every protocol message it sends
  plus every reply it receives — the same totals the simulator's single
  global transport records for the queries issued here.  Wire-internal
  control traffic (acks, nacks, the cluster handshake) is tallied
  separately in ``wire_bytes_sent``/``wire_bytes_received``.

All transport state is owned by a dedicated asyncio event-loop thread;
public methods may be called from any *other* thread (the synchronous
``request``/``send_local`` bridge posts the work to the loop and blocks
on a threading event).  Malformed datagrams — truncated, unknown kind,
oversized — are counted and dropped, degrading into clean timeout/drop
outcomes for the requester rather than crashing the peer.

Deliberate divergences from the simulator, all of which real networks
force: ``request_async`` without an explicit timeout uses
``default_timeout`` instead of waiting forever (a lost datagram would
otherwise leak its pending entry), ``send_async`` maps its internal
timeout onto ``on_drop``, and the bounded-service-queue congestion
model does not exist (real sockets drop instead of nacking overflow).
"""

from __future__ import annotations

import asyncio
import collections
import threading
import time
import traceback
from typing import Any, Callable, Deque, Dict, Mapping, Optional, Tuple

from repro.net import wire
from repro.net.message import Message
from repro.net.transport import DeliveryError, Endpoint, RequestOutcome
from repro.sim.metrics import MetricsRegistry
from repro.sim.procs import Future

__all__ = ["UdpTransport"]

#: Callback handling one control datagram: ``(payload, addr)`` in, an
#: optional ``(kind, payload)`` reply out (sent back to ``addr``).
ControlHandler = Callable[[Dict[str, Any], Tuple[str, int]],
                          Optional[Tuple[str, Mapping[str, Any]]]]


class _Pending:
    """One correlated outbound request awaiting its resolution."""

    __slots__ = ("message", "on_reply", "on_drop", "on_delivered",
                 "on_timeout", "timer")

    def __init__(self, message, on_reply, on_drop, on_delivered,
                 on_timeout):
        self.message = message
        self.on_reply = on_reply
        self.on_drop = on_drop
        self.on_delivered = on_delivered
        self.on_timeout = on_timeout
        self.timer = None


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, owner: "UdpTransport"):
        self._owner = owner

    def datagram_received(self, data: bytes,
                          addr: Tuple[str, int]) -> None:
        self._owner._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        self._owner.socket_errors += 1


class UdpTransport:
    """A :class:`TransportBackend` over asyncio UDP sockets."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 default_timeout: float = 5.0,
                 bind_host: str = "127.0.0.1", bind_port: int = 0):
        if default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be > 0, got {default_timeout}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.default_timeout = default_timeout
        self._bind_host = bind_host
        self._bind_port = bind_port
        self._endpoints: Dict[int, Endpoint] = {}
        #: peer id -> (host, port) of the process hosting it.
        self._routes: Dict[int, Tuple[str, int]] = {}
        self.bytes_in: Dict[int, int] = {}
        self.msgs_in: Dict[int, int] = {}
        self._inflight: Dict[int, int] = {}
        self._pending: Dict[int, _Pending] = {}
        self._control_handlers: Dict[str, ControlHandler] = {}
        #: Invoked on the loop thread after datagram-driven progress;
        #: the realtime kernel hooks this to wake its event loop.
        self.on_activity: Optional[Callable[[], None]] = None
        # Raw socket-level counters (include control traffic).
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.decode_errors = 0
        self.encode_errors = 0
        self.handler_errors = 0
        #: Formatted tracebacks of the 16 latest ``handler_errors``.
        self.handler_tracebacks: Deque[str] = collections.deque(maxlen=16)
        self.socket_errors = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread_id: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._udp = None
        self._local_address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "UdpTransport":
        """Bind the socket and start the event-loop thread (idempotent)."""
        if self._loop is not None:
            return self
        ready = threading.Event()
        failure: list = []
        self._thread = threading.Thread(
            target=self._serve, args=(ready, failure),
            name="udp-transport", daemon=True)
        self._thread.start()
        if not ready.wait(10.0) or self._udp is None:
            raise RuntimeError(
                f"UDP transport failed to start: {failure or 'timeout'}")
        return self

    def _serve(self, ready: threading.Event, failure: list) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._loop_thread_id = threading.get_ident()

        async def _open() -> None:
            transport, _protocol = await loop.create_datagram_endpoint(
                lambda: _UdpProtocol(self),
                local_addr=(self._bind_host, self._bind_port))
            self._udp = transport
            self._local_address = transport.get_extra_info("sockname")[:2]

        try:
            loop.run_until_complete(_open())
        except OSError as error:
            failure.append(error)
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            if self._udp is not None:
                self._udp.close()
            loop.close()

    def close(self) -> None:
        """Stop the loop thread and release the socket."""
        loop = self._loop
        if loop is None:
            return

        def stopper() -> None:
            for entry in self._pending.values():
                if entry.timer is not None:
                    entry.timer.cancel()
            self._pending.clear()
            loop.stop()

        try:
            loop.call_soon_threadsafe(stopper)
        except RuntimeError:
            pass                     # loop already closed
        if self._thread is not None:
            self._thread.join(5.0)
        self._loop = None
        self._thread = None

    @property
    def local_address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` of this transport's socket."""
        if self._local_address is None:
            raise RuntimeError("transport not started")
        return self._local_address

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The transport's event loop (for the realtime kernel)."""
        if self._loop is None:
            raise RuntimeError("transport not started")
        return self._loop

    def call_in_loop(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread (immediately if already there)."""
        if threading.get_ident() == self._loop_thread_id:
            fn()
        else:
            self.loop.call_soon_threadsafe(fn)

    def _run_sync(self, fn: Callable[[], Any],
                  timeout: float = 30.0) -> Any:
        """Run ``fn`` on the loop thread and block for its result."""
        if threading.get_ident() == self._loop_thread_id:
            return fn()
        done = threading.Event()
        box: list = []

        def work() -> None:
            try:
                box.append((True, fn()))
            except BaseException as error:  # noqa: BLE001 - re-raised below
                box.append((False, error))
            done.set()

        self.loop.call_soon_threadsafe(work)
        if not done.wait(timeout):
            raise DeliveryError("transport loop unresponsive")
        ok, value = box[0]
        if not ok:
            raise value
        return value

    # ------------------------------------------------------------------
    # Membership and routing
    # ------------------------------------------------------------------

    def register(self, peer_id: int, endpoint: Endpoint) -> None:
        """Attach a locally-hosted endpoint under ``peer_id``."""
        self._endpoints[peer_id] = endpoint
        self.bytes_in.setdefault(peer_id, 0)
        self.msgs_in.setdefault(peer_id, 0)

    def unregister(self, peer_id: int) -> None:
        self._endpoints.pop(peer_id, None)

    def is_registered(self, peer_id: int) -> bool:
        return peer_id in self._endpoints

    def endpoints(self) -> Tuple[int, ...]:
        return tuple(self._endpoints.keys())

    def add_route(self, peer_id: int, addr: Tuple[str, int]) -> None:
        """Map a remotely-hosted peer id to its process's address."""
        self._routes[peer_id] = (addr[0], int(addr[1]))

    def routes(self) -> Dict[int, Tuple[str, int]]:
        return dict(self._routes)

    # ------------------------------------------------------------------
    # Accounting (same counter names as the simulated transport)
    # ------------------------------------------------------------------

    def _account(self, message: Message) -> None:
        size = message.size_bytes()
        self.metrics.counter("net.msgs.sent").increment()
        self.metrics.counter(f"net.msgs.sent.{message.kind}").increment()
        self.metrics.counter("net.bytes.sent").increment(size)
        self.metrics.counter(f"net.bytes.sent.{message.kind}").increment(size)
        self.bytes_in[message.dst] = self.bytes_in.get(message.dst, 0) + size
        self.msgs_in[message.dst] = self.msgs_in.get(message.dst, 0) + 1

    def reset_load_counters(self) -> None:
        self.bytes_in = {peer_id: 0 for peer_id in self._endpoints}
        self.msgs_in = {peer_id: 0 for peer_id in self._endpoints}

    def inflight(self, peer_id: int) -> int:
        return self._inflight.get(peer_id, 0)

    def total_inflight(self) -> int:
        return sum(self._inflight.values())

    # Congestion/service-queue API parity (no queueing model on UDP:
    # the real network drops instead of nacking overflow).
    @property
    def service_model_active(self) -> bool:
        return False

    def service_queue_length(self, peer_id: int) -> int:
        return 0

    def queue_drops_total(self) -> int:
        return 0

    def service_stats(self) -> Dict[str, int]:
        return {"arrived": 0, "completed": 0, "dropped": 0, "queued": 0}

    # ------------------------------------------------------------------
    # Control-plane hooks (cluster bootstrap handshake)
    # ------------------------------------------------------------------

    def on_control(self, kind: str, handler: ControlHandler) -> None:
        """Install a handler for one wire-control kind (``__hello__``…)."""
        self._control_handlers[kind] = handler

    def send_control(self, kind: str, payload: Mapping[str, Any],
                     addr: Tuple[str, int]) -> None:
        """Fire-and-forget one control datagram to ``addr``."""
        message = Message(src=0, dst=0, kind=kind, payload=dict(payload))
        self.call_in_loop(lambda: self._send_datagram(message, addr))

    # ------------------------------------------------------------------
    # Datagram plumbing (loop thread only)
    # ------------------------------------------------------------------

    def _send_datagram(self, message: Message,
                       addr: Tuple[str, int]) -> None:
        try:
            data = wire.encode(message)
        except wire.WireError:
            self.encode_errors += 1
            return
        self._udp.sendto(data, addr)
        self.wire_bytes_sent += len(data)
        self.datagrams_sent += 1

    def _notify_activity(self) -> None:
        if self.on_activity is not None:
            self.on_activity()

    def _on_datagram(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.datagrams_received += 1
        self.wire_bytes_received += len(data)
        try:
            message = wire.decode(data)
        except wire.WireError:
            # Truncated / unknown-kind / oversized datagrams are counted
            # and dropped; the requester's timeout turns this into a
            # clean RequestOutcome instead of a crash.
            self.decode_errors += 1
            return
        if message.reply_to is not None:
            self._resolve_reply(message)
            return
        handler = self._control_handlers.get(message.kind)
        if handler is not None:
            result = handler(dict(message.payload), addr)
            if result is not None:
                kind, payload = result
                self._send_datagram(
                    Message(src=0, dst=0, kind=kind, payload=dict(payload)),
                    addr)
            return
        self._serve_request(message, addr)

    def _resolve_reply(self, message: Message) -> None:
        entry = self._pending.pop(message.reply_to, None)
        if entry is None:
            return                  # late reply after timeout, or stray
        if entry.timer is not None:
            entry.timer.cancel()
        if message.kind == wire.ACK:
            if entry.on_delivered is not None:
                entry.on_delivered(entry.message, None)
        elif message.kind == wire.ERR:
            if entry.on_drop is not None:
                entry.on_drop(entry.message)
        else:
            self._account(message)  # the reply leg, as the simulator does
            if entry.on_reply is not None:
                entry.on_reply(message)
            elif entry.on_delivered is not None:
                entry.on_delivered(entry.message, message)
        self._notify_activity()

    def _handler_failed(self) -> None:
        """Count the endpoint handler error being handled, keeping its
        traceback."""
        self.handler_errors += 1
        self.handler_tracebacks.append(traceback.format_exc())

    def _serve_request(self, message: Message,
                       addr: Tuple[str, int]) -> None:
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None:
            # Unknown or departed peer: nack so the requester resolves
            # "dropped" immediately instead of waiting out its timeout.
            self._send_datagram(
                Message(src=message.dst, dst=message.src, kind=wire.ERR,
                        payload={"error": "unknown-peer"},
                        reply_to=message.message_id), addr)
            return
        self._account(message)      # host side: inbound request traffic
        try:
            reply = endpoint.on_message(message)
        except Exception:
            self._handler_failed()
            self._send_datagram(
                Message(src=message.dst, dst=message.src, kind=wire.ERR,
                        payload={"error": "handler-error"},
                        reply_to=message.message_id), addr)
            return
        if reply is None:
            self._send_datagram(
                Message(src=message.dst, dst=message.src, kind=wire.ACK,
                        payload={}, reply_to=message.message_id), addr)
        else:
            self._account(reply)    # host side: the reply it sends
            self._send_datagram(reply, addr)
        self._notify_activity()

    # ------------------------------------------------------------------
    # Asynchronous delivery (TransportBackend surface)
    # ------------------------------------------------------------------

    def _send_async_in_loop(self, message: Message, on_reply, on_drop,
                            on_delivered, on_timeout,
                            timeout: float) -> None:
        dst = message.dst
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            # Locally-hosted destination: deliver in process, but still
            # account both legs (the simulator charges all non-loopback
            # traffic; cross-backend byte parity depends on this).
            self._account(message)
            try:
                reply = endpoint.on_message(message)
            except Exception:
                self._handler_failed()
                self._loop.call_soon(lambda: self._safe(on_drop, message))
                return
            if reply is not None:
                self._account(reply)

            def deliver() -> None:
                if reply is not None and on_reply is not None:
                    on_reply(reply)
                if on_delivered is not None:
                    on_delivered(message, reply)
                self._notify_activity()

            self._loop.call_soon(deliver)
            return
        addr = self._routes.get(dst)
        if addr is None:
            self._loop.call_soon(lambda: self._safe(on_drop, message))
            return
        self._account(message)
        entry = _Pending(message, on_reply, on_drop, on_delivered,
                         on_timeout)
        self._pending[message.message_id] = entry
        entry.timer = self._loop.call_later(
            timeout, lambda: self._expire(message.message_id))
        self._send_datagram(message, addr)

    @staticmethod
    def _safe(callback, *args) -> None:
        if callback is not None:
            callback(*args)

    def _expire(self, message_id: int) -> None:
        entry = self._pending.pop(message_id, None)
        if entry is None:
            return
        if entry.on_timeout is not None:
            entry.on_timeout(entry.message)
        self._notify_activity()

    def send_async(self, message: Message,
                   on_reply: Optional[Callable[[Message], None]] = None,
                   on_drop: Optional[Callable[[Message], None]] = None,
                   on_delivered: Optional[
                       Callable[[Message, Optional[Message]], None]] = None,
                   on_overflow: Optional[
                       Callable[[Message], None]] = None) -> None:
        """Correlated async delivery; lost datagrams surface as
        ``on_drop`` after ``default_timeout`` (real sockets cannot wait
        forever).  ``on_overflow`` never fires: UDP has no bounded
        service queue to nack from."""
        del on_overflow
        self.call_in_loop(lambda: self._send_async_in_loop(
            message, on_reply, on_drop, on_delivered, on_timeout=on_drop,
            timeout=self.default_timeout))

    def request_async(self, message: Message,
                      timeout: Optional[float] = None) -> Future:
        """Send ``message`` and return a future for its outcome.

        Mirrors the simulated transport: resolves ``"ok"`` on a reply
        (or wire-level ack for one-way traffic), ``"dropped"`` for
        unroutable/unknown peers, ``"timeout"`` after ``timeout``
        (``default_timeout`` when omitted — a lost datagram must not
        pend forever) — and never raises.  The future resolves on the
        transport's loop thread.
        """
        future = Future()
        deadline = (timeout if timeout is not None and timeout > 0
                    else self.default_timeout)

        def work() -> None:
            dst = message.dst
            self._inflight[dst] = self._inflight.get(dst, 0) + 1
            sent_at = time.monotonic()

            def finish(status: str, reply: Optional[Message]) -> None:
                if future.done:
                    return
                remaining = self._inflight.get(dst, 0) - 1
                if remaining > 0:
                    self._inflight[dst] = remaining
                else:
                    self._inflight.pop(dst, None)
                future.resolve(RequestOutcome(
                    request_id=message.message_id, status=status,
                    request=message, reply=reply,
                    rtt=time.monotonic() - sent_at))

            self._send_async_in_loop(
                message,
                on_reply=lambda reply: finish("ok", reply),
                on_drop=lambda _message: finish("dropped", None),
                on_delivered=lambda _message, reply:
                    finish("ok", None) if reply is None else None,
                on_timeout=lambda _message: finish("timeout", None),
                timeout=deadline)

        self.call_in_loop(work)
        return future

    # ------------------------------------------------------------------
    # Synchronous compatibility path
    # ------------------------------------------------------------------

    def request(self, message: Message) -> Tuple[Optional[Message], float]:
        """Deliver ``message`` and block for ``(reply, rtt)``.

        Raises :class:`DeliveryError` for unroutable destinations, churn
        nacks and timeouts — the failure surface of
        :meth:`~repro.net.transport.SimTransport.request`, which the
        indexing and maintenance flows call.  Must not be called from
        the transport's loop thread.
        """
        if threading.get_ident() == self._loop_thread_id:
            raise RuntimeError(
                "synchronous request from the transport loop thread "
                "would deadlock; use request_async")
        dst = message.dst
        if dst not in self._endpoints and dst not in self._routes:
            raise DeliveryError(f"no endpoint or route for peer {dst}")
        future = self.request_async(message, timeout=self.default_timeout)
        done = threading.Event()
        box: list = []

        def attach() -> None:
            # Future is single-threaded state; both this registration and
            # the eventual resolve() run on the loop thread (call_soon_
            # threadsafe is FIFO from one caller), so there is no race.
            future.add_done_callback(
                lambda resolved: (box.append(resolved.value), done.set()))

        self.call_in_loop(attach)
        if not done.wait(self.default_timeout + 5.0):
            raise DeliveryError(
                f"request to peer {dst} hung past its timeout")
        outcome: RequestOutcome = box[0]
        if outcome.status != "ok":
            raise DeliveryError(
                f"request to peer {dst} failed: {outcome.status}")
        return outcome.reply, outcome.rtt

    def send_local(self, message: Message) -> Optional[Message]:
        """Loopback delivery for a locally-hosted peer (no accounting)."""
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None:
            raise DeliveryError(
                f"no endpoint registered for peer {message.dst}")
        # Endpoint state is owned by the loop thread; hop over to it.
        return self._run_sync(lambda: endpoint.on_message(message))

    def __repr__(self) -> str:
        addr = self._local_address or ("unbound", 0)
        return (f"UdpTransport({addr[0]}:{addr[1]}, "
                f"endpoints={len(self._endpoints)}, "
                f"routes={len(self._routes)})")
