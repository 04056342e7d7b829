"""Tests for latency models and the transport."""

import random

import pytest

from repro.net.latency import ConstantLatency, LogNormalLatency, UniformLatency
from repro.net.message import Message
from repro.net.transport import DeliveryError, SimTransport
from repro.sim.events import Simulator


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.2)
        assert model.delay(random.Random(0), 1, 2, 100) == 0.2

    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.1)

    def test_uniform_bounds(self):
        model = UniformLatency(0.01, 0.05)
        rng = random.Random(1)
        for _ in range(200):
            delay = model.delay(rng, 1, 2, 10)
            assert 0.01 <= delay <= 0.05

    def test_uniform_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)

    def test_lognormal_positive(self):
        model = LogNormalLatency()
        rng = random.Random(2)
        assert all(model.delay(rng, 1, 2, 100) > 0 for _ in range(100))

    def test_lognormal_serialization_term(self):
        model = LogNormalLatency(median_seconds=0.01, sigma=0.0,
                                 bytes_per_second=1000.0)
        rng = random.Random(3)
        small = model.delay(rng, 1, 2, 0)
        large = model.delay(rng, 1, 2, 10_000)
        assert large == pytest.approx(small + 10.0)

    def test_lognormal_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median_seconds=0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(sigma=-1)
        with pytest.raises(ValueError):
            LogNormalLatency(bytes_per_second=0)


class _Echo:
    """Replies to every message with an Echo of the payload."""

    def __init__(self):
        self.received = []

    def on_message(self, message):
        self.received.append(message)
        if message.kind == "OneWay":
            return None
        return message.reply("Echo", dict(message.payload))


class _Sink:
    """Accepts anything, replies to nothing (a quiet requester)."""

    def on_message(self, message):
        return None


def _make_transport(register_requester=False):
    simulator = Simulator()
    transport = SimTransport(simulator, ConstantLatency(0.1),
                             random.Random(0))
    if register_requester:
        # Async replies are only delivered to live endpoints, so tests
        # expecting a reply back at peer 1 must register it.
        transport.register(1, _Sink())
    return simulator, transport


class TestTransportSync:
    def test_request_reply(self):
        _sim, transport = _make_transport()
        echo = _Echo()
        transport.register(2, echo)
        reply, rtt = transport.request(
            Message(src=1, dst=2, kind="Ping", payload={"x": 1}))
        assert reply is not None
        assert reply.payload == {"x": 1}
        assert rtt == pytest.approx(0.2)  # two constant 0.1s legs

    def test_one_way_rtt_single_leg(self):
        _sim, transport = _make_transport()
        transport.register(2, _Echo())
        reply, rtt = transport.request(
            Message(src=1, dst=2, kind="OneWay", payload={}))
        assert reply is None
        assert rtt == pytest.approx(0.1)

    def test_unknown_destination_raises(self):
        _sim, transport = _make_transport()
        with pytest.raises(DeliveryError):
            transport.request(Message(src=1, dst=99, kind="Ping"))

    def test_bytes_accounted_both_directions(self):
        simulator, transport = _make_transport()
        transport.register(2, _Echo())
        message = Message(src=1, dst=2, kind="Ping", payload={"x": 1})
        request_size = message.size_bytes()
        transport.request(message)
        total = simulator.metrics.counter_value("net.bytes.sent")
        assert total > request_size  # reply accounted too
        assert simulator.metrics.counter_value(
            "net.bytes.sent.Ping") == request_size
        assert simulator.metrics.counter_value("net.bytes.sent.Echo") > 0
        assert simulator.metrics.counter_value("net.msgs.sent") == 2

    def test_per_peer_inbound_counters(self):
        _sim, transport = _make_transport()
        transport.register(2, _Echo())
        transport.request(Message(src=1, dst=2, kind="Ping", payload={}))
        assert transport.msgs_in[2] == 1
        assert transport.bytes_in[2] > 0
        # The reply was addressed to 1.
        assert transport.msgs_in.get(1) == 1

    def test_reset_load_counters(self):
        _sim, transport = _make_transport()
        transport.register(2, _Echo())
        transport.request(Message(src=1, dst=2, kind="Ping", payload={}))
        transport.reset_load_counters()
        assert transport.msgs_in[2] == 0
        assert transport.bytes_in[2] == 0

    def test_reset_load_counters_prunes_departed_peers(self):
        # Regression: counters for long-departed peers used to survive
        # every reset, growing the dicts forever under churn.
        _sim, transport = _make_transport()
        transport.register(2, _Echo())
        transport.register(3, _Echo())
        transport.request(Message(src=1, dst=2, kind="Ping", payload={}))
        transport.request(Message(src=1, dst=3, kind="Ping", payload={}))
        transport.unregister(3)
        transport.reset_load_counters()
        assert 3 not in transport.msgs_in
        assert 3 not in transport.bytes_in
        assert transport.msgs_in[2] == 0

    def test_send_local_no_bytes(self):
        simulator, transport = _make_transport()
        transport.register(2, _Echo())
        reply = transport.send_local(
            Message(src=2, dst=2, kind="Ping", payload={}))
        assert reply is not None
        assert simulator.metrics.counter_value("net.bytes.sent") == 0

    def test_unregister(self):
        _sim, transport = _make_transport()
        transport.register(2, _Echo())
        transport.unregister(2)
        assert not transport.is_registered(2)
        with pytest.raises(DeliveryError):
            transport.request(Message(src=1, dst=2, kind="Ping"))


class TestTransportAsync:
    def test_async_delivery_after_latency(self):
        simulator, transport = _make_transport(register_requester=True)
        echo = _Echo()
        transport.register(2, echo)
        replies = []
        transport.send_async(
            Message(src=1, dst=2, kind="Ping", payload={}),
            on_reply=replies.append)
        assert echo.received == []  # not yet delivered
        simulator.run()
        assert len(echo.received) == 1
        assert len(replies) == 1
        assert simulator.now == pytest.approx(0.2)

    def test_async_drop_on_departed_peer(self):
        simulator, transport = _make_transport()
        transport.register(2, _Echo())
        drops = []
        transport.send_async(
            Message(src=1, dst=2, kind="Ping", payload={}),
            on_drop=drops.append)
        transport.unregister(2)  # peer leaves before delivery
        simulator.run()
        assert len(drops) == 1

    def test_async_without_reply_callback(self):
        simulator, transport = _make_transport()
        transport.register(2, _Echo())
        transport.send_async(Message(src=1, dst=2, kind="Ping",
                                     payload={}))
        simulator.run()  # must not raise
        assert simulator.metrics.counter_value("net.msgs.sent") == 1

    def test_reply_scheduling_order_follows_latency(self):
        # Two sends at t=0 with per-destination latencies: the reply of
        # the nearer destination arrives first even though it was sent
        # second.
        import random as random_module

        class _PerDestLatency:
            def delay(self, rng, src, dst, size):
                return 0.3 if dst == 2 else 0.1

        simulator = Simulator()
        transport = SimTransport(simulator, _PerDestLatency(),
                                 random_module.Random(0))
        transport.register(1, _Sink())
        transport.register(2, _Echo())
        transport.register(3, _Echo())
        arrivals = []
        transport.send_async(
            Message(src=1, dst=2, kind="Ping", payload={"n": 2}),
            on_reply=lambda reply: arrivals.append((reply.src,
                                                    simulator.now)))
        transport.send_async(
            Message(src=1, dst=3, kind="Ping", payload={"n": 3}),
            on_reply=lambda reply: arrivals.append((reply.src,
                                                    simulator.now)))
        simulator.run()
        # dst=3 request leg 0.1 + reply leg (dst=1) 0.1; dst=2 request
        # leg 0.3 + reply leg 0.1.
        assert arrivals == [(3, pytest.approx(0.2)),
                            (2, pytest.approx(0.4))]

    def test_async_drop_between_send_and_delivery(self):
        # The destination is alive at send time and unregisters while
        # the message is in flight: on_drop, never an exception, and no
        # reply bytes are accounted.
        simulator, transport = _make_transport()
        transport.register(2, _Echo())
        drops = []
        replies = []
        transport.send_async(
            Message(src=1, dst=2, kind="Ping", payload={}),
            on_reply=replies.append, on_drop=drops.append)
        simulator.schedule(0.05, lambda: transport.unregister(2))
        simulator.run()
        assert len(drops) == 1
        assert replies == []
        assert simulator.metrics.counter_value("net.msgs.sent") == 1
        assert simulator.metrics.counter_value(
            "net.bytes.sent.Echo", 0.0) == 0.0

    def test_on_delivered_hook(self):
        simulator, transport = _make_transport()
        transport.register(2, _Echo())
        delivered = []
        transport.send_async(
            Message(src=1, dst=2, kind="OneWay", payload={}),
            on_delivered=lambda message, reply: delivered.append(
                (message.kind, reply)))
        simulator.run()
        assert delivered == [("OneWay", None)]

    def test_byte_accounting_parity_with_request(self):
        # Identical messages through request() and send_async() must
        # account identical bytes (request + reply legs).
        sim_sync, sync = _make_transport()
        sync.register(2, _Echo())
        sync.request(Message(src=1, dst=2, kind="Ping",
                             payload={"x": 1, "y": "abc"}))
        sim_async, asynchronous = _make_transport()
        asynchronous.register(2, _Echo())
        asynchronous.send_async(
            Message(src=1, dst=2, kind="Ping",
                    payload={"x": 1, "y": "abc"}),
            on_reply=lambda reply: None)
        sim_async.run()
        for counter in ("net.bytes.sent", "net.bytes.sent.Ping",
                        "net.bytes.sent.Echo", "net.msgs.sent"):
            assert sim_async.metrics.counter_value(counter) == \
                sim_sync.metrics.counter_value(counter)


class TestRequestAsync:
    def test_reply_outcome(self):
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="Ping", payload={"x": 1}))
        assert transport.inflight(2) == 1
        simulator.run()
        assert future.done
        outcome = future.value
        assert outcome.ok
        assert outcome.reply.payload == {"x": 1}
        assert outcome.rtt == pytest.approx(0.2)
        assert transport.inflight(2) == 0
        assert transport.total_inflight() == 0

    def test_one_way_resolves_on_delivery(self):
        simulator, transport = _make_transport()
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="OneWay", payload={}))
        simulator.run()
        assert future.value.ok
        assert future.value.reply is None
        assert future.value.rtt == pytest.approx(0.1)

    def test_drop_surfaced_not_raised(self):
        simulator, transport = _make_transport()
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="Ping", payload={}))
        transport.unregister(2)
        simulator.run()
        assert future.value.status == "dropped"
        assert future.value.reply is None
        assert transport.total_inflight() == 0

    def test_timeout(self):
        simulator, transport = _make_transport()
        # No endpoint for 9 is ever registered *and* nothing drops it:
        # register, send, then swap in a handler that never replies via
        # a slow destination.  Simplest deterministic case: destination
        # alive, but timeout shorter than the one-way latency.
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="Ping", payload={}),
            timeout=0.05)
        simulator.run()
        assert future.value.status == "timeout"
        assert transport.total_inflight() == 0

    def test_late_reply_after_timeout_is_discarded(self):
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="Ping", payload={}),
            timeout=0.15)    # after delivery (0.1), before reply (0.2)
        simulator.run()
        assert future.value.status == "timeout"
        # The reply still travelled (bytes accounted) but the outcome
        # is stable.
        assert simulator.metrics.counter_value("net.bytes.sent.Echo") > 0

    def test_reply_to_departed_requester_is_dropped(self):
        # The requester unregisters while the reply is in flight: the
        # outcome is a drop, not a reply delivered to a dead peer.
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="Ping", payload={}))
        # Request delivered at 0.1; reply lands at 0.2.  Depart at 0.15.
        simulator.schedule(0.15, lambda: transport.unregister(1))
        simulator.run()
        assert future.value.status == "dropped"
        assert transport.total_inflight() == 0

    def test_request_ids_are_unique(self):
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        first = transport.request_async(
            Message(src=1, dst=2, kind="Ping", payload={}))
        second = transport.request_async(
            Message(src=1, dst=2, kind="Ping", payload={}))
        assert transport.inflight(2) == 2
        simulator.run()
        assert first.value.request_id != second.value.request_id


class TestServiceModel:
    """The bounded per-endpoint service queue (congestion model)."""

    def _make(self, rate=10.0, capacity=2, reject_cost=0.0):
        simulator, transport = _make_transport(register_requester=True)
        transport.configure_service_model(rate, capacity, reject_cost)
        transport.register(2, _Echo())
        return simulator, transport

    def _ping(self, transport, payload=None):
        return transport.request_async(
            Message(src=1, dst=2, kind="Ping", payload=payload or {}))

    def test_service_adds_queueing_delay(self):
        simulator, transport = self._make(rate=10.0, capacity=8)
        first = self._ping(transport)
        second = self._ping(transport)
        simulator.run()
        # link 0.1 + service 0.1 + reply 0.1 = 0.3; the second request
        # additionally waits for the first one's full service slot.
        assert first.value.rtt == pytest.approx(0.3)
        assert second.value.rtt == pytest.approx(0.4)

    def test_overflow_surfaced_with_return_delay(self):
        simulator, transport = self._make(rate=1.0, capacity=1)
        futures = [self._ping(transport) for _ in range(3)]
        simulator.run_until(0.25)
        # All three arrive at 0.1: one enters service, one queues, the
        # third overflows — and its notification pays the return link
        # latency (resolved at 0.2, never instantly at 0.1).
        statuses = [future.value.status for future in futures
                    if future.done]
        assert statuses == ["overflow"]
        assert futures[2].value.rtt == pytest.approx(0.2)
        assert transport.queue_drops_total() == 1

    def test_inactive_by_default(self):
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        assert not transport.service_model_active
        future = self._ping(transport)
        simulator.run()
        # No service delay: plain 0.2 round trip.
        assert future.value.rtt == pytest.approx(0.2)

    def test_departure_while_queued_is_a_drop(self):
        simulator, transport = self._make(rate=1.0, capacity=4)
        first = self._ping(transport)
        second = self._ping(transport)
        # Both queued at 0.1; the endpoint departs at 0.5 — before the
        # second one's service (1.1) completes.
        simulator.schedule(0.5, lambda: transport.unregister(2))
        simulator.run()
        assert first.value.status == "dropped"
        assert second.value.status == "dropped"

    def test_service_stats_aggregate(self):
        simulator, transport = self._make(rate=1.0, capacity=1)
        for _ in range(3):
            self._ping(transport)
        simulator.run()
        stats = transport.service_stats()
        assert stats["arrived"] == 3
        assert stats["dropped"] == 1
        assert stats["completed"] == 2
        assert stats["queued"] == 0
        assert transport.service_queue_length(2) == 0

    def test_reject_cost_consumes_capacity(self):
        # Two servers, same offered pattern; the one paying reject cost
        # finishes its useful work later.
        def completion_time(reject_cost):
            simulator, transport = self._make(rate=10.0, capacity=1,
                                              reject_cost=reject_cost)
            futures = [self._ping(transport) for _ in range(4)]
            simulator.run()
            return max(future.value.rtt for future in futures
                       if future.value.status == "ok")
        assert completion_time(0.5) > completion_time(0.0)

    def test_invalid_configuration_rejected(self):
        _simulator, transport = _make_transport()
        with pytest.raises(ValueError):
            transport.configure_service_model(-1.0, 4)
        with pytest.raises(ValueError):
            transport.configure_service_model(5.0, 0)
        with pytest.raises(ValueError):
            transport.configure_service_model(5.0, 4, reject_cost=-0.1)


class TestInflightAccounting:
    """Per-destination in-flight counts must return to zero on *every*
    request_async resolution path — a leak here would starve the
    congestion controller's window bookkeeping forever.

    (Audit note: the ``finish()`` guard on ``future.done`` makes each
    path decrement exactly once; these tests pin that invariant.)
    """

    def test_counts_while_in_flight(self):
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        transport.request_async(Message(src=1, dst=2, kind="Ping"))
        transport.request_async(Message(src=1, dst=2, kind="Ping"))
        assert transport.inflight(2) == 2
        assert transport.total_inflight() == 2
        simulator.run()
        assert transport.inflight(2) == 0
        assert transport.total_inflight() == 0

    def test_zero_after_timeout_and_late_reply(self):
        # Timeout fires at 0.05, the reply lands at 0.2: the late reply
        # must not decrement a second time (no negative/garbage counts).
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="Ping"), timeout=0.05)
        simulator.run_until(0.1)
        assert future.value.status == "timeout"
        assert transport.total_inflight() == 0
        simulator.run()
        assert future.value.status == "timeout"
        assert transport.total_inflight() == 0

    def test_zero_after_churn_drop(self):
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="Ping"))
        transport.unregister(2)  # departs before delivery at 0.1
        simulator.run()
        assert future.value.status == "dropped"
        assert transport.total_inflight() == 0

    def test_zero_after_service_queue_overflow(self):
        simulator, transport = _make_transport(register_requester=True)
        transport.configure_service_model(1.0, 1)
        transport.register(2, _Echo())
        futures = [transport.request_async(
            Message(src=1, dst=2, kind="Ping")) for _ in range(3)]
        simulator.run()
        statuses = sorted(future.value.status for future in futures)
        assert "overflow" in statuses
        assert transport.inflight(2) == 0
        assert transport.total_inflight() == 0

    def test_zero_after_reply_leg_drop(self):
        # The requester departs while its request is in flight; the
        # reply cannot be delivered, yet the count still drains.
        simulator, transport = _make_transport(register_requester=True)
        transport.register(2, _Echo())
        future = transport.request_async(
            Message(src=1, dst=2, kind="Ping"))
        simulator.schedule(0.15, lambda: transport.unregister(1))
        simulator.run()
        assert future.done
        assert future.value.status == "dropped"
        assert transport.total_inflight() == 0

    def test_zero_after_departed_while_queued(self):
        simulator, transport = _make_transport(register_requester=True)
        transport.configure_service_model(1.0, 4)
        transport.register(2, _Echo())
        futures = [transport.request_async(
            Message(src=1, dst=2, kind="Ping")) for _ in range(2)]
        simulator.schedule(0.5, lambda: transport.unregister(2))
        simulator.run()
        assert all(future.value.status == "dropped"
                   for future in futures)
        assert transport.total_inflight() == 0
