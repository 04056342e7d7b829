"""Tests for the asyncio/UDP transport backend.

Two transports on localhost play requester and host.  The tests pin the
SimTransport-mirroring semantics the engine depends on: sync ``request``
raises ``DeliveryError`` on failure, ``request_async`` surfaces churn /
unknown peers / timeouts as ``RequestOutcome`` statuses without ever
raising, in-flight counts return to zero, and malformed datagrams
(truncated, unknown kind, garbage) degrade into clean outcomes instead
of crashing either side.
"""

import socket
import threading
import time

import pytest

from repro.baselines.single_term import single_term_query
from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.ir.postings import Posting, PostingList
from repro.net import protocol
from repro.net.message import Message
from repro.net.transport import DeliveryError
from repro.net.udp import UdpTransport

REQUEST_TIMEOUT = 2.0


class _ProbeHost:
    """Endpoint answering probes; swallows feedback (one-way)."""

    def __init__(self):
        self.received = []

    def on_message(self, message):
        self.received.append(message)
        if message.kind == protocol.PROBE_KEY:
            postings = PostingList([Posting(3, 1.5)], global_df=4)
            return message.reply(protocol.PROBE_REPLY,
                                 {"found": True, "postings": postings})
        if message.kind == protocol.HARVEST_KEY:
            raise RuntimeError("handler exploded")
        return None


@pytest.fixture()
def pair():
    requester = UdpTransport(default_timeout=REQUEST_TIMEOUT).start()
    host = UdpTransport(default_timeout=REQUEST_TIMEOUT).start()
    endpoint = _ProbeHost()
    host.register(42, endpoint)
    requester.add_route(42, host.local_address)
    yield requester, host, endpoint
    requester.close()
    host.close()


def _probe(dst=42):
    return Message(src=1, dst=dst, kind=protocol.PROBE_KEY,
                   payload={"key_terms": ["peer"]})


def _outcome(transport, future, timeout=5.0):
    """Safely await a future resolved on the transport's loop thread."""
    done = threading.Event()
    box = []
    transport.call_in_loop(lambda: future.add_done_callback(
        lambda resolved: (box.append(resolved.value), done.set())))
    assert done.wait(timeout), "outcome never resolved"
    return box[0]


class TestRequestReply:
    def test_sync_request_round_trip(self, pair):
        requester, _host, endpoint = pair
        reply, rtt = requester.request(_probe())
        assert reply.kind == protocol.PROBE_REPLY
        assert reply.payload["found"] is True
        assert reply.payload["postings"].entries[0].doc_id == 3
        assert rtt > 0
        assert endpoint.received[0].kind == protocol.PROBE_KEY

    def test_async_reply_outcome(self, pair):
        requester, _host, _endpoint = pair
        outcome = _outcome(requester, requester.request_async(_probe()))
        assert outcome.status == "ok"
        assert outcome.reply.payload["found"] is True

    def test_one_way_acked_as_ok_none(self, pair):
        # Wire-level ack plays the simulator's on_delivered role: a
        # handler that returns None still resolves ("ok", None).
        requester, _host, endpoint = pair
        message = Message(src=1, dst=42, kind=protocol.FEEDBACK,
                          payload={"key_terms": ["peer"],
                                   "redundant": True})
        outcome = _outcome(requester, requester.request_async(message))
        assert (outcome.status, outcome.reply) == ("ok", None)
        assert endpoint.received[-1].kind == protocol.FEEDBACK

    def test_request_id_correlation(self, pair):
        requester, _host, _endpoint = pair
        futures = [requester.request_async(_probe()) for _ in range(8)]
        outcomes = [_outcome(requester, future) for future in futures]
        assert {outcome.status for outcome in outcomes} == {"ok"}
        # Every reply matched its own request, not another in flight.
        for outcome in outcomes:
            assert outcome.reply.reply_to == outcome.request.message_id
            assert outcome.request_id == outcome.request.message_id

    def test_local_endpoint_served_in_process(self, pair):
        requester, _host, _endpoint = pair
        local = _ProbeHost()
        requester.register(7, local)
        reply, _rtt = requester.request(_probe(dst=7))
        assert reply.payload["found"] is True
        assert local.received


class TestFailureSurfacing:
    def test_unknown_peer_at_host_is_dropped(self, pair):
        requester, host, _endpoint = pair
        requester.add_route(77, host.local_address)
        outcome = _outcome(requester,
                           requester.request_async(_probe(dst=77)))
        assert outcome.status == "dropped"
        assert outcome.reply is None

    def test_unroutable_destination_is_dropped(self, pair):
        requester, _host, _endpoint = pair
        outcome = _outcome(requester,
                           requester.request_async(_probe(dst=999)))
        assert outcome.status == "dropped"

    def test_departed_peer_sync_raises_delivery_error(self, pair):
        requester, host, _endpoint = pair
        host.unregister(42)
        with pytest.raises(DeliveryError):
            requester.request(_probe())

    def test_unroutable_sync_raises_delivery_error(self, pair):
        requester, _host, _endpoint = pair
        with pytest.raises(DeliveryError):
            requester.request(_probe(dst=999))

    def test_timeout_on_silent_destination(self, pair):
        requester, _host, _endpoint = pair
        silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        silent.bind(("127.0.0.1", 0))
        try:
            requester.add_route(500, silent.getsockname())
            outcome = _outcome(requester, requester.request_async(
                _probe(dst=500), timeout=0.2))
            assert outcome.status == "timeout"
        finally:
            silent.close()

    def test_handler_exception_nacked_not_fatal(self, pair):
        requester, host, endpoint = pair
        message = Message(src=1, dst=42, kind=protocol.HARVEST_KEY,
                          payload={"key_terms": ["peer"], "k": 5})
        outcome = _outcome(requester, requester.request_async(message))
        assert outcome.status == "dropped"
        # The host counted the error and kept its traceback.
        assert host.handler_errors == 1
        assert len(host.handler_tracebacks) == 1
        assert "RuntimeError: handler exploded" in host.handler_tracebacks[0]
        # The host survives and keeps serving.
        reply, _rtt = requester.request(_probe())
        assert reply.payload["found"] is True

    def test_local_handler_exception_is_a_drop(self, pair):
        requester, _host, _endpoint = pair
        requester.register(7, _ProbeHost())
        message = Message(src=1, dst=7, kind=protocol.HARVEST_KEY,
                          payload={"key_terms": ["peer"], "k": 5})
        outcome = _outcome(requester, requester.request_async(message))
        assert outcome.status == "dropped"
        assert requester.handler_errors == 1
        assert "RuntimeError: handler exploded" in \
            requester.handler_tracebacks[-1]
        assert "on_message" in requester.handler_tracebacks[-1]

    def test_handler_tracebacks_are_bounded(self, pair):
        requester, host, _endpoint = pair
        message = Message(src=1, dst=42, kind=protocol.HARVEST_KEY,
                          payload={"key_terms": ["peer"], "k": 5})
        kept = host.handler_tracebacks.maxlen
        for _ in range(kept + 2):
            _outcome(requester, requester.request_async(message))
        assert host.handler_errors == kept + 2
        assert len(host.handler_tracebacks) == kept

    def test_request_async_never_raises(self, pair):
        requester, host, _endpoint = pair
        host.unregister(42)
        future = requester.request_async(_probe())
        assert _outcome(requester, future).status == "dropped"


class TestInflightAccounting:
    def test_zero_after_replies(self, pair):
        requester, _host, _endpoint = pair
        futures = [requester.request_async(_probe()) for _ in range(5)]
        for future in futures:
            _outcome(requester, future)
        assert requester.inflight(42) == 0
        assert requester.total_inflight() == 0

    def test_zero_after_timeout_and_drop(self, pair):
        requester, _host, _endpoint = pair
        silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        silent.bind(("127.0.0.1", 0))
        try:
            requester.add_route(500, silent.getsockname())
            timeout_future = requester.request_async(_probe(dst=500),
                                                     timeout=0.2)
            drop_future = requester.request_async(_probe(dst=999))
            assert _outcome(requester, timeout_future).status == "timeout"
            assert _outcome(requester, drop_future).status == "dropped"
            assert requester.total_inflight() == 0
        finally:
            silent.close()


class TestMalformedDatagrams:
    def _flush(self, requester):
        """The host still answers a well-formed probe."""
        reply, _rtt = requester.request(_probe())
        assert reply.payload["found"] is True

    def test_garbage_datagram_counted_and_ignored(self, pair):
        requester, host, _endpoint = pair
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            raw.sendto(b"not a datagram of ours", host.local_address)
            deadline = time.monotonic() + 2.0
            while host.decode_errors == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert host.decode_errors == 1
            self._flush(requester)
        finally:
            raw.close()

    def test_truncated_datagram_times_out_cleanly(self, pair):
        # A datagram cut mid-flight decodes to nothing at the host; the
        # requester sees a clean timeout outcome, not an exception.
        requester, host, _endpoint = pair
        from repro.net import wire
        data = wire.encode(_probe())
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            raw.sendto(data[:len(data) - 4], host.local_address)
            deadline = time.monotonic() + 2.0
            while host.decode_errors == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert host.decode_errors == 1
            self._flush(requester)
        finally:
            raw.close()

    def test_unknown_kind_datagram_ignored(self, pair):
        requester, host, _endpoint = pair
        import struct
        from repro.net import wire
        data = bytearray(wire.encode(_probe()))
        struct.pack_into(">H", data, 3, 0xFEFE)  # unknown kind tag
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            raw.sendto(bytes(data), host.local_address)
            deadline = time.monotonic() + 2.0
            while host.decode_errors == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert host.decode_errors == 1
            self._flush(requester)
        finally:
            raw.close()

    def test_oversized_payload_is_clean_outcome(self, pair):
        # An unencodable (oversized) request never leaves the process:
        # it degrades into the transport's failure surface, not a crash.
        requester, _host, _endpoint = pair
        message = Message(
            src=1, dst=42, kind=protocol.REFINE_QUERY,
            payload={"terms": [],
                     "doc_ids": list(range(10_000))})
        outcome = _outcome(requester,
                           requester.request_async(message, timeout=0.3))
        assert outcome.status in ("timeout", "dropped")
        assert requester.encode_errors == 1
        assert requester.total_inflight() == 0


class TestAccounting:
    def test_modelled_bytes_accounted_on_both_sides(self, pair):
        requester, host, _endpoint = pair
        requester.request(_probe())
        probe_bytes = _probe().size_bytes()
        # Requester accounts its request + the reply it received; the
        # host accounts the inbound request + the reply it sent — the
        # same two legs the simulator's single transport records once.
        assert requester.metrics.counter_value(
            f"net.bytes.sent.{protocol.PROBE_KEY}") == probe_bytes
        assert requester.metrics.counter_value("net.msgs.sent") == 2
        assert host.metrics.counter_value("net.msgs.sent") == 2
        assert host.metrics.counter_value(
            f"net.bytes.sent.{protocol.PROBE_KEY}") == probe_bytes

    def test_wire_counters_track_datagrams(self, pair):
        requester, host, _endpoint = pair
        requester.request(_probe())
        assert requester.datagrams_sent == 1
        assert requester.datagrams_received == 1
        assert host.datagrams_received == 1
        assert requester.wire_bytes_sent == \
            host.wire_bytes_received

    def test_reset_load_counters(self, pair):
        requester, host, _endpoint = pair
        requester.request(_probe())
        assert host.bytes_in[42] > 0
        host.reset_load_counters()
        assert host.bytes_in == {42: 0}


class TestRingLookupOverUdp:
    def test_lookup_many_matches_sim_transport(self):
        # The sync routing walk over a transport without a hop fast
        # path: one LookupHop request per hop, accounted like the
        # simulator's bulk hop delivery.
        keys = [(index * 0x9E3779B97F4A7C15) % 2 ** 64
                for index in range(1, 25)]
        sim = AlvisNetwork(num_peers=12, seed=3)
        twin = AlvisNetwork(num_peers=12, seed=3)
        udp = UdpTransport(metrics=twin.simulator.metrics,
                           default_timeout=REQUEST_TIMEOUT).start()
        try:
            twin.attach_transport(udp)
            for peer_id in twin.peer_ids():
                udp.register(peer_id, twin.peer(peer_id))
            origin = sim.peer_ids()[0]
            expected = sim.lookup_owners(origin, keys)
            assert twin.lookup_owners(origin, keys) == expected
        finally:
            udp.close()
        assert expected[1] > 0
        for name in ("net.msgs.sent.LookupHop", "net.bytes.sent.LookupHop"):
            assert twin.simulator.metrics.counter_value(name) == \
                sim.simulator.metrics.counter_value(name)
        for received in ("msgs_in", "bytes_in"):
            assert _nonzero(getattr(udp, received)) == \
                _nonzero(getattr(sim.transport, received))


class TestSingleTermBaselineOverUdp:
    def test_three_modes_match_sim_transport(self):
        # The E2 baseline's owner-side kinds (ProbeKey, DfGet,
        # TermScores, BloomGet, BloomMatch) as real datagrams: the twin
        # queries from the peers its own transport hosts, every other
        # peer is served by a second transport, and the twin still
        # returns the simulator's results and pays its bytes, kind by
        # kind.  40 documents keep every reply far below one datagram.
        def build():
            corpus = SyntheticCorpus(SyntheticCorpusConfig(
                num_documents=40, vocabulary_size=400, seed=8))
            network = AlvisNetwork(num_peers=6, seed=9,
                                   config=AlvisConfig(truncation_k=40))
            network.distribute_documents(corpus.documents())
            network.build_index(mode="single")
            return network

        def run(network, origins):
            network.simulator.metrics.reset()
            counts = {entry.key.terms[0]: len(entry.postings)
                      for peer in network.peers()
                      for entry in peer.fragment}
            frequent = sorted(counts, key=lambda t: (-counts[t], t))[:4]
            queries = [frequent[:2], frequent[1:4], [frequent[0]]]
            results = [single_term_query(network, origin, terms,
                                         mode=mode).results
                       for mode in ("fetch_all", "pipelined", "bloom")
                       for origin in origins for terms in queries]
            return results, network.bytes_by_kind()

        sim = build()
        twin = build()
        origins = twin.peer_ids()[:2]
        udp = UdpTransport(metrics=twin.simulator.metrics,
                           default_timeout=REQUEST_TIMEOUT).start()
        remote = UdpTransport(default_timeout=REQUEST_TIMEOUT).start()
        try:
            twin.attach_transport(udp)
            for peer_id in twin.peer_ids():
                if peer_id in origins:
                    udp.register(peer_id, twin.peer(peer_id))
                else:
                    remote.register(peer_id, twin.peer(peer_id))
                    udp.add_route(peer_id, remote.local_address)
            got = run(twin, origins)
        finally:
            udp.close()
            remote.close()
        expected = run(sim, origins)
        assert udp.datagrams_sent > 0
        assert udp.decode_errors == remote.decode_errors == 0
        assert got == expected
        assert any(expected[0])
        for kind in (protocol.TERM_SCORES, protocol.BLOOM_GET,
                     protocol.BLOOM_MATCH, protocol.PROBE_KEY):
            assert expected[1].get(kind, 0) > 0


def _nonzero(counts):
    return {peer: count for peer, count in counts.items() if count}
