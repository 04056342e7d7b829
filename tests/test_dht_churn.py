"""Tests for churn (join/leave with handover callbacks)."""

import random

import pytest

from repro.dht.churn import ChurnProcess
from repro.dht.ring import DHTRing
from repro.dht.routing import HopSpaceFingers, uniform_ids


def _ring(count, seed=0):
    ring = DHTRing(HopSpaceFingers())
    for node_id in uniform_ids(random.Random(seed), count):
        ring.add_node(node_id)
    return ring


class TestJoin:
    def test_join_grows_ring(self):
        ring = _ring(10)
        churn = ChurnProcess(ring, random.Random(1))
        new_id = churn.join()
        assert ring.size == 11
        assert ring.contains(new_id)

    def test_join_specific_id(self):
        ring = _ring(5)
        churn = ChurnProcess(ring, random.Random(1))
        assert churn.join(777) == 777
        assert ring.contains(777)

    def test_join_duplicate_rejected(self):
        ring = _ring(5)
        churn = ChurnProcess(ring, random.Random(1))
        existing = ring.member_ids[0]
        with pytest.raises(ValueError):
            churn.join(existing)

    def test_join_handover_range_is_new_nodes_range(self):
        ring = _ring(10, seed=2)
        handovers = []
        churn = ChurnProcess(ring, random.Random(3),
                             on_handover=lambda *args: handovers.append(args))
        new_id = churn.join()
        assert len(handovers) == 1
        old_owner, new_owner, lo, hi = handovers[0]
        assert new_owner == new_id
        assert hi == new_id
        assert lo == ring.predecessor_of(new_id)
        assert old_owner == ring.successor_of((new_id + 1) % 2 ** 64) \
            or old_owner != new_id

    def test_lookups_correct_after_join(self, scan_route):
        ring = _ring(20, seed=4)
        churn = ChurnProcess(ring, random.Random(5))
        for _ in range(5):
            churn.join()
        rng = random.Random(6)
        for _ in range(50):
            key = rng.getrandbits(64)
            source = rng.choice(list(ring.member_ids))
            result = ring.lookup_many(source, [key])
            assert result.owners[key] == ring.successor_of(key)
            path = scan_route(ring, source, key)
            assert result.per_key_hops[key] == len(path) - 1


class TestLeave:
    def test_leave_shrinks_ring(self):
        ring = _ring(10)
        churn = ChurnProcess(ring, random.Random(1))
        departed = churn.leave()
        assert ring.size == 9
        assert not ring.contains(departed)

    def test_leave_handover_to_successor(self):
        ring = _ring(10, seed=7)
        handovers = []
        churn = ChurnProcess(ring, random.Random(8),
                             on_handover=lambda *args: handovers.append(args))
        departed = churn.leave()
        assert len(handovers) == 1
        old_owner, new_owner, _lo, hi = handovers[0]
        assert old_owner == departed
        assert hi == departed
        assert new_owner == ring.successor_of(departed)

    def test_cannot_empty_ring(self):
        ring = _ring(2)
        churn = ChurnProcess(ring, random.Random(1))
        churn.leave()
        with pytest.raises(ValueError):
            churn.leave()

    def test_leave_missing_rejected(self):
        ring = _ring(5)
        churn = ChurnProcess(ring, random.Random(1))
        with pytest.raises(KeyError):
            churn.leave(123456789)


class TestSession:
    def test_run_session_net_size(self):
        ring = _ring(20, seed=9)
        churn = ChurnProcess(ring, random.Random(10))
        churn.run_session(joins=7, leaves=3)
        assert ring.size == 24
        assert len(churn.history) == 10

    def test_history_records_kinds(self):
        ring = _ring(5, seed=11)
        churn = ChurnProcess(ring, random.Random(12))
        churn.join()
        churn.leave()
        kinds = [event.kind for event in churn.history]
        assert kinds == ["join", "leave"]
        assert churn.history[0].ring_size_after == 6
        assert churn.history[1].ring_size_after == 5

    def test_lookup_correct_after_heavy_churn(self, scan_route):
        ring = _ring(30, seed=13)
        churn = ChurnProcess(ring, random.Random(14))
        churn.run_session(joins=15, leaves=15)
        rng = random.Random(15)
        for _ in range(50):
            key = rng.getrandbits(64)
            source = rng.choice(list(ring.member_ids))
            result = ring.lookup_many(source, [key])
            assert result.owners[key] == ring.successor_of(key)
            path = scan_route(ring, source, key)
            assert result.per_key_hops[key] == len(path) - 1


class TestAsyncWalkUnderChurn:
    """``lookup_many_async`` while the membership changes under hops in
    flight: every key still ends at its owner in the final membership,
    and its hop count is the ``LookupHop`` messages that carried it."""

    #: One-way hop latency of the ``transport_ring`` fixture.
    LATENCY = 0.02

    @staticmethod
    def _setup(transport_ring, scan_route, min_path=3):
        """A 24-node ring over a transport, its first node as the
        source, and a key whose route visits at least ``min_path``
        nodes."""
        simulator, transport, ring = transport_ring(
            uniform_ids(random.Random(21), 24))
        source = ring.member_ids[0]
        rng = random.Random(22)
        while True:
            key = rng.getrandbits(64)
            path = scan_route(ring, source, key)
            if len(path) >= min_path:
                return simulator, transport, ring, source, key, path

    @staticmethod
    def _walk(simulator, ring, source, key):
        proc = simulator.spawn(ring.lookup_many_async(source, [key]))
        simulator.run()
        assert proc.done
        return proc.result

    @pytest.mark.parametrize("unregister", [False, True],
                             ids=["left-after-delivery", "dropped-hop"])
    def test_next_hop_removed_mid_walk(self, transport_ring, scan_route,
                                       unregister):
        simulator, transport, ring, source, key, path = self._setup(
            transport_ring, scan_route)
        hop = path[1]

        def depart():
            ring.remove_node(hop)
            if unregister:
                transport.unregister(hop)

        simulator.schedule(self.LATENCY / 2, depart)
        result = self._walk(simulator, ring, source, key)
        assert result.owners == {key: ring.successor_of(key)}
        # The first hop carried the key; the rest is a fresh route from
        # the source over the new membership.
        rerouted = scan_route(ring, source, key)
        assert result.per_key_hops[key] == 1 + len(rerouted) - 1

    def test_dropped_hop_from_departed_sender_restarts(self, transport_ring,
                                                       scan_route):
        # The second hop is dropped and its sender left meanwhile: the
        # key restarts from the (live) source.
        simulator, transport, ring, source, key, path = self._setup(
            transport_ring, scan_route, min_path=4)

        def depart():
            ring.remove_node(path[2])
            transport.unregister(path[2])
            ring.remove_node(path[1])

        simulator.schedule(self.LATENCY * 1.5, depart)
        result = self._walk(simulator, ring, source, key)
        assert result.owners == {key: ring.successor_of(key)}
        rerouted = scan_route(ring, source, key)
        assert result.per_key_hops[key] == 2 + len(rerouted) - 1

    @pytest.mark.parametrize("at_hop", [1, 2])
    def test_sender_and_source_removed(self, transport_ring, scan_route,
                                       at_hop):
        # at_hop=1: the node the key reached departs before forwarding
        # it; at_hop=2: the second hop is dropped (its destination
        # left) and its sender is gone too.  Either way nothing can
        # route the key any more, so the ownership oracle answers.
        simulator, transport, ring, source, key, path = self._setup(
            transport_ring, scan_route, min_path=at_hop + 2)

        def depart():
            if at_hop == 2:
                ring.remove_node(path[2])
                transport.unregister(path[2])
            ring.remove_node(path[1])
            ring.remove_node(source)

        simulator.schedule(self.LATENCY * (at_hop - 0.5), depart)
        result = self._walk(simulator, ring, source, key)
        assert result.owners == {key: ring.successor_of(key)}
        assert result.per_key_hops[key] == at_hop
