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

