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
    ring.rebuild_tables()
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

    def test_lookups_correct_after_join(self):
        ring = _ring(20, seed=4)
        churn = ChurnProcess(ring, random.Random(5))
        for _ in range(5):
            churn.join()
        rng = random.Random(6)
        for _ in range(50):
            key = rng.getrandbits(64)
            source = rng.choice(list(ring.member_ids))
            assert ring.lookup(source, key).owner == ring.successor_of(key)


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

    def test_lookup_correct_after_heavy_churn(self):
        ring = _ring(30, seed=13)
        churn = ChurnProcess(ring, random.Random(14))
        churn.run_session(joins=15, leaves=15)
        rng = random.Random(15)
        for _ in range(50):
            key = rng.getrandbits(64)
            source = rng.choice(list(ring.member_ids))
            assert ring.lookup(source, key).owner == ring.successor_of(key)


class TestLazyMaintenanceEquivalence:
    """Churn-local lazy table maintenance must be indistinguishable from
    the eager full rebuild: identical fingers, successors and routes.

    The reference is a twin ring that calls ``rebuild_tables()`` after
    every churn step; its node objects are read directly, so they show
    exactly what the eager rebuild installed.
    """

    @staticmethod
    def _assert_tables_equal(lazy, eager):
        assert lazy.member_ids == eager.member_ids
        for node_id in eager.member_ids:
            lazy_node = lazy.node(node_id)     # forces the lazy refresh
            eager_node = eager._nodes[node_id]
            assert lazy_node.fingers == eager_node.fingers, node_id
            assert lazy_node.successors == eager_node.successors, node_id

    def test_tables_and_routes_match_eager_rebuild_under_churn(self):
        lazy = DHTRing(HopSpaceFingers())
        eager = DHTRing(HopSpaceFingers())
        for node_id in uniform_ids(random.Random(7), 24):
            lazy.add_node(node_id)
            eager.add_node(node_id)
        eager.rebuild_tables()
        self._assert_tables_equal(lazy, eager)

        # Interleave joins and leaves; both rings see the same sequence.
        churn_lazy = ChurnProcess(lazy, random.Random(99))
        churn_eager = ChurnProcess(eager, random.Random(99))
        ops = random.Random(5)
        for _ in range(30):
            if ops.random() < 0.5 or lazy.size <= 2:
                node_id = churn_lazy.join()
                churn_eager.join(node_id)
            else:
                node_id = churn_lazy.leave()
                churn_eager.leave(node_id)
            eager.rebuild_tables()
            self._assert_tables_equal(lazy, eager)
            # Same greedy routes, hop for hop.
            probe = random.Random(lazy.size)
            sources = [probe.choice(lazy.member_ids) for _ in range(3)]
            for source in sources:
                key_id = probe.getrandbits(64)
                lazy_result = lazy.lookup(source, key_id)
                eager_result = eager.lookup(source, key_id)
                assert lazy_result.owner == eager_result.owner
                assert lazy_result.path == eager_result.path

    def test_lazy_refresh_is_churn_local(self):
        # After one join, only touched nodes pay the refresh cost.
        ring = DHTRing(HopSpaceFingers())
        for node_id in uniform_ids(random.Random(3), 32):
            ring.add_node(node_id)
        ring.rebuild_tables()
        epoch = ring.membership_epoch
        churn = ChurnProcess(ring, random.Random(11))
        churn.join()
        assert ring.membership_epoch == epoch + 1
        # A node the ring never materialized counts as stale: it has no
        # tables at all yet.
        stale = [node_id for node_id in ring.member_ids
                 if node_id not in ring._nodes
                 or ring._nodes[node_id].table_epoch
                 != ring.membership_epoch]
        # maintain() did no global rebuild: (almost) everyone is stale.
        assert len(stale) >= ring.size - 1
        source = ring.member_ids[0]
        ring.lookup(source, 12345)
        refreshed = [node_id for node_id in ring.member_ids
                     if node_id in ring._nodes
                     and ring._nodes[node_id].table_epoch
                     == ring.membership_epoch]
        # The lookup only refreshed the nodes it actually touched.
        assert 0 < len(refreshed) < ring.size
