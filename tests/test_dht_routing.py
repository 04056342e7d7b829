"""Tests for finger construction, DHT nodes and ring lookups."""

import random

import pytest

from repro.dht.churn import ChurnProcess
from repro.dht.idspace import ID_SPACE, random_id
from repro.dht.node import DHTNode
from repro.dht.ring import HOP_BATCH_BASE_BYTES, HOP_KEY_BYTES, DHTRing
from repro.dht.routing import (
    HopSpaceFingers,
    NaiveFingers,
    skewed_ids,
    uniform_ids,
)
from repro.sim.events import Simulator


def _build_ring(ids, strategy):
    ring = DHTRing(strategy)
    for node_id in ids:
        ring.add_node(node_id)
    return ring


class TestIdGenerators:
    def test_uniform_count_and_distinct(self):
        ids = uniform_ids(random.Random(0), 100)
        assert len(ids) == 100
        assert len(set(ids)) == 100
        assert ids == sorted(ids)

    def test_uniform_invalid_count(self):
        with pytest.raises(ValueError):
            uniform_ids(random.Random(0), 0)

    def test_skewed_cluster_present(self):
        ids = skewed_ids(random.Random(1), 200, cluster_fraction=0.9,
                         cluster_width=0.001)
        assert len(ids) == 200
        # Most ids must fall within a narrow arc: find the largest number
        # of ids inside any window of 0.2% of the ring.
        window = int(ID_SPACE * 0.002)
        best = 0
        for anchor in ids:
            inside = sum(1 for other in ids
                         if (other - anchor) % ID_SPACE < window)
            best = max(best, inside)
        assert best >= 150

    def test_skewed_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            skewed_ids(rng, 10, cluster_fraction=1.5)
        with pytest.raises(ValueError):
            skewed_ids(rng, 10, cluster_width=0.0)
        with pytest.raises(ValueError):
            skewed_ids(rng, 0)


class TestFingerConstruction:
    def test_naive_includes_successor(self):
        ids = uniform_ids(random.Random(2), 50)
        fingers = NaiveFingers().build(ids[0], ids)
        assert ids[1] in fingers

    def test_hopspace_table_size_is_log_n(self):
        ids = uniform_ids(random.Random(3), 128)
        fingers = HopSpaceFingers().build(ids[0], ids)
        assert len(fingers) == 7  # log2(128)

    def test_hopspace_exact_rank_offsets(self):
        rng = random.Random(4)
        ids = sorted({rng.getrandbits(64) for _ in range(16)})
        assert len(ids) == 16
        fingers = HopSpaceFingers().build(ids[3], ids)
        expected = [ids[(3 + offset) % 16] for offset in (1, 2, 4, 8)]
        assert fingers == expected

    def test_no_self_loops_or_duplicates(self):
        ids = uniform_ids(random.Random(5), 64)
        for strategy in (NaiveFingers(), HopSpaceFingers()):
            for node_id in ids[:10]:
                fingers = strategy.build(node_id, ids)
                assert node_id not in fingers
                assert len(fingers) == len(set(fingers))

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError):
            NaiveFingers().build(1, [])
        with pytest.raises(ValueError):
            HopSpaceFingers().build(1, [])

    def test_hopspace_requires_membership(self):
        ids = uniform_ids(random.Random(6), 8)
        with pytest.raises(ValueError):
            HopSpaceFingers().build(12345, ids)  # not a member

    def test_singleton_ring(self):
        assert NaiveFingers().build(5, [5]) == []
        assert HopSpaceFingers().build(5, [5]) == []


class TestDHTNode:
    def test_owns_interval(self):
        node = DHTNode(100)
        assert node.owns(100, 50)
        assert node.owns(51, 50)
        assert not node.owns(50, 50)
        assert not node.owns(101, 50)

    def test_owns_singleton(self):
        node = DHTNode(100)
        assert node.owns(7, 100)  # own predecessor -> owns everything

    def test_next_hop_never_overshoots(self):
        rng = random.Random(7)
        ids = uniform_ids(rng, 64)
        strategy = NaiveFingers()
        node = DHTNode(ids[0])
        node.set_fingers(strategy.build(ids[0], ids))
        node.set_successors(ids[1:5])
        for _ in range(100):
            key = random_id(rng)
            hop = node.next_hop(key)
            if hop is None:
                continue
            from repro.dht.idspace import clockwise_distance
            assert clockwise_distance(ids[0], hop) <= \
                clockwise_distance(ids[0], key)

    def test_routing_table_size_dedupes(self):
        node = DHTNode(1)
        node.set_fingers([2, 3, 4])
        node.set_successors([2, 5])
        assert node.routing_table_size() == 4


def _route(ring, source, key):
    """One-key ``lookup_many``: ``(owner, hops)``."""
    result = ring.lookup_many(source, [key])
    assert result.messages == result.per_key_hops[key]
    return result.owners[key], result.per_key_hops[key]


class TestRingLookup:
    """One-key ``lookup_many`` rounds against the scan reference."""

    @pytest.mark.parametrize("strategy", [NaiveFingers(),
                                          HopSpaceFingers()])
    def test_lookup_finds_true_owner(self, strategy, scan_route):
        ids = uniform_ids(random.Random(8), 100)
        ring = _build_ring(ids, strategy)
        rng = random.Random(9)
        for _ in range(200):
            key = random_id(rng)
            source = rng.choice(ids)
            owner, hops = _route(ring, source, key)
            assert owner == ring.successor_of(key)
            path = scan_route(ring, source, key)
            assert (owner, hops) == (path[-1], len(path) - 1)

    def test_hopspace_hops_bounded_by_log_n(self):
        ids = uniform_ids(random.Random(10), 256)
        ring = _build_ring(ids, HopSpaceFingers())
        rng = random.Random(11)
        for _ in range(200):
            _owner, hops = _route(ring, rng.choice(ids), random_id(rng))
            assert hops <= 8  # ceil(log2 256)

    def test_hopspace_hops_bounded_under_skew(self):
        ids = skewed_ids(random.Random(12), 256, cluster_fraction=0.95,
                         cluster_width=1e-9)
        ring = _build_ring(ids, HopSpaceFingers())
        rng = random.Random(13)
        for _ in range(200):
            # Route to other peers' ids: the worst case under skew.
            _owner, hops = _route(ring, rng.choice(ids), rng.choice(ids))
            assert hops <= 8

    def test_lookup_from_owner_is_zero_hops(self):
        ids = uniform_ids(random.Random(14), 20)
        ring = _build_ring(ids, HopSpaceFingers())
        key = 12345
        owner = ring.successor_of(key)
        assert _route(ring, owner, key) == (owner, 0)

    def test_path_starts_at_source_ends_at_owner(self, scan_route):
        ids = uniform_ids(random.Random(15), 50)
        ring = _build_ring(ids, HopSpaceFingers())
        owner, hops = _route(ring, ids[0], 999)
        path = scan_route(ring, ids[0], 999)
        assert path[0] == ids[0]
        assert path[-1] == owner
        assert len(path) == hops + 1

    def test_singleton_ring_owns_everything(self):
        ring = _build_ring([42], HopSpaceFingers())
        assert _route(ring, 42, 7) == (42, 0)

    def test_two_node_ring(self):
        ring = _build_ring([100, 2 ** 60], NaiveFingers())
        assert _route(ring, 100, 101)[0] == 2 ** 60
        assert _route(ring, 2 ** 60, 50)[0] == 100

    def test_unknown_source_rejected(self):
        ring = _build_ring([1, 2, 3], NaiveFingers())
        with pytest.raises(KeyError):
            ring.lookup_many(99, [5])


class TestRingMembership:
    def test_add_remove(self):
        ring = DHTRing()
        ring.add_node(10)
        ring.add_node(20)
        assert ring.size == 2
        ring.remove_node(10)
        assert ring.size == 1
        assert not ring.contains(10)

    def test_duplicate_add_rejected(self):
        ring = DHTRing()
        ring.add_node(1)
        with pytest.raises(ValueError):
            ring.add_node(1)

    def test_remove_missing_rejected(self):
        ring = DHTRing()
        with pytest.raises(KeyError):
            ring.remove_node(1)

    def test_successor_predecessor_oracle(self):
        ring = DHTRing()
        for node_id in (10, 20, 30):
            ring.add_node(node_id)
        assert ring.successor_of(15) == 20
        assert ring.successor_of(20) == 20
        assert ring.successor_of(31) == 10  # wraps
        assert ring.predecessor_of(10) == 30
        assert ring.predecessor_of(20) == 10

    def test_tables_auto_rebuild_on_lookup(self):
        ring = DHTRing(HopSpaceFingers())
        for node_id in uniform_ids(random.Random(16), 30):
            ring.add_node(node_id)
        # No table build step: routing reads the membership alone.
        source = ring.member_ids[0]
        assert _route(ring, source, 777)[0] == ring.successor_of(777)

    def test_mean_routing_table_size_logarithmic(self):
        ids = uniform_ids(random.Random(17), 256)
        ring = _build_ring(ids, HopSpaceFingers())
        # log2(256) = 8 fingers plus up to 4 successors, minus overlap.
        assert 8 <= ring.mean_routing_table_size() <= 13


class TestHopByteModel:
    """The flat hop-delivery byte constants mirror real Message sizes.

    The frontier walk skips Message construction and charges
    ``HOP_BATCH_BASE_BYTES + HOP_KEY_BYTES * len(batch)`` directly —
    these pins guarantee the shortcut charges exactly what the
    equivalent ``LookupHop`` Message would weigh, byte for byte.
    """

    def test_single_hop_message_bytes(self):
        from repro.dht.ring import HOP_BATCH_BASE_BYTES, HOP_KEY_BYTES
        from repro.net.message import Message
        # A one-key hop is a one-element key_ids list: 73 bytes.
        message = Message(src=1, dst=2, kind="LookupHop",
                          payload={"key_ids": [2 ** 63]})
        assert message.size_bytes() == \
            HOP_BATCH_BASE_BYTES + HOP_KEY_BYTES == 73

    @pytest.mark.parametrize("batch_size", [0, 1, 3, 17, 256])
    def test_batch_hop_message_bytes(self, batch_size):
        from repro.dht.ring import HOP_BATCH_BASE_BYTES, HOP_KEY_BYTES
        from repro.net.message import Message
        key_ids = list(range(batch_size))
        message = Message(src=1, dst=2, kind="LookupHop",
                          payload={"key_ids": key_ids})
        assert message.size_bytes() == \
            HOP_BATCH_BASE_BYTES + HOP_KEY_BYTES * batch_size

    def test_key_bytes_is_one_id(self):
        from repro.dht.ring import HOP_KEY_BYTES
        from repro.net.message import encoded_size
        assert HOP_KEY_BYTES == encoded_size(2 ** 63)


_STRATEGIES = {"naive": NaiveFingers(), "hop-space": HopSpaceFingers()}


def _placement(name, seed, count):
    rng = random.Random(seed)
    if name == "uniform":
        return uniform_ids(rng, count)
    if name == "powers":
        # Members at exact power-of-two distances: naive finger targets
        # land on members, not between them.
        return sorted({(1 << (i % 64)) + i // 64 for i in range(count)})
    return skewed_ids(rng, count, cluster_fraction=0.9, cluster_width=1e-9)


def _probe_keys(members, rng):
    """Keys at every member (the node itself included), at member +- 1,
    and a few random ones."""
    keys = set()
    for member in members:
        keys.update((member, (member - 1) % ID_SPACE,
                     (member + 1) % ID_SPACE))
    keys.update(random_id(rng) for _ in range(16))
    return sorted(keys)


def _assert_closed_form_matches_scan(ring, ranks, rng):
    """``ring.node`` is the scan's view: the strategy's fingers plus the
    successor list."""
    members = list(ring.member_ids)
    keys = _probe_keys(members, rng)
    for rank in ranks:
        node = ring.node(members[rank])
        for key in keys:
            assert ring.strategy.next_hop(members, rank, key) == \
                node.next_hop(key), (len(members), rank, key)


class TestClosedFormNextHop:
    """strategy.next_hop must choose exactly what the greedy scan over
    the strategy's fingers plus the successor list chooses."""

    @pytest.mark.parametrize("placement", ["uniform", "skewed", "powers"])
    @pytest.mark.parametrize("name", sorted(_STRATEGIES))
    def test_matches_reference_scan(self, name, placement):
        rng = random.Random(18)
        for n in (1, 2, 3, 4, 5, 6, 17, 64, 200):
            ring = _build_ring(_placement(placement, n, n), _STRATEGIES[name])
            # Every node of the small rings; a sample of the large ones.
            ranks = (range(n) if n <= 64
                     else rng.sample(range(n), 24))
            _assert_closed_form_matches_scan(ring, ranks, rng)

    @pytest.mark.parametrize("name", sorted(_STRATEGIES))
    def test_matches_reference_under_churn(self, name, scan_route):
        # 28 -> 34 -> 28 crosses n = 32, where the hop-space offset set
        # changes; then a seeded mix of joins and leaves.
        ring = _build_ring(uniform_ids(random.Random(7), 28),
                           _STRATEGIES[name])
        churn = ChurnProcess(ring, random.Random(99))
        ops = random.Random(5)
        steps = ["join"] * 6 + ["leave"] * 6 + [
            "join" if ops.random() < 0.5 else "leave" for _ in range(18)]
        rng = random.Random(19)
        for step in steps:
            getattr(churn, step)()
            _assert_closed_form_matches_scan(ring, range(ring.size), rng)
            # The ring's routes are the scan's routes: same owner, same
            # number of hops, for keys at and next to members too.
            source = rng.choice(ring.member_ids)
            keys = rng.sample(_probe_keys(ring.member_ids, rng), 16)
            batch = ring.lookup_many(source, keys)
            for key in keys:
                path = scan_route(ring, source, key)
                assert (batch.owners[key], batch.per_key_hops[key]) == \
                    (path[-1], len(path) - 1)


class TestBatchedLookupMatchesSingular:
    """A many-key round resolves every key exactly as its own route."""

    @pytest.mark.parametrize("strategy", [NaiveFingers(),
                                          HopSpaceFingers()])
    def test_owners_and_hops_match(self, strategy, scan_route):
        ids = uniform_ids(random.Random(23), 100)
        ring = _build_ring(ids, strategy)
        rng = random.Random(24)
        keys = [random_id(rng) for _ in range(50)]
        source = rng.choice(ids)
        batch = ring.lookup_many(source, keys)
        for key in keys:
            path = scan_route(ring, source, key)
            assert batch.owners[key] == path[-1]
            assert batch.per_key_hops[key] == len(path) - 1

    def test_batch_messages_never_exceed_singular(self):
        ids = uniform_ids(random.Random(25), 100)
        ring = _build_ring(ids, HopSpaceFingers())
        rng = random.Random(26)
        keys = [random_id(rng) for _ in range(50)]
        source = rng.choice(ids)
        batch = ring.lookup_many(source, keys)
        singular_messages = sum(ring.lookup_many(source, [key]).messages
                                for key in keys)
        assert batch.messages <= singular_messages


class TestAsyncWalkMatchesSync:
    """Both walks drive one round step: over a fixed membership they
    route every key alike and send the same hop messages."""

    @pytest.mark.parametrize("with_transport", [False, True],
                             ids=["free", "accounted"])
    def test_same_owners_hops_and_messages(self, transport_ring,
                                           with_transport):
        ids = uniform_ids(random.Random(27), 60)
        if with_transport:
            simulator, _transport, ring = transport_ring(ids)
        else:
            simulator, ring = Simulator(), _build_ring(ids, HopSpaceFingers())
        rng = random.Random(28)
        keys = [random_id(rng) for _ in range(40)]
        source = ring.member_ids[7]
        proc = simulator.spawn(ring.lookup_many_async(source, keys))
        simulator.run()
        walked = proc.result
        routed = ring.lookup_many(source, keys)
        assert walked.owners == routed.owners
        assert walked.per_key_hops == routed.per_key_hops
        assert walked.messages == routed.messages == \
            len(walked.message_batches) > 0
        assert walked.rejected == {}
        # Accounted iff the ring has a transport.
        assert walked.message_bytes == [
            HOP_BATCH_BASE_BYTES + HOP_KEY_BYTES * len(batch)
            if with_transport else 0
            for batch in walked.message_batches]
        sent = simulator.metrics.counter_value("net.msgs.sent.LookupHop")
        assert sent == (2 * routed.messages if with_transport else 0)

    def test_unknown_source_rejected(self):
        ring = _build_ring([10, 20, 30], HopSpaceFingers())
        with pytest.raises(KeyError):
            next(ring.lookup_many_async(99, [5]))
