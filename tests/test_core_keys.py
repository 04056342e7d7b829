"""Tests for Key and the query-lattice structure."""

import pickle

import pytest

from repro.core.keys import KEY_TABLE, Key, KeyTable
from repro.dht.hashing import hash_terms


class TestKeyConstruction:
    def test_canonicalizes_order(self):
        assert Key(["b", "a"]).terms == ("a", "b")
        assert Key(["b", "a"]) == Key(["a", "b"])

    def test_deduplicates(self):
        assert Key(["a", "a", "b"]).terms == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Key([])

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            Key(["a", ""])

    def test_immutable(self):
        key = Key(["a"])
        with pytest.raises(AttributeError):
            key.terms = ("b",)

    def test_hashable_and_equal(self):
        assert hash(Key(["a", "b"])) == hash(Key(["b", "a"]))
        assert len({Key(["a", "b"]), Key(["b", "a"])}) == 1

    def test_not_equal_to_other_types(self):
        assert Key(["a"]) != ("a",)

    def test_len_and_iter(self):
        key = Key(["c", "a", "b"])
        assert len(key) == 3
        assert list(key) == ["a", "b", "c"]

    def test_key_id_matches_hash_terms(self):
        key = Key(["x", "y"])
        assert key.key_id == hash_terms(["y", "x"])

    def test_wire_size_grows_with_terms(self):
        assert Key(["a", "b"]).wire_size() > Key(["a"]).wire_size()


class TestKeyInterning:
    def test_equal_keys_are_identical(self):
        assert Key(["b", "a"]) is Key(["a", "b"])
        assert Key(["a", "a", "b"]) is Key(["a", "b"])

    def test_equality_hash_ordering_invariants(self):
        # Interning must preserve value semantics exactly: equal keys
        # hash equal, compare equal, and canonicalize to the same
        # sorted term tuple regardless of input order.
        permutations = [["x", "y", "z"], ["z", "y", "x"], ["y", "x", "z"]]
        keys = [Key(terms) for terms in permutations]
        assert len({id(key) for key in keys}) == 1
        assert len({hash(key) for key in keys}) == 1
        assert len(set(keys)) == 1
        assert all(key.terms == ("x", "y", "z") for key in keys)
        assert all(key.key_id == keys[0].key_id for key in keys)

    def test_dense_kids_are_stable_and_distinct(self):
        key_a = Key(["kid-test-a"])
        key_b = Key(["kid-test-b"])
        assert isinstance(key_a.kid, int)
        assert key_a.kid != key_b.kid
        assert Key(["kid-test-a"]).kid == key_a.kid

    def test_key_id_cached_and_correct(self):
        key = Key(["interned", "ids"])
        first = key.key_id
        assert first == hash_terms(key.terms)
        assert key.key_id == first  # cached path

    def test_wire_size_cached_and_correct(self):
        key = Key(["wire", "size"])
        expected = 4 + sum(2 + len(term.encode("utf-8"))
                           for term in key.terms)
        assert key.wire_size() == expected
        assert key.wire_size() == expected

    def test_pickle_round_trip_reinterns(self):
        key = Key(["pickled", "key"])
        clone = pickle.loads(pickle.dumps(key))
        assert clone is key

    def test_table_clear_keeps_old_keys_usable(self):
        before = Key(["clear", "survivor"])
        old_kid = before.kid
        table = KeyTable()
        canonical = ("clear", "survivor")
        first = table.intern(canonical)
        table.clear()
        second = table.intern(canonical)
        # Fresh instance after clear, but value semantics intact and kid
        # numbering never recycles.
        assert second is not first
        assert second.terms == first.terms
        assert hash(second) == hash(first)
        assert second.kid != first.kid
        # The global table is untouched by the scratch table above.
        assert Key(["clear", "survivor"]) is before
        assert before.kid == old_kid

    def test_global_table_tracks_interned_count(self):
        size = len(KEY_TABLE)
        Key(["brand-new-term-for-count-test"])
        assert len(KEY_TABLE) == size + 1
        Key(["brand-new-term-for-count-test"])
        assert len(KEY_TABLE) == size + 1

    def test_validation_still_raised_through_table(self):
        with pytest.raises(ValueError):
            KeyTable().intern(())
        with pytest.raises(ValueError):
            KeyTable().intern(("a", ""))


class TestKeyIdWireRoundTrip:
    """Interned key-ids survive the UDP wire codec bit-exactly."""

    def test_lookup_hop_key_id_round_trip(self):
        from repro.net import protocol
        from repro.net import wire
        from repro.net.message import Message

        # A one-key hop: a one-element key_ids list.
        key = Key(["wire", "trip"])
        message = Message(src=1, dst=2, kind=protocol.LOOKUP_HOP,
                          payload={"key_ids": [key.key_id]})
        decoded = wire.decode(wire.encode(message))
        assert list(decoded.payload["key_ids"]) == [key.key_id]

    def test_lookup_hop_batched_key_ids_round_trip(self):
        from repro.net import protocol
        from repro.net import wire
        from repro.net.message import Message

        keys = [Key(["alpha"]), Key(["alpha", "beta"]), Key(["gamma"])]
        ids = [key.key_id for key in keys]
        message = Message(src=3, dst=4, kind=protocol.LOOKUP_HOP,
                          payload={"key_ids": ids})
        decoded = wire.decode(wire.encode(message))
        assert list(decoded.payload["key_ids"]) == ids
        # Decoded ids map back onto the same interned keys.
        by_id = {key.key_id: key for key in keys}
        assert [by_id[key_id] for key_id in decoded.payload["key_ids"]] \
            == keys


class TestCacheKeyStability:
    """Interned keys stay valid cache keys across churn invalidation."""

    def test_hit_after_version_invalidation_with_fresh_key_object(self):
        from repro.core.cache import LRUByteCache

        cache = LRUByteCache(capacity_bytes=1024)
        cache.ensure_version(("epoch-1", 0))
        cache.put(Key(["cache", "stability"]), "payload", size=64)
        hit, value = cache.get(Key(["stability", "cache"]))
        assert hit and value == "payload"
        # Churn: the version tag changes and the cache drops wholesale.
        assert cache.ensure_version(("epoch-2", 0)) is True
        hit, _ = cache.get(Key(["cache", "stability"]))
        assert not hit
        # Re-populating under a newly-spelled (but interned-equal) key
        # serves later lookups spelled either way.
        cache.put(Key(["stability", "cache"]), "fresh", size=64)
        hit, value = cache.get(Key(["cache", "stability"]))
        assert hit and value == "fresh"


class TestKeyAlgebra:
    def test_contains(self):
        assert Key(["a", "b", "c"]).contains(Key(["a", "c"]))
        assert Key(["a", "b"]).contains(Key(["a", "b"]))
        assert not Key(["a", "b"]).contains(Key(["c"]))

    def test_dominates_strict(self):
        assert Key(["a", "b"]).dominates(Key(["a"]))
        assert not Key(["a", "b"]).dominates(Key(["a", "b"]))
        assert not Key(["a"]).dominates(Key(["a", "b"]))

    def test_disjoint(self):
        assert Key(["a", "b"]).is_disjoint(Key(["c"]))
        assert not Key(["a", "b"]).is_disjoint(Key(["b", "c"]))

    def test_extend(self):
        assert Key(["a"]).extend("b") == Key(["a", "b"])

    def test_extend_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Key(["a"]).extend("a")

    def test_subsets_of_size(self):
        key = Key(["a", "b", "c"])
        assert set(key.subsets(2)) == {Key(["a", "b"]), Key(["a", "c"]),
                                       Key(["b", "c"])}
        assert key.subsets(3) == [key]
        assert key.subsets(0) == []
        assert key.subsets(4) == []

    def test_proper_subsets_largest_first(self):
        subsets = Key(["a", "b", "c"]).proper_subsets()
        assert len(subsets) == 6
        assert all(len(k) == 2 for k in subsets[:3])
        assert all(len(k) == 1 for k in subsets[3:])

    def test_proper_subsets_of_singleton(self):
        assert Key(["a"]).proper_subsets() == []


class TestLatticeLevels:
    def test_figure_one_shape(self):
        # Figure 1 of the paper: {a,b,c} -> 1 + 3 + 3 nodes.
        levels = Key.lattice_levels(["a", "b", "c"])
        assert [len(level) for level in levels] == [1, 3, 3]
        assert levels[0] == [Key(["a", "b", "c"])]

    def test_single_term_query(self):
        levels = Key.lattice_levels(["a"])
        assert levels == [[Key(["a"])]]

    def test_total_nodes_is_power_of_two_minus_one(self):
        levels = Key.lattice_levels(["a", "b", "c", "d"])
        assert sum(len(level) for level in levels) == 15
