"""Tests for the batched + cached query engine and its substrate:
the byte-budgeted LRU cache, batched DHT lookups, probe-result caching
with churn/republication invalidation, and top-k early termination."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LRUByteCache
from repro.core.config import AlvisConfig
from repro.core.keys import Key
from repro.core.lattice import LatticeExplorer, ProbeStatus
from repro.core.network import AlvisNetwork
from repro.corpus.loader import sample_documents
from repro.dht.ring import DHTRing
from repro.dht.routing import HopSpaceFingers, uniform_ids
from repro.ir.postings import Posting, PostingList
from repro.util.rng import make_rng


def _build_network(corpus, config, num_peers=10, seed=2, mode="hdk"):
    network = AlvisNetwork(num_peers=num_peers, config=config, seed=seed)
    network.distribute_documents(corpus.documents())
    network.build_index(mode=mode)
    return network


@pytest.fixture(scope="module")
def engine_network(small_corpus) -> AlvisNetwork:
    """Batch + cache + early-stop, over the same corpus/seed as
    ``hdk_network`` so the two are directly comparable."""
    return _build_network(small_corpus, AlvisConfig(
        batch_lookups=True, cache_bytes=64 * 1024,
        topk_early_stop=True))


# ---------------------------------------------------------------------------
# LRUByteCache
# ---------------------------------------------------------------------------

class TestLRUByteCache:
    def test_hit_and_miss_counters(self):
        cache = LRUByteCache(capacity_bytes=100)
        hit, value = cache.get("a")
        assert not hit and value is None
        assert cache.put("a", 1, size=10)
        hit, value = cache.get("a")
        assert hit and value == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_byte_budget_evicts_lru_first(self):
        cache = LRUByteCache(capacity_bytes=100)
        cache.put("a", "A", size=40)
        cache.put("b", "B", size=40)
        cache.get("a")                      # refresh a: b is now LRU
        cache.put("c", "C", size=40)        # must evict b, not a
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1
        assert cache.used_bytes == 80

    def test_oversized_entry_rejected(self):
        cache = LRUByteCache(capacity_bytes=100)
        assert not cache.put("big", "x", size=101)
        assert len(cache) == 0

    def test_oversized_replacement_drops_stale_value(self):
        cache = LRUByteCache(capacity_bytes=100)
        cache.put("a", "old", size=10)
        # The rejected overwrite must not leave the old value to be
        # served as a stale hit.
        assert not cache.put("a", "new", size=101)
        assert cache.get("a") == (False, None)
        assert cache.used_bytes == 0

    def test_replacing_entry_reclaims_bytes(self):
        cache = LRUByteCache(capacity_bytes=100)
        cache.put("a", "A", size=60)
        cache.put("a", "A2", size=30)
        assert cache.used_bytes == 30
        assert cache.get("a") == (True, "A2")

    def test_capacity_zero_disables(self):
        cache = LRUByteCache(capacity_bytes=0)
        assert not cache.enabled
        assert not cache.put("a", 1, size=1)
        assert cache.get("a") == (False, None)

    def test_ttl_expires_entries(self):
        cache = LRUByteCache(capacity_bytes=100, ttl=2)
        cache.put("a", 1, size=10)
        cache.tick()
        assert cache.get("a") == (True, 1)   # age 1 < ttl
        cache.tick()
        assert cache.get("a") == (False, None)  # age 2 >= ttl
        assert cache.stats.expirations == 1
        assert "a" not in cache

    def test_version_invalidation(self):
        cache = LRUByteCache(capacity_bytes=100)
        # First tag adoption is not an invalidation (nothing cached yet).
        assert not cache.ensure_version((0, 0))
        cache.put("a", 1, size=10)
        assert not cache.ensure_version((0, 0))
        assert cache.ensure_version((0, 1))
        assert cache.get("a") == (False, None)
        assert cache.stats.invalidations == 1
        assert cache.used_bytes == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            LRUByteCache(capacity_bytes=-1)
        with pytest.raises(ValueError):
            LRUByteCache(capacity_bytes=10, ttl=-1)
        with pytest.raises(ValueError):
            LRUByteCache(capacity_bytes=10).put("a", 1, size=-1)


# ---------------------------------------------------------------------------
# Batched DHT lookups
# ---------------------------------------------------------------------------

class TestLookupMany:
    def _ring(self, n=24, seed=7):
        ring = DHTRing(HopSpaceFingers())
        for node_id in uniform_ids(make_rng(seed, "ring"), n):
            ring.add_node(node_id)
        return ring

    def test_owners_match_individual_lookups(self, scan_route):
        ring = self._ring()
        source = ring.member_ids[0]
        key_ids = [hash(("k", i)) % (2 ** 64) for i in range(40)]
        batch = ring.lookup_many(source, key_ids)
        for key_id in key_ids:
            path = scan_route(ring, source, key_id)
            assert batch.owners[key_id] == path[-1]
            assert batch.per_key_hops[key_id] == len(path) - 1

    def test_messages_amortized_below_total_hops(self):
        ring = self._ring()
        source = ring.member_ids[0]
        key_ids = [hash(("k", i)) % (2 ** 64) for i in range(40)]
        batch = ring.lookup_many(source, key_ids)
        assert batch.messages <= batch.total_hops
        # With 40 keys over 24 nodes, route sharing must actually occur.
        assert batch.messages < batch.total_hops

    def test_single_key_batch_equals_lookup(self, scan_route):
        # A one-key round sends one message per hop of the key's route.
        ring = self._ring()
        source = ring.member_ids[3]
        key_id = 123456789
        batch = ring.lookup_many(source, [key_id])
        path = scan_route(ring, source, key_id)
        assert batch.owners == {key_id: path[-1]}
        assert batch.messages == len(path) - 1 > 0

    def test_unknown_source_raises(self):
        ring = self._ring()
        with pytest.raises(KeyError):
            ring.lookup_many(10**9 + 7, [1])


# ---------------------------------------------------------------------------
# Batched path equivalence and savings
# ---------------------------------------------------------------------------

class TestBatchedEquivalence:
    def test_identical_results_and_statuses(self, hdk_network,
                                            engine_network,
                                            small_workload):
        for query in small_workload.pool[:12]:
            base_results, base_trace = hdk_network.query(
                hdk_network.peer_ids()[0], list(query))
            engine_results, engine_trace = engine_network.query(
                engine_network.peer_ids()[0], list(query))
            assert [doc.doc_id for doc in base_results] == \
                [doc.doc_id for doc in engine_results]
            assert [doc.score for doc in base_results] == \
                pytest.approx([doc.score for doc in engine_results])

    def test_batching_reduces_network_messages(self, hdk_network,
                                               small_corpus,
                                               small_workload):
        batched = _build_network(small_corpus,
                                 AlvisConfig(batch_lookups=True))
        base_messages = batched_messages = 0.0
        for query in small_workload.pool[:12]:
            before = hdk_network.messages_sent_total()
            hdk_network.query(hdk_network.peer_ids()[0], list(query))
            base_messages += hdk_network.messages_sent_total() - before
            before = batched.messages_sent_total()
            batched.query(batched.peer_ids()[0], list(query))
            batched_messages += batched.messages_sent_total() - before
        assert batched_messages < base_messages

    def test_batched_trace_reconciles(self, engine_network,
                                      small_workload):
        origin = engine_network.peer_ids()[1]
        for query in small_workload.pool[:6]:
            _results, trace = engine_network.query(origin, list(query))
            assert sum(trace.bytes_by_kind.values()) == trace.bytes_sent


# ---------------------------------------------------------------------------
# Probe-result caching
# ---------------------------------------------------------------------------

class TestProbeCache:
    def test_repeat_query_served_from_cache(self, small_corpus,
                                            small_workload):
        network = _build_network(small_corpus, AlvisConfig(
            batch_lookups=True, cache_bytes=64 * 1024))
        origin = network.peer_ids()[0]
        query = list(small_workload.pool[0])
        _r, cold = network.query(origin, query)
        _r, warm = network.query(origin, query)
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        assert warm.cache_misses == 0 and warm.cache_hits > 0
        assert warm.bytes_sent == 0
        assert warm.lookup_hops == 0
        assert warm.request_messages == 0
        assert warm.cache_hit_rate == 1.0

    def test_cache_is_per_origin_peer(self, small_corpus, small_workload):
        network = _build_network(small_corpus, AlvisConfig(
            cache_bytes=64 * 1024))
        query = list(small_workload.pool[1])
        network.query(network.peer_ids()[0], query)
        _r, other = network.query(network.peer_ids()[1], query)
        assert other.cache_hits == 0     # different peer, cold cache

    def test_churn_invalidates_cache(self, small_corpus, small_workload):
        config = AlvisConfig(batch_lookups=True, cache_bytes=64 * 1024)
        network = _build_network(small_corpus, config)
        twin = _build_network(small_corpus, AlvisConfig())
        origin = network.peer_ids()[0]
        query = list(small_workload.pool[2])
        network.query(origin, query)
        network.churn().join()
        twin.churn().join()              # same seed -> same join
        _r, after = network.query(origin, query)
        twin_results, _t = twin.query(twin.peer_ids()[0], query)
        peer = network.peer(origin)
        assert peer.probe_cache.stats.invalidations >= 1
        assert after.cache_hits == 0     # nothing stale survived
        assert [doc.doc_id for doc in after.results] == \
            [doc.doc_id for doc in twin_results]

    def test_republication_invalidates_cache(self, small_corpus,
                                             small_workload):
        network = _build_network(small_corpus, AlvisConfig(
            cache_bytes=64 * 1024))
        origin = network.peer_ids()[0]
        query = list(small_workload.pool[3])
        network.query(origin, query)
        version_before = network.index_version
        document = sample_documents()[0]
        network.publish_incremental(network.peer_ids()[1], document)
        assert network.index_version > version_before
        _r, after = network.query(origin, query)
        assert network.peer(origin).probe_cache.stats.invalidations >= 1
        assert after.cache_hits == 0

    def test_ttl_expires_cached_probes(self, small_corpus,
                                       small_workload):
        network = _build_network(small_corpus, AlvisConfig(
            cache_bytes=64 * 1024, cache_ttl=1))
        origin = network.peer_ids()[0]
        query = list(small_workload.pool[4])
        network.query(origin, query)
        _r, second = network.query(origin, query)
        # Every entry aged out after one query tick.
        assert second.cache_hits == 0
        assert network.peer(origin).probe_cache.stats.expirations > 0

    def test_qdi_mode_bypasses_probe_cache(self, small_corpus,
                                           small_workload):
        """QDI's popularity monitoring requires responsible peers to
        see every probe — absorbing them at the querying peer would
        starve hot keys' counters until maintenance evicts them.  The
        cache is therefore inert in QDI mode, and on-demand activation
        keeps working with ``cache_bytes`` set."""
        network = _build_network(small_corpus, AlvisConfig(
            cache_bytes=64 * 1024, qdi_activation_threshold=2),
            mode="qdi")
        origin = network.peer_ids()[0]
        query = list(small_workload.pool[0])
        for _ in range(3):
            _r, trace = network.query(origin, query)
            assert trace.cache_hits == 0 and trace.cache_misses == 0
        activations = sum(peer.qdi.stats.activations
                          for peer in network.peers())
        assert activations > 0

    @settings(max_examples=20, deadline=None)
    @given(index=st.integers(min_value=0, max_value=39))
    def test_cached_and_uncached_topk_identical(self, hdk_network,
                                                cached_twin_network,
                                                small_workload, index):
        """Property: caching is invisible in results — any query from
        the shared pool ranks identically with and without the cache,
        whatever cache state earlier examples left behind."""
        query = list(small_workload.pool[index])
        base_results, _t = hdk_network.query(
            hdk_network.peer_ids()[0], query)
        cached_results, _t = cached_twin_network.query(
            cached_twin_network.peer_ids()[0], query)
        assert [doc.doc_id for doc in base_results] == \
            [doc.doc_id for doc in cached_results]
        assert [doc.score for doc in base_results] == \
            pytest.approx([doc.score for doc in cached_results])


@pytest.fixture(scope="module")
def cached_twin_network(small_corpus) -> AlvisNetwork:
    """Same corpus/seed as ``hdk_network`` but with the probe cache on."""
    return _build_network(small_corpus, AlvisConfig(
        cache_bytes=64 * 1024))


# ---------------------------------------------------------------------------
# Top-k early termination
# ---------------------------------------------------------------------------

def _posting_list(*scores, truncated=False):
    entries = [Posting(doc_id=i + 1, score=score)
               for i, score in enumerate(scores)]
    global_df = len(entries) + (1 if truncated else 0)
    return PostingList(entries, global_df=global_df)


class TestEarlyTermination:
    def test_explorer_marks_pruned_levels(self):
        # prune_on_truncated off: a truncated full key excludes nothing,
        # so everything below it is cut purely by the stop test.
        explorer = LatticeExplorer(prune_on_truncated=False)
        probed = []

        def probe_level(keys):
            probed.extend(keys)
            return [(True, _posting_list(3.0, 2.0, truncated=True))
                    for _key in keys]

        def stop_after_first_level(outcome, remaining):
            return len(outcome.records) >= 1

        outcome = explorer.explore(["a", "b", "c"], probe_level,
                                   should_stop=stop_after_first_level)
        assert probed == [Key(["a", "b", "c"])]
        assert len(outcome.records) == 7       # full lattice recorded
        assert outcome.probed_count == 1
        assert outcome.pruned_count == 6
        assert outcome.with_status(ProbeStatus.PRUNED)

    def test_pruned_excluded_from_probed_count(self):
        explorer = LatticeExplorer()

        def probe_level(keys):
            # Untruncated full key: all subsets become SKIPPED, not
            # PRUNED, even when the stop test fires.
            return [(True, _posting_list(3.0)) for _key in keys]

        outcome = explorer.explore(
            ["a", "b"], probe_level,
            should_stop=lambda _outcome, _remaining: True)
        statuses = {record.key: record.status
                    for record in outcome.records}
        assert statuses[Key(["a", "b"])] == ProbeStatus.UNTRUNCATED
        assert statuses[Key(["a"])] == ProbeStatus.SKIPPED
        assert statuses[Key(["b"])] == ProbeStatus.SKIPPED

    def test_early_stop_preserves_topk_sets(self, hdk_network,
                                            small_corpus,
                                            small_workload):
        stopping = _build_network(small_corpus, AlvisConfig(
            topk_early_stop=True))
        for query in small_workload.pool[:15]:
            base_results, _t = hdk_network.query(
                hdk_network.peer_ids()[0], list(query))
            stop_results, trace = stopping.query(
                stopping.peer_ids()[0], list(query))
            assert {doc.doc_id for doc in base_results} == \
                {doc.doc_id for doc in stop_results}
            assert trace.probed_count + trace.skipped_count \
                + trace.pruned_count == len(trace.probes)

    def test_stopword_list_pruned_when_rare_pair_decides_topk(self):
        """The canonical Akbarinia win, end-to-end: a rare pair's
        untruncated list already fills the top-k, the only unprobed key
        is a collection-wide common term whose BM25 ceiling cannot
        reorder anything — its posting list is never fetched."""
        from repro.ir.documents import Document

        def documents():
            docs = [Document(doc_id=0, title=f"rare{i}", url="",
                             text=f"azeta aquark pad{i} pod{i} pud{i} "
                                  "omega")
                    for i in range(3)]
            docs += [Document(doc_id=0, title=f"common{i}", url="",
                              text=f"omega unique{i}a unique{i}b "
                                   f"unique{i}c")
                     for i in range(57)]
            return docs

        def build(early_stop):
            network = AlvisNetwork(num_peers=6, seed=9, config=AlvisConfig(
                result_k=3, df_max=2, truncation_k=5, proximity_window=2,
                topk_early_stop=early_stop))
            network.distribute_documents(documents(),
                                         assignment="contiguous")
            network.build_index(mode="hdk")
            return network

        query = ["azeta", "aquark", "omega"]
        baseline = build(False)
        base_results, base_trace = baseline.query(
            baseline.peer_ids()[0], query)
        stopping = build(True)
        stop_results, stop_trace = stopping.query(
            stopping.peer_ids()[0], query)
        statuses = dict(stop_trace.probes)
        assert statuses[Key(["omega"])] == ProbeStatus.PRUNED
        assert stop_trace.pruned_count == 1
        assert stop_trace.probed_count == base_trace.probed_count - 1
        assert [doc.doc_id for doc in base_results] == \
            [doc.doc_id for doc in stop_results]
        assert [doc.score for doc in base_results] == \
            pytest.approx([doc.score for doc in stop_results])

    def test_exactly_one_probe_mode_required(self):
        # The level probe is the one probe mode; the per-key form is gone.
        explorer = LatticeExplorer()
        with pytest.raises(TypeError):
            explorer.explore(["a"])
        with pytest.raises(TypeError):
            explorer.explore(["a"], probe=lambda key: (False, None))
        with pytest.raises(ValueError):
            explorer.explore(["a"], lambda keys: [])
