"""Tests for document lifecycle (unpublish/retract) and lookup caching."""

import pytest

from repro.core.config import AlvisConfig
from repro.core.keys import Key
from repro.core.network import AlvisNetwork
from repro.corpus.loader import sample_documents
from repro.ir.documents import Document


def _network_with_zebra(seed=101, config=None):
    network = AlvisNetwork(num_peers=6, seed=seed, config=config)
    network.distribute_documents(sample_documents())
    zebra = Document(doc_id=0, title="Zebra notes",
                     text="zebra quagga savanna migration zebra quagga")
    host = network.peer_ids()[2]
    network.publish_documents(host, [zebra])
    network.build_index(mode="hdk")
    return network, host, zebra.doc_id


class TestUnpublish:
    def test_document_disappears_from_results(self):
        network, host, doc_id = _network_with_zebra()
        origin = network.peer_ids()[0]
        before, _ = network.query(origin, "zebra quagga")
        assert [doc.doc_id for doc in before] == [doc_id]
        network.unpublish(host, doc_id)
        after, _ = network.query(origin, "zebra quagga")
        assert after == []

    def test_single_term_postings_retracted(self):
        network, host, doc_id = _network_with_zebra()
        key = Key(["zebra"])
        owner = network.ring.successor_of(key.key_id)
        entry_before = network.peer(owner).fragment.get(key)
        assert entry_before is not None
        assert doc_id in entry_before.postings.doc_ids()
        network.unpublish(host, doc_id)
        entry_after = network.peer(owner).fragment.get(key)
        # Either the whole key vanished (zebra only occurred there) or
        # the posting is gone.
        assert entry_after is None or \
            doc_id not in entry_after.postings.doc_ids()

    def test_global_df_decremented(self):
        network, host, doc_id = _network_with_zebra()
        # "peer" occurs in many sample documents; removing one decreases
        # its aggregate df by exactly the holder's delta.
        target = None
        for document in list(network.peer(host).engine.store):
            if "peer" in network.analyzer.analyze(document.text):
                target = document
                break
        assert target is not None
        key = Key(["peer"])
        owner = network.ring.successor_of(key.key_id)
        before = network.peer(owner).fragment.get(key).global_df
        network.unpublish(host, target.doc_id)
        after = network.peer(owner).fragment.get(key).global_df
        assert after == before - 1

    def test_stats_store_df_delta(self):
        network, host, doc_id = _network_with_zebra()
        term_owner = network.ring.successor_of(Key(["zebra"]).key_id)
        store = network.peer(term_owner).stats_store
        assert store.df("zebra") == 1
        network.unpublish(host, doc_id)
        assert store.df("zebra") == 0

    def test_unpublish_unknown_doc_rejected(self):
        network, host, _doc_id = _network_with_zebra()
        with pytest.raises(KeyError):
            network.unpublish(host, 10 ** 9)

    def test_stale_combination_keys_filtered_lazily(self):
        # Even if a 2-term key still carries the retracted doc, queries
        # must not return it.
        network, host, doc_id = _network_with_zebra()
        network.unpublish(host, doc_id)
        stale = 0
        for peer in network.peers():
            for entry in peer.fragment:
                if len(entry.key) > 1 and \
                        doc_id in entry.postings.doc_ids():
                    stale += 1
        origin = network.peer_ids()[0]
        results, _ = network.query(origin, "zebra quagga")
        assert all(doc.doc_id != doc_id for doc in results)


def _lookup_messages(network, action):
    """``LookupHop`` messages sent while ``action()`` runs."""
    counter = "net.msgs.sent.LookupHop"
    before = network.simulator.metrics.counter_value(counter)
    action()
    return network.simulator.metrics.counter_value(counter) - before


def _term_key_ids(network, text):
    return [Key([term]).key_id
            for term in sorted(set(network.analyzer.analyze(text)))]


class TestPublishSideResolution:
    """Maintenance flows resolve a document's terms in one shared round
    and reuse the owners for every message they send."""

    @staticmethod
    def _cold_twins():
        # A join after the build drops the publish-side owner memo, so
        # the flow under test routes its keys like a cold lookup_owners.
        twins = []
        for _ in range(2):
            network, host, doc_id = _network_with_zebra()
            network.churn().join()
            twins.append(network)
        return twins, host, doc_id

    def test_unpublish_routes_terms_once(self):
        (network, twin), host, doc_id = self._cold_twins()
        text = network.peer(host).engine.store.get(doc_id).text
        key_ids = _term_key_ids(twin, text)
        unpublish = _lookup_messages(
            network, lambda: network.unpublish(host, doc_id))
        one_round = _lookup_messages(
            twin, lambda: twin.lookup_owners(host, key_ids))
        assert one_round > 0
        assert unpublish == one_round

    def test_publish_incremental_routes_terms_once(self):
        (network, twin), host, _doc_id = self._cold_twins()
        text = "okapi narwhal tundra migration okapi"
        key_ids = _term_key_ids(twin, text)
        publish = _lookup_messages(
            network, lambda: network.publish_incremental(
                host, Document(doc_id=0, title="Okapi", text=text)))
        one_round = _lookup_messages(
            twin, lambda: twin.lookup_owners(host, key_ids))
        assert one_round > 0
        assert publish == one_round

    def test_indexed_keys_resolve_from_the_memo(self):
        # Right after the build every single-term key of the document
        # was routed by its publisher: retracting it routes nothing.
        network, host, doc_id = _network_with_zebra()
        assert _lookup_messages(
            network, lambda: network.unpublish(host, doc_id)) == 0


class TestLookupCache:
    def test_cache_eliminates_hops_on_repeat(self):
        config = AlvisConfig(cache_lookups=True)
        network, _host, _doc_id = _network_with_zebra(config=config)
        origin = network.peer_ids()[0]
        _r, cold = network.query(origin, "zebra quagga")
        _r, warm = network.query(origin, "zebra quagga")
        assert warm.lookup_hops == 0
        assert cold.lookup_hops >= warm.lookup_hops

    def test_cache_disabled_by_default(self):
        network, _host, _doc_id = _network_with_zebra()
        origin = network.peer_ids()[0]
        _r, first = network.query(origin, "zebra quagga")
        _r, second = network.query(origin, "zebra quagga")
        assert second.lookup_hops == first.lookup_hops

    def test_cache_invalidated_by_membership_change(self):
        config = AlvisConfig(cache_lookups=True)
        network, _host, _doc_id = _network_with_zebra(config=config)
        origin = network.peer_ids()[0]
        network.query(origin, "zebra quagga")
        churn = network.churn()
        churn.join()
        # After a join, resolutions must be recomputed (and correct).
        _results, trace = network.query(origin, "zebra quagga")
        for key, _status in trace.probes:
            owner = network.ring.successor_of(key.key_id)
            assert network.ring.contains(owner)

    def test_cached_results_identical(self):
        config = AlvisConfig(cache_lookups=True)
        network, _host, _doc_id = _network_with_zebra(config=config)
        plain, _ = _network_with_zebra()[0].query(
            _network_with_zebra()[0].peer_ids()[0], "zebra quagga")
        origin = network.peer_ids()[0]
        network.query(origin, "zebra quagga")
        cached, _ = network.query(origin, "zebra quagga")
        assert [doc.doc_id for doc in cached] == \
            [doc.doc_id for doc in plain]

    def test_cache_size_bounded(self):
        config = AlvisConfig(cache_lookups=True, lookup_cache_size=2)
        network, _host, _doc_id = _network_with_zebra(config=config)
        origin = network.peer_ids()[0]
        network.query(origin, "zebra quagga savanna")
        _epoch, cache = network._lookup_caches[origin]
        assert len(cache) <= 2

    def test_departed_origins_drop_their_cache(self):
        config = AlvisConfig(cache_lookups=True)
        network, _host, _doc_id = _network_with_zebra(config=config)
        churn = network.churn()
        for step in ("join", "join", "leave", "leave", "join", "leave"):
            # Every live peer holds a cache before each departure.
            for origin in network.peer_ids():
                network.query(origin, "zebra quagga")
            getattr(churn, step)()
        survivors = network.peer_ids()
        for origin in survivors:
            network.query(origin, "zebra quagga")
        network.faults.crash(survivors[0])
        network.faults.graceful_depart(survivors[1])
        assert set(network._lookup_caches) <= set(network.peer_ids())
