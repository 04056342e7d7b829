"""Integration tests for AlvisNetwork: statistics, HDK build, retrieval,
refinement, incremental publishing, churn, access control."""

import pytest

from repro.core.access import AccessPolicy
from repro.core.config import AlvisConfig
from repro.core.keys import Key
from repro.core.lattice import ProbeStatus
from repro.core.network import AlvisNetwork
from repro.corpus.loader import sample_documents
from repro.ir.documents import Document
from repro.net.latency import ConstantLatency, LogNormalLatency


class TestSetup:
    def test_network_shape(self, hdk_network):
        assert hdk_network.num_peers == 10
        assert hdk_network.ring.size == 10
        assert hdk_network.total_documents() == 120
        assert hdk_network.mode == "hdk"

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            AlvisNetwork(num_peers=0)
        with pytest.raises(ValueError):
            AlvisNetwork(num_peers=3, peer_ids=[1, 2])

    def test_distribution_round_robin(self):
        network = AlvisNetwork(num_peers=4, seed=1)
        network.distribute_documents(sample_documents())
        counts = [peer.engine.num_documents for peer in network.peers()]
        assert sum(counts) == 12
        assert max(counts) == 3

    def test_distribution_contiguous(self):
        network = AlvisNetwork(num_peers=3, seed=1)
        network.distribute_documents(sample_documents(),
                                     assignment="contiguous")
        counts = [peer.engine.num_documents for peer in network.peers()]
        assert counts == [4, 4, 4]

    def test_unknown_assignment_rejected(self):
        network = AlvisNetwork(num_peers=2, seed=1)
        with pytest.raises(ValueError):
            network.distribute_documents(sample_documents(),
                                         assignment="bogus")

    def test_doc_owner_mapping(self):
        network = AlvisNetwork(num_peers=2, seed=1)
        ids = network.publish_documents(network.peer_ids()[0],
                                        sample_documents()[:2])
        for doc_id in ids:
            assert network.doc_owner(doc_id) == network.peer_ids()[0]
        assert network.doc_owner(99999) is None


#: Keys resolved by the owner-resolution tests below.
RESOLVED_KEYS = [(index * 0x9E3779B97F4A7C15) % 2 ** 64
                 for index in range(1, 41)]


class TestOwnerResolution:
    """The sync routing walk behind ``lookup_owners``: each hop is
    delivered one by one (``deliver_hop``) when the latency model draws
    randomness, in bulk otherwise — with identical routing and counters
    either way."""

    def _resolve(self, latency):
        network = AlvisNetwork(num_peers=24, seed=5, latency=latency)
        origin = network.peer_ids()[0]
        rng_before = network.transport.rng.getstate()
        owners, messages = network.lookup_owners(origin, RESOLVED_KEYS)
        metrics = network.simulator.metrics
        counters = (metrics.counter_value("net.msgs.sent.LookupHop"),
                    metrics.counter_value("net.bytes.sent.LookupHop"),
                    metrics.counter_value("net.msgs.sent"),
                    dict(network.transport.msgs_in),
                    dict(network.transport.bytes_in))
        for key_id in RESOLVED_KEYS:
            assert owners[key_id] == network.owner_peer_of_key(key_id)
        advanced = network.transport.rng.getstate() != rng_before
        return owners, messages, counters, advanced

    def test_per_hop_delivery_matches_bulk(self):
        bulk = self._resolve(ConstantLatency(0.02))
        per_hop = self._resolve(LogNormalLatency(0.02, 0.5))
        assert bulk[1] > 0
        assert bulk[1] == bulk[2][0] == bulk[2][2]
        assert per_hop[:3] == bulk[:3]

    def test_per_hop_delivery_draws_latency(self):
        assert not self._resolve(ConstantLatency(0.02))[3]
        assert self._resolve(LogNormalLatency(0.02, 0.5))[3]


class TestStatisticsPhase:
    def test_global_dfs_are_true_dfs(self, hdk_network,
                                     small_corpus_documents):
        # Recompute global dfs centrally and compare with the aggregated
        # values cached at the peers.
        analyzer = hdk_network.analyzer
        true_df = {}
        for document in small_corpus_documents:
            for term in set(analyzer.analyze(document.text)):
                true_df[term] = true_df.get(term, 0) + 1
        checked = 0
        for peer in hdk_network.peers():
            for term in list(peer.engine.index.vocabulary())[:40]:
                assert peer.stats_cache.df(term) == true_df[term]
                checked += 1
        assert checked > 100

    def test_collection_totals(self, hdk_network):
        for peer in hdk_network.peers():
            totals = peer.stats_cache.totals
            assert totals is not None
            assert totals.num_documents == 120
            assert totals.num_peers == 10

    def test_statistics_traffic_accounted(self, small_corpus):
        network = AlvisNetwork(num_peers=5, seed=3)
        network.distribute_documents(small_corpus.documents()[:40])
        network.run_statistics_phase()
        by_kind = network.bytes_by_kind()
        assert by_kind.get("DfPublish", 0) > 0
        assert by_kind.get("DfReply", 0) > 0
        assert by_kind.get("CollectionPublish", 0) > 0


class TestHDKBuild:
    def test_multi_term_keys_created(self, hdk_network):
        sizes = set()
        for peer in hdk_network.peers():
            for entry in peer.fragment:
                sizes.add(len(entry.key))
        assert 1 in sizes
        assert 2 in sizes  # expansion happened

    def test_key_size_bounded_by_s_max(self, hdk_network):
        s_max = hdk_network.config.s_max
        for peer in hdk_network.peers():
            for entry in peer.fragment:
                assert len(entry.key) <= s_max

    def test_posting_lists_truncated_to_k(self, hdk_network):
        k = hdk_network.config.truncation_k
        for peer in hdk_network.peers():
            for entry in peer.fragment:
                assert len(entry.postings) <= k

    def test_keys_live_at_their_dht_owner(self, hdk_network):
        for peer in hdk_network.peers():
            for entry in peer.fragment:
                owner = hdk_network.ring.successor_of(entry.key.key_id)
                assert owner == peer.peer_id

    def test_expansions_only_for_non_discriminative(self, hdk_network):
        # Every multi-term key must extend a key whose global df exceeded
        # DF_max (we verify the parent exists and was frequent).
        df_max = hdk_network.config.df_max
        frequent_parents = 0
        for peer in hdk_network.peers():
            for entry in peer.fragment:
                if len(entry.key) != 2:
                    continue
                parents = entry.key.subsets(1)
                parent_dfs = []
                for parent in parents:
                    owner = hdk_network.ring.successor_of(parent.key_id)
                    parent_entry = hdk_network.peer(owner).fragment.get(
                        parent)
                    if parent_entry is not None:
                        parent_dfs.append(parent_entry.global_df)
                if any(df > df_max for df in parent_dfs):
                    frequent_parents += 1
        assert frequent_parents > 0

    def test_build_requires_statistics_is_automatic(self, small_corpus):
        network = AlvisNetwork(num_peers=4, seed=5)
        network.distribute_documents(small_corpus.documents()[:30])
        stats = network.build_index(mode="hdk")  # runs stats implicitly
        assert stats.keys_published > 0

    def test_unknown_mode_rejected(self):
        network = AlvisNetwork(num_peers=2, seed=1)
        network.distribute_documents(sample_documents())
        with pytest.raises(ValueError):
            network.build_index(mode="bogus")


class TestQuerying:
    def test_single_term_query(self, hdk_network, small_corpus):
        analyzer = hdk_network.analyzer
        term = analyzer.analyze(" ".join(
            small_corpus.document_terms(0)))[0]
        results, trace = hdk_network.query(hdk_network.peer_ids()[0],
                                           [term])
        assert results
        assert trace.probed_count == 1

    def test_multi_term_results_contain_conjunctive_match(
            self, hdk_network, small_corpus, small_workload):
        # Queries are built from single documents, so the conjunction is
        # non-empty; the distributed result should find at least one of
        # the matching documents for most queries.
        hits = 0
        for query in small_workload.pool[:15]:
            results, _trace = hdk_network.query(
                hdk_network.peer_ids()[0], list(query))
            if results:
                hits += 1
        assert hits >= 12

    def test_trace_accounting_nonzero(self, hdk_network, small_workload):
        query = list(small_workload.pool[0])
        _results, trace = hdk_network.query(hdk_network.peer_ids()[1],
                                            query)
        assert trace.bytes_sent > 0
        assert trace.request_messages >= trace.probed_count
        assert trace.latency > 0
        assert "ProbeKey" in trace.bytes_by_kind

    def test_results_bounded_by_result_k(self, hdk_network,
                                         small_workload):
        for query in small_workload.pool[:5]:
            results, _trace = hdk_network.query(
                hdk_network.peer_ids()[0], list(query))
            assert len(results) <= hdk_network.config.result_k

    def test_query_deterministic(self, hdk_network, small_workload):
        query = list(small_workload.pool[3])
        first, _ = hdk_network.query(hdk_network.peer_ids()[2], query)
        second, _ = hdk_network.query(hdk_network.peer_ids()[2], query)
        assert [(doc.doc_id, doc.score) for doc in first] == \
            [(doc.doc_id, doc.score) for doc in second]

    def test_query_string_analyzed(self, tiny_network):
        results, trace = tiny_network.query(
            tiny_network.peer_ids()[0], "posting lists are truncated")
        assert results
        # Stopword "are" must not appear in the query key.
        assert "are" not in trace.query.terms

    def test_empty_query_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.query(tiny_network.peer_ids()[0], "the of and")

    def test_refinement_reorders_with_exact_scores(self, tiny_network):
        results, trace = tiny_network.query(
            tiny_network.peer_ids()[0], "peer index network",
            refine=True)
        assert trace.refined
        assert results
        scores = [doc.score for doc in results]
        assert scores == sorted(scores, reverse=True)

    def test_query_from_every_peer_works(self, hdk_network,
                                         small_workload):
        query = list(small_workload.pool[1])
        expected = None
        for peer_id in hdk_network.peer_ids():
            results, _trace = hdk_network.query(peer_id, query)
            ids = [doc.doc_id for doc in results]
            if expected is None:
                expected = ids
            else:
                assert ids == expected  # origin-independent results


class TestDocumentAccess:
    def test_fetch_public_document(self, tiny_network):
        results, _ = tiny_network.query(tiny_network.peer_ids()[0],
                                        "congestion control")
        assert results
        reply = tiny_network.fetch_document(
            tiny_network.peer_ids()[0], results[0].doc_id,
            terms=["congestion"])
        assert reply["ok"]
        assert reply["title"]
        assert reply["url"]

    def test_protected_document_needs_credentials(self):
        network = AlvisNetwork(num_peers=3, seed=6)
        network.distribute_documents(sample_documents())
        secret = Document(doc_id=0, title="Secret report",
                          text="confidential merger details zebra")
        doc_id = network.publish_documents(
            network.peer_ids()[0], [secret],
            policy=AccessPolicy.password("alice", "pw"))[0]
        network.build_index(mode="hdk")
        other = network.peer_ids()[1]
        denied = network.fetch_document(other, doc_id)
        assert not denied["ok"]
        assert denied["error"] == "access-denied"
        granted = network.fetch_document(other, doc_id,
                                         credentials=("alice", "pw"))
        assert granted["ok"]

    def test_fetch_unknown_document(self, tiny_network):
        reply = tiny_network.fetch_document(tiny_network.peer_ids()[0],
                                            10 ** 9)
        assert not reply["ok"]


class TestIncrementalPublish:
    def test_new_document_becomes_searchable(self, tiny_network):
        zebra = Document(doc_id=0, title="Zebra studies",
                         text="zebra quagga savanna migration zebra "
                              "quagga herds")
        origin = tiny_network.peer_ids()[0]
        doc_id = tiny_network.publish_incremental(
            tiny_network.peer_ids()[2], zebra)
        results, _trace = tiny_network.query(origin, "zebra quagga")
        assert [doc.doc_id for doc in results] == [doc_id]


class TestChurn:
    def test_index_preserved_across_churn(self, tiny_network):
        keys_before = tiny_network.total_keys()
        churn = tiny_network.churn()
        churn.join()
        churn.leave()
        churn.join()
        assert tiny_network.total_keys() == keys_before
        # Every key must sit at its current DHT owner.
        for peer in tiny_network.peers():
            for entry in peer.fragment:
                assert tiny_network.ring.successor_of(
                    entry.key.key_id) == peer.peer_id

    def test_handover_traffic_accounted(self, tiny_network):
        tiny_network.reset_traffic()
        churn = tiny_network.churn()
        churn.join()
        by_kind = tiny_network.bytes_by_kind()
        # A join in a 6-peer network with ~150 keys almost surely moves
        # at least one entry.
        assert by_kind.get("IndexHandover", 0) > 0

    def test_query_correct_after_churn(self, tiny_network):
        results_before, _ = tiny_network.query(
            tiny_network.peer_ids()[0], "document digest")
        churn = tiny_network.churn()
        for _ in range(3):
            churn.join()
        origin = tiny_network.peer_ids()[0]
        results_after, _ = tiny_network.query(origin, "document digest")
        assert [doc.doc_id for doc in results_after] == \
            [doc.doc_id for doc in results_before]

    def test_departed_peer_documents_unreachable(self, tiny_network):
        churn = tiny_network.churn()
        victim = tiny_network.peer_ids()[0]
        churn.leave(victim)
        assert victim not in tiny_network.peer_ids()
        assert not tiny_network.transport.is_registered(victim)


class TestRngStreamIsolation:
    """Every stochastic subsystem draws from its own labeled
    ``make_rng`` stream, so deterministic features that change traffic
    volume (probe caching, frontier batching, early termination) cannot
    perturb churn or any other random sequence under a fixed seed."""

    def _network(self, **overrides):
        network = AlvisNetwork(num_peers=6,
                               config=AlvisConfig(**overrides), seed=4)
        network.distribute_documents(sample_documents())
        network.build_index(mode="hdk")
        return network

    def test_engine_features_do_not_perturb_churn(self):
        baseline = self._network()
        engined = self._network(batch_lookups=True,
                                cache_bytes=64 * 1024,
                                topk_early_stop=True)
        histories = []
        for network in (baseline, engined):
            origin = network.peer_ids()[0]
            for query in ("posting lists are truncated",
                          "peer index network",
                          "posting lists are truncated"):
                network.query(origin, query)
            churn = network.churn()
            churn.run_session(joins=3, leaves=2)
            histories.append([(event.kind, event.node_id)
                              for event in churn.history])
        # Identical churn decisions despite wildly different query
        # traffic — the streams never touched each other.
        assert histories[0] == histories[1]
        assert baseline.ring.member_ids == engined.ring.member_ids

    def test_results_identical_across_engine_configs_after_churn(self):
        baseline = self._network()
        engined = self._network(batch_lookups=True,
                                cache_bytes=64 * 1024)
        for network in (baseline, engined):
            network.churn().run_session(joins=2, leaves=1)
        origin = baseline.peer_ids()[0]
        assert origin in engined.peer_ids()
        base_results, _t = baseline.query(origin, "document digest")
        engine_results, _t = engined.query(origin, "document digest")
        assert [doc.doc_id for doc in base_results] == \
            [doc.doc_id for doc in engine_results]

    def test_second_churn_process_gets_fresh_stream(self):
        network = self._network()
        first = network.churn()
        first.run_session(joins=2, leaves=0)
        second = network.churn()
        second.run_session(joins=2, leaves=0)
        first_joins = [event.node_id for event in first.history]
        second_joins = [event.node_id for event in second.history]
        # A replayed stream would try to re-join the same ids.
        assert first_joins != second_joins

    def test_subsystem_streams_are_independent(self):
        from repro.util.rng import make_rng
        seed = 4
        streams = {label: make_rng(seed, label).random()
                   for label in ("latency", "peer-ids", "churn")}
        assert len(set(streams.values())) == len(streams)
