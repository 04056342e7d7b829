"""Tests for Query-Driven Indexing: activation, harvest, eviction,
adaptivity."""

import pytest

from repro.core.config import AlvisConfig
from repro.core.keys import Key
from repro.core.lattice import ProbeStatus
from repro.core.network import AlvisNetwork
from repro.util.rng import make_rng


def _qdi_net(small_corpus, threshold=2, **overrides):
    config = AlvisConfig(qdi_activation_threshold=threshold, **overrides)
    network = AlvisNetwork(num_peers=8, config=config, seed=21)
    network.distribute_documents(small_corpus.documents())
    network.build_index(mode="qdi")
    return network


class TestInitialState:
    def test_starts_single_term_only(self, qdi_network):
        for peer in qdi_network.peers():
            for entry in peer.fragment:
                if entry.postings or entry.contributors:
                    assert len(entry.key) == 1

    def test_managers_attached(self, qdi_network):
        assert all(peer.qdi is not None for peer in qdi_network.peers())


class TestActivation:
    def test_repeated_query_activates_key(self, small_corpus,
                                          small_workload):
        network = _qdi_net(small_corpus, threshold=2)
        query = list(small_workload.pool[0])
        origin = network.peer_ids()[0]
        # First queries: full key missing.
        _results, trace1 = network.query(origin, query)
        full_key = trace1.query
        statuses = dict(trace1.probes)
        assert statuses[full_key] == ProbeStatus.MISSING
        network.query(origin, query)
        # Activation threshold 2 reached -> the key is indexed on demand.
        owner = network.ring.successor_of(full_key.key_id)
        entry = network.peer(owner).fragment.get(full_key)
        assert entry is not None
        assert entry.on_demand
        assert entry.postings
        # Next query answers from the indexed combination.
        _results, trace3 = network.query(origin, query)
        statuses3 = dict(trace3.probes)
        assert statuses3[full_key] in (ProbeStatus.UNTRUNCATED,
                                       ProbeStatus.TRUNCATED)

    def test_activation_improves_efficiency(self, small_corpus,
                                            small_workload):
        network = _qdi_net(small_corpus, threshold=2)
        query = list(small_workload.pool[1])
        origin = network.peer_ids()[0]
        _r, before = network.query(origin, query)
        network.query(origin, query)
        _r, after = network.query(origin, query)
        assert after.probed_count <= before.probed_count

    def test_activated_results_match_hdk_style_union(self, small_corpus,
                                                     small_workload):
        """After activation, results must still contain the conjunctive
        matches (quality does not regress when the index adapts)."""
        network = _qdi_net(small_corpus, threshold=1)
        query = list(small_workload.pool[2])
        origin = network.peer_ids()[0]
        results_cold, _ = network.query(origin, query)
        results_warm, _ = network.query(origin, query)
        cold_ids = {doc.doc_id for doc in results_cold}
        warm_ids = {doc.doc_id for doc in results_warm}
        # Conjunctive matches present before must remain present.
        conjunctive = set()
        for peer in network.peers():
            conjunctive |= peer.engine.index.documents_with_all(query)
        if conjunctive:
            assert conjunctive & warm_ids

    def test_redundant_combination_not_activated(self, small_corpus):
        network = _qdi_net(small_corpus, threshold=1)
        # Find a single-term key with an untruncated list, then query a
        # superset of it: the full query is covered -> redundant.
        target_term = None
        for peer in network.peers():
            for entry in peer.fragment:
                if (len(entry.key) == 1 and entry.postings
                        and not entry.postings.truncated
                        and 1 < entry.global_df <= 3):
                    target_term = entry.key.terms[0]
                    break
            if target_term:
                break
        assert target_term is not None
        # Pair it with a term that never co-occurs: conjunction is empty,
        # and the rare term's list is complete -> feedback says redundant.
        partner = None
        for peer in network.peers():
            for term in peer.engine.index.vocabulary():
                if term == target_term:
                    continue
                cooccur = False
                for other in network.peers():
                    if other.engine.index.documents_with_all(
                            [target_term, term]):
                        cooccur = True
                        break
                if not cooccur:
                    partner = term
                    break
            if partner:
                break
        assert partner is not None
        origin = network.peer_ids()[0]
        key = Key([target_term, partner])
        for _ in range(4):
            network.query(origin, [target_term, partner])
        owner = network.ring.successor_of(key.key_id)
        entry = network.peer(owner).fragment.get(key)
        # Never indexed on demand (shadow entry at most).
        assert entry is None or not entry.on_demand


class TestHarvest:
    def test_harvest_messages_accounted(self, small_corpus,
                                        small_workload):
        network = _qdi_net(small_corpus, threshold=1)
        network.reset_traffic()
        origin = network.peer_ids()[0]
        network.query(origin, list(small_workload.pool[3]))
        by_kind = network.bytes_by_kind()
        total_activations = sum(peer.qdi.stats.activations
                                for peer in network.peers())
        if total_activations:
            assert by_kind.get("HarvestKey", 0) > 0
            assert by_kind.get("ContributorsGet", 0) > 0

    def test_harvest_fanout_bounded(self, small_corpus, small_workload):
        network = _qdi_net(small_corpus, threshold=1,
                           qdi_harvest_fanout=2)
        origin = network.peer_ids()[0]
        for query in small_workload.pool[:5]:
            network.query(origin, list(query))
        for peer in network.peers():
            for entry in peer.fragment:
                if entry.on_demand:
                    assert len(entry.contributors) <= 2

    def test_harvested_posting_lists_truncated(self, small_corpus,
                                               small_workload):
        network = _qdi_net(small_corpus, threshold=1, truncation_k=3)
        origin = network.peer_ids()[0]
        for query in small_workload.pool[:8]:
            network.query(origin, list(query))
        for peer in network.peers():
            for entry in peer.fragment:
                assert len(entry.postings) <= 3


#: 16 peers, 40 per-probe QDI queries (10 distinct, 4 rounds): wire
#: totals captured on the deleted synchronous per-probe engine.
PER_PROBE_QDI_WIRE = {
    "ContributorsGet": 1619.0, "ContributorsReply": 5174.0,
    "HarvestKey": 19149.0, "HarvestReply": 20918.0, "LookupHop": 18907.0,
    "PopularityFeedback": 1867.0, "ProbeKey": 5579.0, "ProbeReply": 12402.0,
}


class TestTraceSemantics:
    def test_traces_exclude_owner_side_indexing(self, small_corpus,
                                                small_workload):
        """A query's trace carries its own messages only: the on-demand
        indexing its feedback triggers at an owner (contributor lookup
        and harvest) is wire traffic no trace is charged for."""
        network = AlvisNetwork(num_peers=16, seed=2, config=AlvisConfig(
            batch_lookups=False, qdi_activation_threshold=2))
        network.distribute_documents(small_corpus.documents())
        network.build_index(mode="qdi")
        network.reset_traffic()
        origins = network.peer_ids()
        traces = [network.query(origins[index % len(origins)],
                                list(small_workload.pool[index % 10]))[1]
                  for index in range(40)]
        assert network.bytes_by_kind() == PER_PROBE_QDI_WIRE
        assert network.messages_sent_total() == 881
        kinds = {kind for trace in traces for kind in trace.bytes_by_kind}
        assert kinds == {"LookupHop", "PopularityFeedback", "ProbeKey",
                         "ProbeReply"}
        for kind in ("PopularityFeedback", "ProbeKey", "ProbeReply"):
            assert sum(trace.bytes_by_kind.get(kind, 0)
                       for trace in traces) == PER_PROBE_QDI_WIRE[kind]
        assert sum(trace.bytes_sent for trace in traces) < \
            sum(PER_PROBE_QDI_WIRE.values())


class TestMaintenance:
    def test_decay_and_eviction(self, small_corpus, small_workload):
        network = _qdi_net(small_corpus, threshold=1,
                           qdi_maintenance_interval=5,
                           qdi_decay=0.1,
                           qdi_eviction_threshold=0.5)
        rng = make_rng(33, "drift")
        origin_ids = network.peer_ids()
        # Phase 1: make some keys popular.
        for index, query in enumerate(small_workload.pool[:5] * 2):
            network.query(origin_ids[index % len(origin_ids)],
                          list(query))
        on_demand_before = sum(
            1 for peer in network.peers() for entry in peer.fragment
            if entry.on_demand)
        assert on_demand_before > 0
        # Phase 2: hammer different queries; old keys decay and evict.
        for index, query in enumerate(small_workload.pool[20:40] * 3):
            network.query(origin_ids[index % len(origin_ids)],
                          list(query))
        evictions = sum(peer.qdi.stats.evictions
                        for peer in network.peers())
        assert evictions > 0

    def test_stats_snapshot_fields(self, qdi_network):
        peer = qdi_network.peers()[0]
        snapshot = peer.qdi.stats.snapshot()
        assert set(snapshot) == {"probes_seen", "activations",
                                 "harvest_messages", "evictions",
                                 "redundant_suppressed"}

    def test_manual_maintenance_runs(self, qdi_network):
        peer = qdi_network.peers()[0]
        evicted = peer.qdi.run_maintenance()
        assert isinstance(evicted, list)

    def test_same_round_bumps_survive_aggressive_maintenance(
            self, small_corpus, small_workload):
        """Maintenance after *every* probe (interval=1) with brutal
        decay: under the old decay-then-evict-everything order a
        missing key's popularity was wiped in the same round it was
        recorded, so activation could never trigger.  The explicit
        record→decay→evict contract keeps same-round bumps alive."""
        network = _qdi_net(small_corpus, threshold=2,
                          qdi_maintenance_interval=1,
                          qdi_decay=0.1,
                          qdi_eviction_threshold=0.5)
        query = list(small_workload.pool[0])
        origins = network.peer_ids()
        for origin in origins[:4]:
            network.query(origin, query)
        activations = sum(peer.qdi.stats.activations
                          for peer in network.peers())
        assert activations > 0
