"""Golden pins for the indexing phase (statistics + HDK build).

Each test builds one network from fixed seeds and compares its
``state_fingerprint`` (the full per-peer index state digest), HDK
statistics and traffic; the state and traffic after churn hands entries
between peers; or the top-k of queries against the index.

Every indexing flow resolves a peer's key set in one shared
``lookup_many`` round through the publish-side owner memo
(``AlvisNetwork.publish_owners``); the ``LookupHop`` pins were captured
that way.  The state, the results and every other kind of traffic are
the values the earlier per-key and batched indexing paths both
reproduced.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import AlvisConfig
from repro.core.fingerprint import state_fingerprint
from repro.core.network import AlvisNetwork
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig


#: Index-phase traffic except ``LookupHop`` (24 peers, seed 7).
_INDEX_TRAFFIC = {
    "CollectionGet": 1196.0, "CollectionPublish": 2185.0,
    "CollectionReply": 2208.0, "DfGet": 83585.0, "DfPublish": 141595.0,
    "DfReply": 141595.0, "ExpandNotify": 123761.0,
    "PublishAck": 104650.0, "PublishKey": 1671088.0,
}

GOLDEN = {
    "state": "e9661a3b35d01fc3f17e2804c3a0e1991eed96a9",
    "hdk": {"expand_notifications": 1382,
            "keys_by_size": {1: 7707, 2: 4742, 3: 3155},
            "keys_published": 15604, "publish_messages": 1557,
            "rounds": 3},
    "keys": 5152,
    "storage": "fea3ae0ef8cf49f74a795dbd40248cc622f79d4b",
    "postings": "6b660fa13d9ee80a86a67348ffda0243d1d24969",
    "bytes_by_kind": dict(_INDEX_TRAFFIC, LookupHop=229988.0),
    "messages": 7819.0,
    "now": 0.0,
}

#: Top-k of 8 queries on the index.
GOLDEN_QUERIES = "42f8cdd1b01304de9701e779c1b39b983d6eb9d8"

#: The index after two graceful departures and two churn joins: every
#: moved entry crosses as ``IndexHandover``.
GOLDEN_HANDOVER = {
    "state": "cf760d10a4db5642d9a4658a97ec15f82d9582cf",
    "bytes_by_kind": dict(GOLDEN["bytes_by_kind"], IndexHandover=200051.0),
    "messages": 7823.0,
    "now": 0.0,
}


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=140, vocabulary_size=700, num_topics=6, seed=11))


def _build(corpus, num_peers=24, seed=7):
    network = AlvisNetwork(num_peers=num_peers, config=AlvisConfig(),
                           seed=seed)
    network.distribute_documents(corpus.documents())
    network.run_statistics_phase()
    stats = network.build_index(mode="hdk")
    return network, stats


def _hdk_stats_fingerprint(stats):
    return {name: getattr(stats, name) for name in dir(stats)
            if not name.startswith("_")
            and not callable(getattr(stats, name))}


def _digest(value):
    return hashlib.sha1(repr(value).encode("utf-8")).hexdigest()


def _golden_summary(network, stats):
    return {"state": state_fingerprint(network),
            "hdk": _hdk_stats_fingerprint(stats),
            "keys": network.total_keys(),
            "storage": _digest(network.per_peer_index_storage()),
            "postings": _digest(network.per_peer_postings()),
            "bytes_by_kind": network.bytes_by_kind(),
            "messages": network.messages_sent_total(),
            "now": network.simulator.now}


class TestProfileIndexEquivalence:
    """Golden pins: the index, its handover and queries against it."""

    def test_default_config_traffic_byte_identical(self, corpus):
        network, stats = _build(corpus)
        assert _golden_summary(network, stats) == GOLDEN

    def test_bench_config_handover_identical(self, corpus):
        network, _ = _build(corpus)
        for peer_id in sorted(network.peer_ids())[:2]:
            network.faults.graceful_depart(peer_id)
        network.churn().join()
        network.churn().join()
        assert {"state": state_fingerprint(network),
                "bytes_by_kind": network.bytes_by_kind(),
                "messages": network.messages_sent_total(),
                "now": network.simulator.now} == GOLDEN_HANDOVER

    def test_queries_identical_after_indexing(self, corpus):
        from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
        workload = QueryWorkload.from_corpus(
            corpus, QueryWorkloadConfig(pool_size=10, seed=13))
        network, _ = _build(corpus)
        origins = sorted(network.peer_ids())
        records = []
        for index in range(8):
            origin = origins[index % len(origins)]
            results, _ = network.query(origin, list(workload.pool[index]))
            records.append([(doc.doc_id, doc.score) for doc in results])
        assert _digest(records) == GOLDEN_QUERIES
