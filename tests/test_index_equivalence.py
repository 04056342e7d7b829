"""Differential acceptance gate for the indexing-phase scale-out.

The indexing-phase optimisations carry two equivalence contracts, both
pinned here:

* ``batch_index_lookups`` (same-owner bulk statistics round-trips plus
  the batched frontier walk and its routing cache) may reshape
  ``LookupHop`` traffic — fewer, larger hop messages — but must never
  change the index contents nor any *non-lookup* message;
* the default and the bench configuration (the scale benchmark's
  ``batch_index_lookups``) are pinned to golden constants captured
  while a pre-optimisation twin still built the same index beside
  them: state, HDK statistics, traffic, plus the state and traffic
  after churn hands the bench index's entries between peers.

The differential test builds two networks from identical seeds
differing in exactly one switch and compares ``state_fingerprint`` —
the full per-peer index state digest — plus the relevant traffic
accounting; each golden test builds one network.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import AlvisConfig
from repro.core.fingerprint import state_fingerprint
from repro.core.network import AlvisNetwork
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.net.protocol import LOOKUP_HOP


#: Index-phase traffic except ``LookupHop`` (24 peers, seed 7): equal
#: for every knob setting below.
_INDEX_TRAFFIC = {
    "CollectionGet": 1196.0, "CollectionPublish": 2185.0,
    "CollectionReply": 2208.0, "DfGet": 83585.0, "DfPublish": 141595.0,
    "DfReply": 141595.0, "ExpandNotify": 123761.0,
    "PublishAck": 104650.0, "PublishKey": 1671088.0,
}

#: The index every configuration builds.
_INDEX_STATE = {
    "state": "e9661a3b35d01fc3f17e2804c3a0e1991eed96a9",
    "hdk": {"expand_notifications": 1382,
            "keys_by_size": {1: 7707, 2: 4742, 3: 3155},
            "keys_published": 15604, "publish_messages": 1557,
            "rounds": 3},
    "keys": 5152,
    "storage": "fea3ae0ef8cf49f74a795dbd40248cc622f79d4b",
    "postings": "6b660fa13d9ee80a86a67348ffda0243d1d24969",
    "now": 0.0,
}

GOLDEN = {
    "default": dict(_INDEX_STATE,
                    bytes_by_kind=dict(_INDEX_TRAFFIC,
                                       LookupHop=5816516.0),
                    messages=91560.0),
    "bench": dict(_INDEX_STATE,
                  bytes_by_kind=dict(_INDEX_TRAFFIC, LookupHop=234184.0),
                  messages=7881.0),
}

#: Top-k of 8 queries on the bench-configuration index.
GOLDEN_BENCH_QUERIES = "42f8cdd1b01304de9701e779c1b39b983d6eb9d8"

#: The bench-configuration index after two graceful departures and two
#: churn joins: every moved entry crosses as ``IndexHandover``.
GOLDEN_BENCH_HANDOVER = {
    "state": "cf760d10a4db5642d9a4658a97ec15f82d9582cf",
    "bytes_by_kind": dict(GOLDEN["bench"]["bytes_by_kind"],
                          IndexHandover=200051.0),
    "messages": 7885.0,
    "now": 0.0,
}

#: The scale benchmark's indexing knobs.
_BENCH_KNOBS = {"batch_index_lookups": True}


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=140, vocabulary_size=700, num_topics=6, seed=11))


def _build(corpus, num_peers=24, seed=7, **knobs):
    network = AlvisNetwork(num_peers=num_peers, config=AlvisConfig(**knobs),
                           seed=seed)
    network.distribute_documents(corpus.documents())
    network.run_statistics_phase()
    stats = network.build_index(mode="hdk")
    return network, stats


def _non_lookup_traffic(network):
    return {kind: volume
            for kind, volume in network.bytes_by_kind().items()
            if kind != LOOKUP_HOP}


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


class TestBatchedLookupEquivalence:
    """batch on/off: identical index, identical non-LookupHop traffic."""

    def test_state_identical_lookup_traffic_cheaper(self, corpus):
        batched, batched_stats = _build(corpus, batch_index_lookups=True)
        serial, serial_stats = _build(corpus, batch_index_lookups=False)
        assert state_fingerprint(batched) == state_fingerprint(serial)
        assert _hdk_stats_fingerprint(batched_stats) == \
            _hdk_stats_fingerprint(serial_stats)
        # Batching rides the same hop sequences, so every non-lookup
        # message — the statistics and publish payloads that build the
        # index — is unchanged...
        assert _non_lookup_traffic(batched) == _non_lookup_traffic(serial)
        # ...and the whole point: combined hop messages plus the
        # routing cache spend no more lookup bytes than serial routing.
        assert batched.bytes_by_kind().get(LOOKUP_HOP, 0.0) <= \
            serial.bytes_by_kind().get(LOOKUP_HOP, 0.0)

    def test_per_peer_index_placement_identical(self, corpus):
        batched, _ = _build(corpus, batch_index_lookups=True)
        serial, _ = _build(corpus, batch_index_lookups=False)
        assert batched.per_peer_index_storage() == \
            serial.per_peer_index_storage()
        assert batched.per_peer_postings() == serial.per_peer_postings()


class TestProfileIndexEquivalence:
    """Golden pins: the default and the bench configuration's index."""

    def test_bench_config_state_identical(self, corpus):
        network, stats = _build(corpus, **_BENCH_KNOBS)
        assert _golden_summary(network, stats) == GOLDEN["bench"]

    def test_default_config_traffic_byte_identical(self, corpus):
        network, stats = _build(corpus)
        assert _golden_summary(network, stats) == GOLDEN["default"]

    def test_bench_config_handover_identical(self, corpus):
        network, _ = _build(corpus, **_BENCH_KNOBS)
        for peer_id in sorted(network.peer_ids())[:2]:
            network.faults.graceful_depart(peer_id)
        network.churn().join()
        network.churn().join()
        assert {"state": state_fingerprint(network),
                "bytes_by_kind": network.bytes_by_kind(),
                "messages": network.messages_sent_total(),
                "now": network.simulator.now} == GOLDEN_BENCH_HANDOVER

    def test_queries_identical_after_indexing(self, corpus):
        from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
        workload = QueryWorkload.from_corpus(
            corpus, QueryWorkloadConfig(pool_size=10, seed=13))
        network, _ = _build(corpus, **_BENCH_KNOBS)
        origins = sorted(network.peer_ids())
        records = []
        for index in range(8):
            origin = origins[index % len(origins)]
            results, _ = network.query(origin, list(workload.pool[index]))
            records.append([(doc.doc_id, doc.score) for doc in results])
        assert _digest(records) == GOLDEN_BENCH_QUERIES
