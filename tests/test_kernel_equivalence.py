"""Golden pins for the scale-out event kernel and ring.

The packed ``Event``/``EventQueue`` kernel, closed-form greedy routing
over the sorted membership, the hop fast path and the vectorized
owner-side BM25 are *accelerations*: at seed sizes they must reproduce
the pre-optimisation kernel byte for byte — same results, same scores,
same per-kind traffic, same traces, same virtual clock.  The constants
below were captured while a pre-optimisation twin still ran beside the
optimised network (the power-of-two churn pins: on per-node finger
tables) and agreed with it on every one of them; each case now builds
one network and asserts them.  They hold with and without
``REPRO_PURE_PYTHON=1``.

``LookupHop`` bytes and messages (and the totals and trace digests that
include them) were re-pinned once, on purpose, when every lookup became
a ``lookup_many`` round: indexing resolves each key set in one shared
round through the publish-side owner memo, and a one-key hop carries a
one-element ``key_ids`` (73 B instead of 68 B).  States, results and
every other kind of traffic stayed identical.

The per-probe pins (``sync_queries``, ``churn_queries`` and the
power-of-two ``default`` leg, all on ``batch_lookups=False``) were
captured on the synchronous per-probe engine and re-pinned once, on
purpose, when every query moved onto the event-kernel engine: a query
now takes virtual time, so ``now`` moved from 0.0; states, traffic,
message counts and trace digests stayed identical.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import AlvisConfig
from repro.core.fingerprint import state_fingerprint
from repro.core.network import AlvisNetwork
from repro.core.workload import PoissonArrivals, Workload
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig

#: Index-phase traffic of the default-config build (10 peers, seed 2).
_BUILD_TRAFFIC = {
    "CollectionGet": 468.0, "CollectionPublish": 855.0,
    "CollectionReply": 864.0, "DfGet": 36063.0, "DfPublish": 71971.0,
    "DfReply": 71971.0, "ExpandNotify": 48846.0,
    "PublishAck": 18620.0, "PublishKey": 1260708.0,
}

GOLDEN = {
    "index_build": {
        "state": "17b09cb7e3a5d7c8687e0ccc90aa471a441c8bd5",
        "bytes_by_kind": dict(_BUILD_TRAFFIC, LookupHop=103266.0),
        "messages": 1733.0,
        "now": 0.0,
    },
    "sync_queries": {
        "state": "17b09cb7e3a5d7c8687e0ccc90aa471a441c8bd5",
        "bytes_by_kind": dict(_BUILD_TRAFFIC, LookupHop=112391.0,
                              ProbeKey=4071.0, ProbeReply=8772.0),
        "messages": 1962.0,
        "now": 2.580000000000002,
        "records": "e55ca2a642613f159b4c85dcfc5214083490f739",
    },
    "async_jobs": {
        "state": "17b09cb7e3a5d7c8687e0ccc90aa471a441c8bd5",
        "bytes_by_kind": dict(_BUILD_TRAFFIC, LookupHop=108650.0,
                              ProbeBatch=2630.0, ProbeBatchReply=6815.0),
        "messages": 1871.0,
        "now": 0.3226087798040933,
        "records": "e50d160613d921a05079ca312ccb43372004e60f",
    },
    "churn_queries": {
        "state": "8d28fb22ee5cb34523d30a5a3dcfa6d96c37dd60",
        "bytes_by_kind": {
            "CollectionGet": 572.0, "CollectionPublish": 1045.0,
            "CollectionReply": 1056.0, "DfGet": 42181.0,
            "DfPublish": 82229.0, "DfReply": 82229.0,
            "ExpandNotify": 55233.0, "IndexHandover": 367867.0,
            "LookupHop": 121713.0, "ProbeKey": 2244.0,
            "ProbeReply": 5563.0, "PublishAck": 26810.0,
            "PublishKey": 1266081.0,
        },
        "messages": 2465.0,
        "now": 1.700000000000001,
        "records": "2fd72c8132532b245c4e55812b3b6681dd9768c9",
        "peers": "9a0044d22c71f4a2fc21d61f56f3df1b1c1b6dee",
    },
}

#: Index-phase plus handover traffic of the 30-peer power-of-two churn
#: run; identical in both configs (only lookups and probes differ).
_POW2_TRAFFIC = {
    "CollectionGet": 1508.0, "CollectionPublish": 2755.0,
    "CollectionReply": 2784.0, "DfGet": 100661.0, "DfPublish": 158741.0,
    "DfReply": 158741.0, "ExpandNotify": 77531.0,
    "IndexHandover": 173964.0, "PublishAck": 137620.0,
    "PublishKey": 1250910.0,
}

#: 30 peers, 4 joins across n = 32 then 4 leaves, 2 queries per step:
#: the hop-space offset set changes exactly at powers of two, where a
#: rank off-by-one in routing would show.  Both configs index through
#: ``lookup_many`` and route their queries through ``lookup_many_async``
#: (``default``, per-probe: one-key rounds).
GOLDEN_POW2_CHURN = {
    "default": {
        "state": "3c50c61cdc930cf9472889d3029bbd9944aa6600",
        "bytes_by_kind": dict(_POW2_TRAFFIC, LookupHop=243521.0,
                              ProbeKey=5532.0, ProbeReply=13009.0),
        "messages": 10002.0,
        "now": 4.219999999999998,
        "records": "3af44721f8d85b46d3549272dae86384514ccfbe",
        "sizes": [31, 32, 33, 34, 33, 32, 31, 30],
    },
    "batched": {
        "state": "3c50c61cdc930cf9472889d3029bbd9944aa6600",
        "bytes_by_kind": dict(_POW2_TRAFFIC, LookupHop=242546.0,
                              ProbeBatch=5337.0, ProbeBatchReply=14086.0),
        "messages": 9983.0,
        "now": 4.219999999999998,
        "records": "c86f696e67945f515dbdc04ff682792ef3f8ef5d",
        "sizes": [31, 32, 33, 34, 33, 32, 31, 30],
    },
}

_PER_PROBE = AlvisConfig(batch_lookups=False)

_POW2_CONFIGS = {
    "default": _PER_PROBE,
    "batched": AlvisConfig(),
}


def _build_network(corpus, config=None, num_peers=10, seed=2, mode="hdk"):
    network = AlvisNetwork(num_peers=num_peers,
                           config=config or AlvisConfig(), seed=seed)
    network.distribute_documents(corpus.documents())
    network.build_index(mode=mode)
    return network


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=120, vocabulary_size=800, num_topics=6, seed=3))


@pytest.fixture(scope="module")
def workload(corpus):
    from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
    return QueryWorkload.from_corpus(
        corpus, QueryWorkloadConfig(pool_size=30, seed=5))


def _trace_fingerprint(trace):
    return {
        "query": trace.query,
        "bytes_sent": trace.bytes_sent,
        "bytes_by_kind": dict(trace.bytes_by_kind),
        "lookup_hops": trace.lookup_hops,
        "probes": sorted((key.terms, status.name)
                         for key, status in trace.probes),
        "results": [(doc.doc_id, doc.score) for doc in trace.results],
    }


def _digest(value):
    return hashlib.sha1(repr(value).encode("utf-8")).hexdigest()


def _record(results, trace):
    return ([(doc.doc_id, doc.score) for doc in results],
            _trace_fingerprint(trace))


def _summary(network, **extra):
    return dict(state=state_fingerprint(network),
                bytes_by_kind=network.bytes_by_kind(),
                messages=network.messages_sent_total(),
                now=network.simulator.now, **extra)


def _sync_queries(network, workload, origins, count):
    records = []
    for index in range(count):
        origin = origins[index % len(origins)]
        records.append(_record(*network.query(origin,
                                              list(workload.pool[index]))))
    return records


class TestKernelProfileEquivalence:
    """Golden pins: index build, per-probe and open-workload queries,
    churn."""

    def test_index_build_identical(self, corpus):
        network = _build_network(corpus)
        assert _summary(network) == GOLDEN["index_build"]

    def test_query_traces_identical(self, corpus, workload):
        network = _build_network(corpus, config=_PER_PROBE)
        records = _sync_queries(network, workload, network.peer_ids(), 12)
        assert _summary(network, records=_digest(records)) == \
            GOLDEN["sync_queries"]

    def test_async_runtime_jobs_identical(self, corpus, workload):
        network = _build_network(corpus)
        jobs = network.run_workload(Workload(
            [list(workload.pool[index]) for index in range(10)],
            PoissonArrivals(200.0)))
        records = [_record(job.results, job.trace) for job in jobs]
        assert _summary(network, records=_digest(records)) == \
            GOLDEN["async_jobs"]

    def test_churn_then_queries_identical(self, corpus, workload):
        network = _build_network(corpus, config=_PER_PROBE, num_peers=12)
        network.churn().run_session(joins=4, leaves=4)
        origins = sorted(network.peer_ids())
        records = _sync_queries(network, workload, origins, 8)
        assert _summary(network, records=_digest(records),
                        peers=_digest(origins)) == GOLDEN["churn_queries"]

    @pytest.mark.parametrize("label", sorted(_POW2_CONFIGS))
    def test_power_of_two_churn_identical(self, corpus, workload, label):
        network = _build_network(corpus, config=_POW2_CONFIGS[label],
                                 num_peers=30)
        churn = network.churn()
        records, sizes = [], []
        for step in ["join"] * 4 + ["leave"] * 4:
            getattr(churn, step)()
            sizes.append(network.num_peers)
            peers = network.peer_ids()
            for _ in range(2):
                index = len(records)
                records.append(_record(*network.query(
                    peers[(index * 7) % len(peers)],
                    list(workload.pool[index]))))
        assert _summary(network, records=_digest(records),
                        sizes=sizes) == GOLDEN_POW2_CHURN[label]
