"""E2 — the headline claim: retrieval bandwidth scalability.

"Distributed algorithms using traditional single-term indexes in
structured P2P networks generate unscalable network traffic during
retrieval [11]... the transmitted posting lists never exceed a constant
size" (Sections 1-2).

Series reproduced: bytes per multi-keyword query as the collection grows,
for (a) the single-term full-list baseline with its fetch-all, pipelined
and Bloom-filter intersections, and (b) AlvisP2P with HDK.  The baseline
is the same network: an ``AlvisNetwork`` whose ``truncation_k`` covers
the whole collection, built with ``build_index("single")`` and queried
through :func:`repro.baselines.single_term.single_term_query`.  Expected
shape: baseline bytes grow roughly linearly with the collection; HDK
bytes stay near-constant.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SEED, make_network
from repro.baselines.single_term import single_term_query
from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.eval.reporting import print_table
from repro.ir.analysis import Analyzer
from repro.util.stats import summarize

_SCALES = (120, 240, 480)
_NUM_PEERS = 12
_QUERIES = 15


def _frequent_queries(corpus, count=_QUERIES, size=2):
    """Multi-keyword queries over globally *frequent* terms — the regime
    where single-term intersection traffic explodes."""
    analyzer = Analyzer()
    counts = {}
    cooccur = {}
    for index in range(corpus.num_documents):
        terms = set(analyzer.analyze(
            " ".join(corpus.document_terms(index))))
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
    ranked = sorted(counts, key=counts.get, reverse=True)[:30]
    queries = []
    for i, a in enumerate(ranked):
        for b in ranked[i + 1:]:
            queries.append([a, b])
            if len(queries) >= count:
                return queries
    return queries


def _corpus(num_docs):
    return SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=num_docs, vocabulary_size=1200, num_topics=8,
        seed=BENCH_SEED))


def _baseline_network(corpus):
    """The untruncated single-term index over ``corpus``."""
    network = AlvisNetwork(
        num_peers=_NUM_PEERS, seed=BENCH_SEED,
        config=AlvisConfig(truncation_k=corpus.num_documents))
    network.distribute_documents(corpus.documents())
    network.build_index(mode="single")
    return network


def _baseline_run(network, queries, mode):
    """``(bytes summary, top-k per query)`` of one intersection mode."""
    samples = []
    results = []
    for index, query in enumerate(queries):
        origin = network.peer_ids()[index % _NUM_PEERS]
        trace = single_term_query(network, origin, query, mode=mode)
        samples.append(trace.bytes_sent)
        results.append(trace.results)
    return summarize(samples), results


def _alvis_bytes(corpus, queries):
    network = make_network(corpus, num_peers=_NUM_PEERS, mode="hdk")
    samples = []
    for index, query in enumerate(queries):
        origin = network.peer_ids()[index % _NUM_PEERS]
        _results, trace = network.query(origin, query)
        samples.append(trace.bytes_sent)
    return summarize(samples)


@pytest.fixture(scope="module")
def e2_runs():
    """Per scale: ``{mode: (bytes summary, top-k per query)}`` for the
    three baseline modes, plus HDK's bytes summary under ``"hdk"``."""
    runs = {}
    for num_docs in _SCALES:
        corpus = _corpus(num_docs)
        queries = _frequent_queries(corpus)
        baseline = _baseline_network(corpus)
        runs[num_docs] = {mode: _baseline_run(baseline, queries, mode)
                          for mode in ("fetch_all", "pipelined", "bloom")}
        runs[num_docs]["hdk"] = (_alvis_bytes(corpus, queries), None)
    return runs


@pytest.fixture(scope="module")
def e2_series(e2_runs):
    rows = []
    for num_docs, run in e2_runs.items():
        fetch_all, pipelined, bloom, hdk = (
            run[mode][0]["mean"]
            for mode in ("fetch_all", "pipelined", "bloom", "hdk"))
        rows.append([num_docs, fetch_all, pipelined, bloom, hdk,
                     fetch_all / max(1.0, hdk)])
    return rows


def test_e2_bandwidth_vs_collection_size(benchmark, capsys, e2_series,
                                         bench_corpus, bench_workload,
                                         bench_hdk_network):
    origin = bench_hdk_network.peer_ids()[0]
    query = list(bench_workload.pool[0])
    benchmark(lambda: bench_hdk_network.query(origin, query))

    with capsys.disabled():
        print_table(
            "E2 bytes/query vs collection size (frequent 2-term queries)",
            ["docs", "single-term fetch-all", "single-term pipelined",
             "single-term bloom", "alvis HDK", "baseline/HDK ratio"],
            e2_series)
        first, last = e2_series[0], e2_series[-1]
        growth_baseline = last[1] / first[1]
        growth_hdk = last[4] / max(1.0, first[4])
        print(f"growth x{_SCALES[-1] // _SCALES[0]} docs: "
              f"baseline {growth_baseline:.2f}x, HDK {growth_hdk:.2f}x")


def test_e2_shape_holds(e2_series):
    """The reproduction's acceptance check: every baseline variant grows
    with the collection (Bloom included — Zhang & Suel's constant-factor
    result), HDK stays bounded and wins at every scale."""
    first, last = e2_series[0], e2_series[-1]
    assert last[1] / first[1] > 1.8            # fetch-all grows
    assert last[3] / first[3] > 1.5            # bloom grows too
    assert last[4] / max(1.0, first[4]) < 1.6  # HDK near-constant
    for row in e2_series:
        assert row[1] > row[4]                 # fetch-all loses
        assert row[3] > row[4]                 # bloom loses too


def test_e2_modes_agree(e2_runs):
    """The three intersection strategies are three costs of one answer:
    every query's top-k, scores included, is identical across them."""
    for run in e2_runs.values():
        assert any(run["fetch_all"][1])
        assert run["pipelined"][1] == run["fetch_all"][1]
        assert run["bloom"][1] == run["fetch_all"][1]
