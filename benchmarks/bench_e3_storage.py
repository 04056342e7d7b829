"""E3 — storage scalability of the HDK key vocabulary.

"The number of indexing term combinations remains scalable" (Section 1);
the HDK paper shows the key count grows about linearly with collection
size and is controlled by DF_max and s_max.

Series reproduced: total keys, keys by size, postings stored and bytes
per peer, as functions of (a) collection size and (b) DF_max.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SEED, make_network, paper_config
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.eval.reporting import print_table
from repro.eval.storage import storage_report


def _corpus(num_docs):
    return SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=num_docs, vocabulary_size=1200, num_topics=8,
        seed=BENCH_SEED))


@pytest.fixture(scope="module")
def e3_scale_rows():
    rows = []
    for num_docs in (60, 120, 240):
        network = make_network(_corpus(num_docs), num_peers=12)
        report = storage_report(network)
        rows.append([
            num_docs, report.total_keys,
            report.keys_by_size.get(1, 0),
            report.keys_by_size.get(2, 0),
            report.keys_by_size.get(3, 0),
            report.total_postings,
            report.total_bytes / network.num_peers,
        ])
    return rows


@pytest.fixture(scope="module")
def e3_dfmax_rows():
    corpus = _corpus(160)
    rows = []
    for df_max in (20, 40, 80):
        config = paper_config(df_max=df_max)
        network = make_network(corpus, num_peers=12, config=config)
        report = storage_report(network)
        multi = sum(count for size, count in report.keys_by_size.items()
                    if size > 1)
        rows.append([df_max, report.total_keys, multi,
                     report.total_postings, report.summary()["gini"]])
    return rows


def test_e3_storage_vs_collection_size(benchmark, capsys, e3_scale_rows):
    corpus = _corpus(60)
    benchmark.pedantic(
        lambda: make_network(corpus, num_peers=12),
        rounds=1, iterations=1)
    with capsys.disabled():
        print_table(
            "E3a HDK index storage vs collection size",
            ["docs", "keys", "1-term", "2-term", "3-term", "postings",
             "bytes/peer"],
            e3_scale_rows)


def test_e3_storage_vs_dfmax(capsys, e3_dfmax_rows, benchmark,
                             bench_hdk_network):
    benchmark(lambda: storage_report(bench_hdk_network))
    with capsys.disabled():
        print_table(
            "E3b HDK index vs DF_max (160 docs)",
            ["DF_max", "keys", "multi-term keys", "postings",
             "storage gini"],
            e3_dfmax_rows)


def test_e3_shape_holds(e3_scale_rows, e3_dfmax_rows):
    # Keys grow with the collection, but sub-quadratically.
    keys_small = e3_scale_rows[0][1]
    keys_large = e3_scale_rows[-1][1]
    docs_ratio = e3_scale_rows[-1][0] / e3_scale_rows[0][0]
    assert keys_large > keys_small
    assert keys_large / keys_small < docs_ratio ** 2
    # Smaller DF_max -> more expansions -> more multi-term keys.
    assert e3_dfmax_rows[0][2] >= e3_dfmax_rows[-1][2]
