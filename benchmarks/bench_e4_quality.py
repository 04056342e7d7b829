"""E4 — retrieval quality vs. a centralized engine.

"The retrieval quality remains comparable to state-of-the-art centralized
search engines" (Section 1).

Series reproduced: overlap@10 with the centralized conjunctive BM25
reference as a function of the truncation bound k, for HDK; plus the
two-step refinement's effect.  Expected shape: overlap close to 1.0,
monotone-ish in k, refinement never hurting.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_network, paper_config
from repro.baselines.centralized import CentralizedEngine
from repro.eval.quality import overlap_at_k
from repro.eval.reporting import print_table


def _reference_for(network):
    documents = []
    for peer in network.peers():
        documents.extend(peer.engine.store)
    return CentralizedEngine(documents, analyzer=network.analyzer)


def _mean_overlap(network, reference, workload, refine=False,
                  queries=25):
    origin = network.peer_ids()[0]
    overlaps = []
    for query in workload.pool[:queries]:
        truth = reference.conjunctive_doc_ids(list(query), k=10)
        if not truth:
            continue
        results, _trace = network.query(origin, list(query),
                                        refine=refine)
        overlaps.append(overlap_at_k([doc.doc_id for doc in results],
                                     truth, 10))
    return sum(overlaps) / len(overlaps)


@pytest.fixture(scope="module")
def e4_rows(bench_corpus, bench_workload):
    rows = []
    for k in (5, 10, 20, 40):
        network = make_network(bench_corpus,
                               config=paper_config(truncation_k=k))
        reference = _reference_for(network)
        plain = _mean_overlap(network, reference, bench_workload)
        refined = _mean_overlap(network, reference, bench_workload,
                                refine=True)
        rows.append([k, plain, refined])
    return rows


def test_e4_quality_vs_truncation(benchmark, capsys, e4_rows,
                                  bench_hdk_network, bench_workload):
    reference = _reference_for(bench_hdk_network)
    query = list(bench_workload.pool[0])
    benchmark(lambda: reference.conjunctive_doc_ids(query, k=10))
    with capsys.disabled():
        print_table(
            "E4 overlap@10 vs centralized conjunctive BM25",
            ["truncation k", "HDK", "HDK + refinement"],
            e4_rows)


def test_e4_shape_holds(e4_rows):
    # The sweep's shape: overlap monotone in the truncation bound,
    # "comparable to centralized" (>= 0.9) once k exceeds the result
    # cutoff, and refinement never hurting.
    overlaps = [plain for _k, plain, _refined in e4_rows]
    assert overlaps == sorted(overlaps)
    for _k, plain, refined in e4_rows:
        assert refined >= plain - 1e-9
    assert e4_rows[-1][1] >= 0.9
    assert e4_rows[-1][2] >= 0.95
