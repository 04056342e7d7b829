"""E9 — Figures 2-3: the layered architecture's two-step retrieval.

Section 3: the answer is "either produced exclusively using the
information available in the distributed index... [with] good response
times" or "refined in a second step during which the query is forwarded
to the local search engines associated with the peers holding the
documents found in the first step; in this case the retrieval might be
slower (as it requires several interactions), but can benefit from the
advanced features made available by the local engines."

Series reproduced: latency, messages and bytes per query for
step-1-only vs. two-step retrieval, plus the quality delta refinement
buys.  Expected shape: refinement costs extra round-trips and bytes, is
never worse in quality.
"""

from __future__ import annotations

import pytest

from repro.baselines.centralized import CentralizedEngine
from repro.eval.quality import overlap_at_k
from repro.eval.reporting import print_table


def _reference_for(network):
    documents = []
    for peer in network.peers():
        documents.extend(peer.engine.store)
    return CentralizedEngine(documents, analyzer=network.analyzer)


@pytest.fixture(scope="module")
def e9_data(bench_hdk_network, bench_workload):
    network = bench_hdk_network
    reference = _reference_for(network)
    origin = network.peer_ids()[0]
    totals = {False: [0.0, 0, 0, []], True: [0.0, 0, 0, []]}
    queries = 0
    for query in bench_workload.pool[:25]:
        truth = reference.conjunctive_doc_ids(list(query), k=10)
        if not truth:
            continue
        queries += 1
        for refine in (False, True):
            results, trace = network.query(origin, list(query),
                                           refine=refine)
            totals[refine][0] += trace.latency
            totals[refine][1] += trace.request_messages
            totals[refine][2] += trace.bytes_sent
            totals[refine][3].append(overlap_at_k(
                [doc.doc_id for doc in results], truth, 10))
    rows = []
    for refine in (False, True):
        latency, messages, bytes_sent, overlaps = totals[refine]
        rows.append([
            "two-step" if refine else "step 1 only",
            latency / queries, messages / queries, bytes_sent / queries,
            sum(overlaps) / len(overlaps)])
    return rows


def test_e9_two_step_retrieval(benchmark, capsys, e9_data,
                               bench_hdk_network, bench_workload):
    origin = bench_hdk_network.peer_ids()[0]
    query = list(bench_workload.pool[0])
    benchmark(lambda: bench_hdk_network.query(origin, query,
                                              refine=True))
    with capsys.disabled():
        print_table(
            "E9 step-1-only vs two-step retrieval (per query)",
            ["mode", "latency (s)", "messages", "bytes",
             "overlap@10"],
            e9_data)


def test_e9_shape_holds(e9_data):
    step1, two_step = e9_data
    assert two_step[1] > step1[1]          # refinement is slower
    assert two_step[2] > step1[2]          # more interactions
    assert two_step[3] > step1[3]          # more bytes
    assert two_step[4] >= step1[4] - 1e-9  # never worse quality
