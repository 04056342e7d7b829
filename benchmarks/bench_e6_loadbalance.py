"""E6 — storage and message load balance across peers.

Section 1 demands "load balancing"; Section 2 notes the truncated-list
pruning approximation "improve[s] load balancing with an only marginal
loss in retrieval precision".

Series reproduced: per-peer index storage distribution (Gini, max/mean)
and per-peer retrieval message load over a query batch, with the pruning
approximation on vs. off.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_network, paper_config
from repro.eval.loadbalance import load_balance_report
from repro.eval.reporting import print_table


def _run_load(network, workload, queries=60):
    network.transport.reset_load_counters()
    origins = network.peer_ids()
    for index, query in enumerate(workload.pool[:queries]):
        network.query(origins[index % len(origins)], list(query))
    return network.per_peer_messages_in()


@pytest.fixture(scope="module")
def e6_data(bench_corpus, bench_workload):
    data = {}
    for prune in (True, False):
        config = paper_config(prune_on_truncated=prune)
        network = make_network(bench_corpus, config=config)
        storage = load_balance_report(
            list(network.per_peer_index_storage().values()))
        messages = load_balance_report(
            list(_run_load(network, bench_workload).values()))
        data[prune] = (storage, messages)
    return data


def test_e6_load_balance(benchmark, capsys, e6_data, bench_hdk_network):
    benchmark(lambda: load_balance_report(
        list(bench_hdk_network.per_peer_index_storage().values())))
    rows = []
    for prune, (storage, messages) in e6_data.items():
        rows.append([f"prune={prune}", "storage bytes",
                     storage["mean"], storage["gini"],
                     storage["max_over_mean"]])
        rows.append([f"prune={prune}", "retrieval msgs",
                     messages["mean"], messages["gini"],
                     messages["max_over_mean"]])
    with capsys.disabled():
        print_table(
            "E6 per-peer load distribution (16 peers, 60 queries)",
            ["variant", "load", "mean", "gini", "max/mean"],
            rows)


@pytest.fixture(scope="module")
def e6_virtual_rows(bench_corpus):
    rows = []
    for virtual in (1, 4, 8):
        network = make_network(bench_corpus, virtual_nodes=virtual)
        report = load_balance_report(
            list(network.per_peer_index_storage().values()))
        rows.append([virtual, report["gini"],
                     report["max_over_mean"]])
    return rows


def test_e6_virtual_nodes(benchmark, capsys, e6_virtual_rows,
                          bench_hdk_network):
    benchmark(lambda: bench_hdk_network.per_peer_index_storage())
    with capsys.disabled():
        print_table(
            "E6b storage balance vs virtual nodes per peer",
            ["virtual nodes", "storage gini", "max/mean"],
            e6_virtual_rows)


def test_e6_virtual_shape_holds(e6_virtual_rows):
    # More ring positions per peer -> monotonically better (or equal)
    # storage balance.
    ginis = [row[1] for row in e6_virtual_rows]
    assert ginis[-1] < ginis[0]


def test_e6_shape_holds(e6_data):
    for _prune, (storage, messages) in e6_data.items():
        # No pathological hot spot: bounded inequality.
        assert storage["gini"] < 0.8
        assert messages["gini"] < 0.8
    # Pruning must not *worsen* message balance beyond noise.
    pruned_msgs = e6_data[True][1]["gini"]
    unpruned_msgs = e6_data[False][1]["gini"]
    assert pruned_msgs <= unpruned_msgs + 0.1
