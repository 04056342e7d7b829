"""E1 — Figure 1: query-lattice processing.

Reproduces the lattice-exploration behaviour of Figure 1: for queries of
2-4 terms, how many lattice nodes are probed vs. skipped, and how often
each probe outcome (untruncated / truncated / missing) occurs, with and
without the truncated-list pruning approximation.

Paper's expectation: domination pruning keeps the probed count well below
the full lattice (2^q - 1), and the approximation prunes more.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_network, paper_config
from repro.core.lattice import ProbeStatus
from repro.eval.reporting import print_table


def _explore_series(network, workload, queries_per_size=12):
    by_size = {}
    origin = network.peer_ids()[0]
    for query in workload.pool:
        size = len(query)
        bucket = by_size.setdefault(size, {
            "queries": 0, "probed": 0, "skipped": 0, "untruncated": 0,
            "truncated": 0, "missing": 0})
        if bucket["queries"] >= queries_per_size:
            continue
        _results, trace = network.query(origin, list(query))
        bucket["queries"] += 1
        bucket["probed"] += trace.probed_count
        bucket["skipped"] += trace.skipped_count
        for _key, status in trace.probes:
            if status != ProbeStatus.SKIPPED:
                bucket[status.value] += 1
    return by_size


@pytest.mark.parametrize("prune", [True, False],
                         ids=["prune-on-truncated", "no-truncated-prune"])
def test_e1_lattice_exploration(benchmark, capsys, bench_corpus,
                                bench_workload, prune):
    config = paper_config(prune_on_truncated=prune)
    network = make_network(bench_corpus, config=config)
    origin = network.peer_ids()[0]
    query = list(bench_workload.pool[0])

    benchmark(lambda: network.query(origin, query))

    series = _explore_series(network, bench_workload)
    rows = []
    for size in sorted(series):
        bucket = series[size]
        n = bucket["queries"]
        if n == 0:
            continue
        rows.append([
            size, 2 ** size - 1,
            bucket["probed"] / n, bucket["skipped"] / n,
            bucket["untruncated"] / n, bucket["truncated"] / n,
            bucket["missing"] / n,
        ])
    with capsys.disabled():
        print_table(
            f"E1 Figure-1 lattice processing (prune_on_truncated={prune})",
            ["terms", "lattice", "probed", "skipped", "untruncated",
             "truncated", "missing"],
            rows)
