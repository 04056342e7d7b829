"""E12 (extension) — micro-ablations of the retrieval-path knobs.

Two knobs DESIGN.md calls out but no single paper figure owns:

* **lookup caching** — repeated queries skip the O(log n) DHT lookups;
* **rare-combination filter** (``expansion_min_df``) — the HDK pruning
  rule that keeps the 3-term key vocabulary from exploding.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SEED, make_network, paper_config
from repro.eval.reporting import print_table
from repro.eval.storage import storage_report


@pytest.fixture(scope="module")
def e12_cache_rows(bench_corpus, bench_workload):
    rows = []
    for cached in (False, True):
        network = make_network(
            bench_corpus, config=paper_config(cache_lookups=cached))
        origin = network.peer_ids()[0]
        query = list(bench_workload.pool[0])
        network.query(origin, query)         # warm the cache
        _r, trace = network.query(origin, query)
        rows.append([f"cache={cached}", trace.lookup_hops,
                     trace.bytes_sent, trace.request_messages])
    return rows


@pytest.fixture(scope="module")
def e12_min_df_rows(bench_corpus):
    rows = []
    for min_df in (1, 2, 4):
        network = make_network(
            bench_corpus, num_peers=12,
            config=paper_config(expansion_min_df=min_df))
        report = storage_report(network)
        multi = sum(count for size, count in report.keys_by_size.items()
                    if size > 1)
        rows.append([min_df, report.total_keys, multi,
                     report.total_postings])
    return rows


def test_e12_ablations(benchmark, capsys, e12_cache_rows,
                       e12_min_df_rows, bench_hdk_network, bench_workload):
    origin = bench_hdk_network.peer_ids()[0]
    query = list(bench_workload.pool[2])
    benchmark(lambda: bench_hdk_network.query(origin, query))
    with capsys.disabled():
        print_table("E12a lookup caching (repeat query)",
                    ["variant", "hops", "bytes", "messages"],
                    e12_cache_rows)
        print_table("E12c rare-combination filter (expansion_min_df)",
                    ["min_df", "keys", "multi-term keys", "postings"],
                    e12_min_df_rows)


def test_e12_shape_holds(e12_cache_rows, e12_min_df_rows):
    # Caching removes repeat-lookup hops without changing the protocol
    # messages.
    uncached, cached = e12_cache_rows
    assert cached[1] == 0
    assert uncached[1] > 0
    assert cached[3] == uncached[3]
    # Stricter min_df -> monotonically fewer multi-term keys.
    multi_counts = [row[2] for row in e12_min_df_rows]
    assert multi_counts == sorted(multi_counts, reverse=True)
