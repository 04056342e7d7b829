"""E5 — QDI adaptivity to the query distribution.

"The processing of new queries triggers the indexing of popular term
combinations, which, in turn, increases the overall retrieval quality.
At the same time, obsolete keys can be removed, resulting in an efficient
indexing structure adaptive to the current query popularity distribution"
(Section 2).

Series reproduced: over a Zipfian query stream, per-window (a) hit rate
of the full-query key, (b) probes per query, (c) on-demand keys indexed
and evicted.  Then a drift phase showing the index following the new
distribution.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SEED, make_network, paper_config
from repro.core.lattice import ProbeStatus
from repro.eval.reporting import print_table
from repro.util.rng import make_rng

_WINDOW = 50


def _run_stream(network, workload, num_queries, drift=0, rng_label="s"):
    rng = make_rng(BENCH_SEED, "e5", rng_label)
    origins = network.peer_ids()
    windows = []
    hits = probes = 0
    for index in range(num_queries):
        query = workload.sample(rng, drift=drift)
        _results, trace = network.query(origins[index % len(origins)],
                                        list(query))
        statuses = dict(trace.probes)
        full = trace.query
        if statuses.get(full) in (ProbeStatus.UNTRUNCATED,
                                  ProbeStatus.TRUNCATED):
            hits += 1
        probes += trace.probed_count
        if (index + 1) % _WINDOW == 0:
            on_demand = sum(1 for peer in network.peers()
                            for entry in peer.fragment
                            if entry.on_demand and entry.postings)
            windows.append([index + 1, hits / _WINDOW,
                            probes / _WINDOW, on_demand])
            hits = probes = 0
    return windows


@pytest.fixture(scope="module")
def e5_network(bench_corpus):
    config = paper_config(qdi_activation_threshold=2,
                         qdi_maintenance_interval=40,
                         qdi_decay=0.5, qdi_eviction_threshold=0.25)
    return make_network(bench_corpus, mode="qdi", config=config)


def test_e5_qdi_warmup_and_drift(benchmark, capsys, e5_network,
                                 bench_workload):
    # Warm-up phase: stationary popular queries.
    warmup = _run_stream(e5_network, bench_workload, 200,
                         rng_label="warm")
    # Drift phase: popularity ranking rotated by 20.
    drifted = _run_stream(e5_network, bench_workload, 200, drift=20,
                          rng_label="drift")
    origin = e5_network.peer_ids()[0]
    popular = list(bench_workload.most_popular(1)[0])
    benchmark(lambda: e5_network.query(origin, popular))

    evictions = sum(peer.qdi.stats.evictions
                    for peer in e5_network.peers())
    activations = sum(peer.qdi.stats.activations
                      for peer in e5_network.peers())
    with capsys.disabled():
        print_table(
            "E5a QDI warm-up (stationary Zipf stream)",
            ["queries", "full-key hit rate", "probes/query",
             "on-demand keys"],
            warmup)
        print_table(
            "E5b QDI after popularity drift (+20 ranks)",
            ["queries", "full-key hit rate", "probes/query",
             "on-demand keys"],
            drifted)
        print(f"total activations={activations}, evictions={evictions}")

    # Shape: hit rate climbs during warm-up and recovers after drift;
    # eviction fired.
    assert warmup[-1][1] > warmup[0][1]
    assert drifted[-1][1] >= drifted[0][1] - 0.1
    assert activations > 0
    assert evictions > 0


def test_e5_probe_cost_drops_after_warmup(e5_network, bench_workload):
    """Once a popular query's key is indexed, the lattice collapses to
    (close to) a single probe."""
    origin = e5_network.peer_ids()[0]
    popular = list(bench_workload.most_popular(3)[0])
    _results, trace = e5_network.query(origin, popular)
    full_lattice = 2 ** len(trace.query) - 1
    assert trace.probed_count < full_lattice
