"""E13 (extension) — the batched + cached query execution engine.

Measures what the engine buys on a Zipf-skewed query workload (the
distribution real query logs follow, which is also what QDI's companion
evaluation assumes): per-query network messages and bytes with frontier
batching + probe caching + top-k early termination, against the paper's
per-probe path — with the requirement that the returned top-k documents
are identical.

Acceptance targets (a ``BENCH_FULL=1`` run records them in
``BENCH_query_engine.json``; smoke runs write nothing):

* >= 30% fewer per-query network messages (batched lookups + cache),
* probe-cache hit rate > 50% under the Zipf workload,
* identical top-k result sets on every query.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (BENCH_SEED, make_network, paper_config,
                                 write_bench_artifact)
from repro.core.config import AlvisConfig
from repro.eval.reporting import print_table
from repro.util.rng import make_rng
from repro.util.zipf import ZipfSampler

#: Engine configuration under test.
ENGINE_OVERRIDES = dict(batch_lookups=True, cache_bytes=64 * 1024,
                        topk_early_stop=True)


@pytest.fixture(scope="module")
def e13_queries(bench_workload, bench_smoke):
    """A Zipf-skewed stream of query-pool indices (rank 0 hottest)."""
    draws = 120 if bench_smoke else 600
    sampler = ZipfSampler(len(bench_workload.pool), exponent=1.1)
    rng = make_rng(BENCH_SEED, "e13-zipf")
    return [bench_workload.pool[rank]
            for rank in sampler.sample_many(rng, draws)]


@pytest.fixture(scope="module")
def e13_networks(bench_corpus):
    """One network per configuration, shared by stream run + timing."""
    return {label: make_network(bench_corpus, config=config)
            for label, config in (("seed", paper_config()),
                                  ("engine",
                                   AlvisConfig(**ENGINE_OVERRIDES)))}


@pytest.fixture(scope="module")
def e13_runs(e13_networks, e13_queries):
    """Run the identical query stream through both configurations."""
    runs = {}
    for label, network in e13_networks.items():
        origin = network.peer_ids()[0]
        messages = bytes_sent = hits = misses = pruned = 0.0
        top_k = []
        started = time.perf_counter()
        for query in e13_queries:
            msgs_before = network.messages_sent_total()
            results, trace = network.query(origin, list(query))
            messages += network.messages_sent_total() - msgs_before
            bytes_sent += trace.bytes_sent
            hits += trace.cache_hits
            misses += trace.cache_misses
            pruned += trace.pruned_count
            top_k.append([doc.doc_id for doc in results])
        elapsed = time.perf_counter() - started
        count = float(len(e13_queries))
        runs[label] = {
            "queries": int(count),
            "messages_per_query": messages / count,
            "bytes_per_query": bytes_sent / count,
            "wallclock_s": elapsed,
            "wallclock_per_query_ms": 1000.0 * elapsed / count,
            "cache_hit_rate": (hits / (hits + misses)
                               if hits + misses else 0.0),
            "pruned_per_query": pruned / count,
            "top_k": top_k,
        }
    return runs


def test_e13_query_engine(benchmark, capsys, e13_runs, e13_networks,
                          bench_workload):
    engine_network = e13_networks["engine"]
    origin = engine_network.peer_ids()[0]
    query = list(bench_workload.pool[0])
    engine_network.query(origin, query)          # warm the cache
    benchmark(lambda: engine_network.query(origin, query))
    seed, engine = e13_runs["seed"], e13_runs["engine"]
    reduction = 1.0 - engine["messages_per_query"] / seed[
        "messages_per_query"]
    speedup = seed["wallclock_s"] / max(engine["wallclock_s"], 1e-9)
    with capsys.disabled():
        print_table(
            "E13 batched+cached query engine (Zipf workload)",
            ["variant", "msgs/query", "bytes/query", "ms/query",
             "hit rate", "pruned/query"],
            [[label,
              round(run["messages_per_query"], 2),
              round(run["bytes_per_query"], 1),
              round(run["wallclock_per_query_ms"], 3),
              round(run["cache_hit_rate"], 3),
              round(run["pruned_per_query"], 2)]
             for label, run in e13_runs.items()])
        print(f"message reduction: {reduction:.1%}   "
              f"wall-clock speedup: {speedup:.2f}x")
    write_bench_artifact("query_engine", {
        "seed": {name: value for name, value in seed.items()
                 if name != "top_k"},
        "engine": {name: value for name, value in engine.items()
                   if name != "top_k"},
        "message_reduction": reduction,
        "wallclock_speedup": speedup,
        "identical_top_k": seed["top_k"] == engine["top_k"],
    })


def test_e13_acceptance(e13_runs):
    seed, engine = e13_runs["seed"], e13_runs["engine"]
    # Identical top-k documents on every query of the stream.
    assert seed["top_k"] == engine["top_k"]
    # >= 30% fewer per-query messages.
    reduction = 1.0 - engine["messages_per_query"] / seed[
        "messages_per_query"]
    assert reduction >= 0.30
    # Majority of probes served from the cache on the skewed stream.
    assert engine["cache_hit_rate"] > 0.50
    # The seed path, by definition, never touches a cache.
    assert seed["cache_hit_rate"] == 0.0
