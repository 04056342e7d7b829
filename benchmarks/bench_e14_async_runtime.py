"""E14 (extension) — the async query runtime under an open workload.

The previous experiments measure *per-query byte counts* with queries
executed one at a time; the scalability claim the related top-k work
(Akbarinia et al.) and the P2P-management surveys actually test is
*latency percentiles under concurrent load*.  This experiment runs a
Zipf-skewed query stream through three load shapes of the one query
engine over the same corpus and index (latency is always measured from
the virtual clock):

* ``sequential``   — closed loop, one query at a time (``network.query``);
  queries never overlap;
* ``async``        — a Poisson-arrival open workload: queries overlap,
  every probe/lookup is an async request;
* ``async_batched`` — the runtime plus cross-query dispatch batching
  (``dispatch_window``) and level pipelining (``pipeline_levels``).

Acceptance targets (a ``BENCH_FULL=1`` run records them in
``BENCH_async_runtime.json``; smoke runs write nothing):

* every query of the open workload completes, with p95 latency and
  messages-per-query reported;
* cross-query dispatch batching reduces per-query network messages
  versus independent async queries;
* identical top-k results across all three execution models.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (BENCH_SEED, make_network,
                                 write_bench_artifact)
from repro.core.config import AlvisConfig
from repro.core.workload import PoissonArrivals, RoundRobinOrigins, Workload
from repro.eval.reporting import print_table
from repro.util.rng import make_rng
from repro.util.stats import percentile
from repro.util.zipf import ZipfSampler

#: Arrival rate (queries per virtual second) of the open workload —
#: high enough that tens of queries overlap.
ARRIVAL_RATE = 150.0

#: label -> (open workload?, config overrides).
VARIANTS = {
    "sequential": (False, {}),
    "async": (True, {}),
    "async_batched": (True, dict(dispatch_window=0.05,
                                 pipeline_levels=True)),
}


@pytest.fixture(scope="module")
def e14_workload(bench_workload, bench_smoke):
    """A Zipf-skewed open query stream (duplicates arrive concurrently)."""
    draws = 60 if bench_smoke else 300
    sampler = ZipfSampler(len(bench_workload.pool), exponent=1.1)
    rng = make_rng(BENCH_SEED, "e14-zipf")
    return [bench_workload.pool[rank]
            for rank in sampler.sample_many(rng, draws)]


@pytest.fixture(scope="module")
def e14_runs(bench_corpus, e14_workload):
    """Run the identical workload through all three execution models."""
    runs = {}
    for label, (open_loop, overrides) in VARIANTS.items():
        network = make_network(bench_corpus,
                               config=AlvisConfig(**overrides))
        # A handful of querying front-ends, round-robin: cross-query
        # batching coalesces per origin, so concentrating the workload
        # on a few origins is the server-side-batching scenario.
        origins = network.peer_ids()[:4]
        messages_before = network.messages_sent_total()
        bytes_before = network.bytes_sent_total()
        clock_before = network.simulator.now
        started = time.perf_counter()
        if open_loop:
            jobs = network.run_workload(Workload(
                e14_workload, PoissonArrivals(ARRIVAL_RATE),
                RoundRobinOrigins(origins)))
            latencies = [job.trace.latency for job in jobs]
            top_k = [[doc.doc_id for doc in job.results] for job in jobs]
            completed = sum(1 for job in jobs if job.done)
            peak_active = network.runtime.peak_active
            coalesced = network.runtime.coalesced_probe_keys()
        else:
            latencies, top_k = [], []
            for index, query in enumerate(e14_workload):
                origin = origins[index % len(origins)]
                results, trace = network.query(origin, list(query))
                latencies.append(trace.latency)
                top_k.append([doc.doc_id for doc in results])
            completed = len(e14_workload)
            peak_active = 1
            coalesced = 0
        elapsed = time.perf_counter() - started
        count = float(len(e14_workload))
        runs[label] = {
            "queries": int(count),
            "completed": completed,
            "messages_per_query":
                (network.messages_sent_total() - messages_before) / count,
            "bytes_per_query":
                (network.bytes_sent_total() - bytes_before) / count,
            "latency_p50": percentile(latencies, 50),
            "latency_p95": percentile(latencies, 95),
            "latency_p99": percentile(latencies, 99),
            "virtual_makespan_s": network.simulator.now - clock_before,
            "peak_concurrent_queries": peak_active,
            "coalesced_probe_keys": coalesced,
            "wallclock_s": elapsed,
            "top_k": top_k,
        }
    return runs


def test_e14_async_runtime(capsys, e14_runs):
    independent, batched = e14_runs["async"], e14_runs["async_batched"]
    reduction = 1.0 - (batched["messages_per_query"]
                       / independent["messages_per_query"])
    with capsys.disabled():
        print_table(
            "E14 async query runtime (Poisson open workload)",
            ["variant", "msgs/query", "bytes/query", "lat p50",
             "lat p95", "lat p99", "peak conc", "makespan"],
            [[label,
              round(run["messages_per_query"], 2),
              round(run["bytes_per_query"], 1),
              round(run["latency_p50"], 3),
              round(run["latency_p95"], 3),
              round(run["latency_p99"], 3),
              run["peak_concurrent_queries"],
              round(run["virtual_makespan_s"], 2)]
             for label, run in e14_runs.items()])
        print(f"cross-query batching message reduction: {reduction:.1%}  "
              f"(coalesced probe keys: "
              f"{batched['coalesced_probe_keys']})")
    write_bench_artifact("async_runtime", {
        label: {name: value for name, value in run.items()
                if name != "top_k"}
        for label, run in e14_runs.items()
    } | {
        "arrival_rate": ARRIVAL_RATE,
        "message_reduction_vs_independent_async": reduction,
        "identical_top_k": (
            e14_runs["sequential"]["top_k"] == independent["top_k"]
            == batched["top_k"]),
    })


def test_e14_acceptance(e14_runs):
    sequential = e14_runs["sequential"]
    independent = e14_runs["async"]
    batched = e14_runs["async_batched"]
    # The open workload is sustained: every query completes.
    assert independent["completed"] == independent["queries"]
    assert batched["completed"] == batched["queries"]
    # Concurrency is real, and latency is measured (positive p95).
    assert independent["peak_concurrent_queries"] > 1
    assert independent["latency_p95"] > 0.0
    assert batched["latency_p95"] > 0.0
    # Execution model changes timing, not retrieval semantics.
    assert sequential["top_k"] == independent["top_k"]
    assert independent["top_k"] == batched["top_k"]
    # Cross-query dispatch batching reduces per-query message count
    # versus independent async queries.
    assert batched["messages_per_query"] < \
        independent["messages_per_query"]
    assert batched["coalesced_probe_keys"] > 0
