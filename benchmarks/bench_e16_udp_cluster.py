"""E16 (extension) — the query engine over a real localhost UDP cluster.

Every earlier experiment executes against the discrete-event simulator;
this one replays an E14-style Zipf open workload through the *same*
engine over real asyncio/UDP sockets between OS processes
(:mod:`repro.cluster`), with the simulator run of the identical query
stream as the reference.  Three things become measurable only here:

* **wall-clock throughput and latency percentiles** — queries/sec and
  p50/p95/p99 of real, socket-measured response times (the
  RealtimeKernel anchors the virtual clock to ``time.monotonic``);
* **wire fidelity** — the codec is size-exact against the byte model
  (``WIRE_SIZE_DELTA == 0``), so modelled bytes/query from the
  simulator and from the UDP run describe the same wire, and the raw
  datagram counters expose the real overhead (acks, handshake);
* **cross-backend equivalence** — identical top-k lists for the fixed
  seed, asserted, which is the acceptance bar for the pluggable
  transport refactor.

A ``BENCH_FULL=1`` run writes ``benchmarks/BENCH_udp_cluster.json``;
smoke runs write nothing.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import BENCH_SEED, write_bench_artifact
from repro.cluster import ClusterDriver, ClusterSpec, build_network
from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.eval.reporting import print_table
from repro.util.rng import make_rng
from repro.util.stats import percentile
from repro.util.zipf import ZipfSampler

#: Arrival rate (queries per wall-clock second) of the open workload.
ARRIVAL_RATE = 60.0


@pytest.fixture(scope="module")
def e16_spec(bench_smoke) -> ClusterSpec:
    if bench_smoke:
        return ClusterSpec(num_peers=10, num_hosts=2, seed=BENCH_SEED,
                           num_docs=120, vocabulary_size=600,
                           mode="hdk", request_timeout=5.0,
                           config_overrides={"batch_lookups": True})
    return ClusterSpec(num_peers=16, num_hosts=3, seed=BENCH_SEED,
                       num_docs=240, vocabulary_size=1200,
                       mode="hdk", request_timeout=5.0,
                       config_overrides={"batch_lookups": True})


@pytest.fixture(scope="module")
def e16_workload(e16_spec, bench_smoke):
    """Zipf-skewed draws from a pool over the cluster's own corpus."""
    corpus = SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=e16_spec.num_docs,
        vocabulary_size=e16_spec.vocabulary_size, seed=e16_spec.seed))
    pool = QueryWorkload.from_corpus(
        corpus, QueryWorkloadConfig(pool_size=40, min_terms=2,
                                    max_terms=3, seed=BENCH_SEED)).pool
    draws = 24 if bench_smoke else 120
    sampler = ZipfSampler(len(pool), exponent=1.1)
    rng = make_rng(BENCH_SEED, "e16-zipf")
    return [list(pool[rank]) for rank in sampler.sample_many(rng, draws)]


@pytest.fixture(scope="module")
def e16_runs(e16_spec, e16_workload):
    """The same query stream on the simulator and over real UDP."""
    runs = {}

    # Reference: default backend, queries executed one at a time against
    # an identical twin build (modelled bytes, virtual-clock latency).
    sim_net = build_network(e16_spec)
    origins = sorted(sim_net.peer_ids())[:4]
    bytes_before = sim_net.bytes_sent_total()
    messages_before = sim_net.messages_sent_total()
    sim_top_k = []
    sim_latencies = []
    for index, query in enumerate(e16_workload):
        results, trace = sim_net.query(origins[index % len(origins)],
                                       query)
        sim_top_k.append([document.doc_id for document in results])
        sim_latencies.append(trace.latency)
    count = float(len(e16_workload))
    runs["simulator"] = {
        "queries": int(count),
        "bytes_per_query":
            (sim_net.bytes_sent_total() - bytes_before) / count,
        "messages_per_query":
            (sim_net.messages_sent_total() - messages_before) / count,
        "latency_p50": percentile(sim_latencies, 50),
        "latency_p95": percentile(sim_latencies, 95),
        "latency_p99": percentile(sim_latencies, 99),
        "top_k": sim_top_k,
    }

    # Real run: one driver + (num_hosts - 1) spawned OS processes,
    # Poisson arrivals through the async runtime over localhost UDP.
    with ClusterDriver(e16_spec) as driver:
        transport = driver.network.transport
        bytes_before = driver.network.bytes_sent_total()
        messages_before = driver.network.messages_sent_total()
        wire_before = transport.wire_bytes_sent
        datagrams_before = transport.datagrams_sent
        started = time.perf_counter()
        jobs = driver.run_open_workload(
            e16_workload, origins=origins, arrival_rate=ARRIVAL_RATE,
            timeout=300.0)
        elapsed = time.perf_counter() - started
        latencies = [job.trace.latency for job in jobs]
        runs["udp_cluster"] = {
            "queries": int(count),
            "completed": sum(1 for job in jobs if job.done),
            "hosts": e16_spec.num_hosts,
            "queries_per_sec": count / elapsed,
            "bytes_per_query":
                (driver.network.bytes_sent_total() - bytes_before)
                / count,
            "messages_per_query":
                (driver.network.messages_sent_total() - messages_before)
                / count,
            "wire_bytes_per_query":
                (transport.wire_bytes_sent - wire_before) / count,
            "datagrams_per_query":
                (transport.datagrams_sent - datagrams_before) / count,
            "latency_p50": percentile(latencies, 50),
            "latency_p95": percentile(latencies, 95),
            "latency_p99": percentile(latencies, 99),
            "wallclock_s": elapsed,
            "decode_errors": transport.decode_errors,
            "top_k": [[document.doc_id for document in job.results]
                      for job in jobs],
        }
    return runs


def test_e16_udp_cluster(capsys, e16_runs):
    simulator, udp = e16_runs["simulator"], e16_runs["udp_cluster"]
    with capsys.disabled():
        print_table(
            "E16 real UDP cluster vs simulator (Zipf open workload)",
            ["backend", "bytes/query", "msgs/query", "lat p50",
             "lat p95", "lat p99", "qps"],
            [["simulator",
              round(simulator["bytes_per_query"], 1),
              round(simulator["messages_per_query"], 2),
              round(simulator["latency_p50"], 4),
              round(simulator["latency_p95"], 4),
              round(simulator["latency_p99"], 4),
              "-"],
             ["udp_cluster",
              round(udp["bytes_per_query"], 1),
              round(udp["messages_per_query"], 2),
              round(udp["latency_p50"], 4),
              round(udp["latency_p95"], 4),
              round(udp["latency_p99"], 4),
              round(udp["queries_per_sec"], 1)]])
        print(f"raw wire: {udp['wire_bytes_per_query']:.1f} bytes/query "
              f"in {udp['datagrams_per_query']:.1f} datagrams "
              f"({udp['hosts']} processes; driver-local deliveries "
              f"never reach the socket, acks/handshake do)")
    write_bench_artifact("udp_cluster", {
        "arrival_rate": ARRIVAL_RATE,
        "simulator": {name: value
                      for name, value in simulator.items()
                      if name != "top_k"},
        "udp_cluster": {name: value for name, value in udp.items()
                        if name != "top_k"},
        "identical_top_k": simulator["top_k"] == udp["top_k"],
    })


def test_e16_acceptance(e16_runs):
    simulator, udp = e16_runs["simulator"], e16_runs["udp_cluster"]
    # Every query of the open workload completes over real sockets.
    assert udp["completed"] == udp["queries"]
    # Cross-backend equivalence: the transport changes timing, never
    # retrieval semantics.
    assert simulator["top_k"] == udp["top_k"]
    # Real throughput was measured, and nothing on the wire was mangled.
    assert udp["queries_per_sec"] > 0
    assert udp["decode_errors"] == 0
    # Real datagrams crossed the socket (the run wasn't all-local).
    assert udp["wire_bytes_per_query"] > 0
