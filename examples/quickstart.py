"""Quickstart: build an AlvisP2P network, index documents, search.

Runs the full pipeline of the paper on the built-in sample collection:

1. create a simulated network of peers (transport + DHT + IR layers),
2. drop documents into peers' shared directories,
3. aggregate global statistics and build the HDK distributed index,
4. run multi-keyword queries from any peer and inspect the traffic,
5. turn on the batched + cached query engine (``batch_lookups``, the
   default, plus ``cache_bytes`` and ``topk_early_stop`` in
   :class:`repro.AlvisConfig`) and watch repeated queries stop costing
   traffic,
6. serve an *open workload* of concurrent queries
   (``AlvisNetwork.run_workload``) on the same event-kernel engine, with
   clock-measured latency percentiles,
7. saturate the network (bounded per-endpoint service queues via
   ``service_rate``/``queue_capacity``) and let the AIMD congestion
   controller (``congestion_control``) keep goodput at the knee,
8. leave the simulator entirely: host the peers in real OS processes
   and run the same queries over asyncio/UDP sockets
   (:mod:`repro.cluster`), checking the top-k matches the simulator.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import AlvisConfig, AlvisNetwork
from repro.core.workload import PoissonArrivals, RoundRobinOrigins, Workload
from repro.corpus import sample_documents
from repro.eval.reporting import print_table


def main() -> None:
    # 1. Eight peers; everything (corpus placement, DHT ids, latency) is
    #    seeded, so this script prints the same output every run.  This
    #    network speaks the paper's per-probe wire format
    #    (``batch_lookups=False``): one lookup round and one probe
    #    message per lattice node.
    network = AlvisNetwork(num_peers=8,
                           config=AlvisConfig(batch_lookups=False), seed=42)

    # 2. Spread the built-in 12-document sample collection round-robin:
    #    each peer owns its documents, exactly like a shared directory.
    network.distribute_documents(sample_documents())
    print(f"network: {network}")

    # 3. Build the global index with Highly Discriminative Keys.  This
    #    runs the statistics phase (global dfs, collection totals) and
    #    the round-based HDK construction, all through the DHT.
    stats = network.build_index(mode="hdk")
    print(f"index built: {stats.keys_published} key publications in "
          f"{stats.rounds} rounds, keys by size {stats.keys_by_size}")

    # 4. Query from the first peer.  The querying peer explores the
    #    lattice of term combinations (Figure 1 of the paper), unions
    #    the retrieved posting lists and ranks with BM25.  Each query
    #    runs as a process on the discrete-event kernel, so its trace
    #    carries a clock-measured ``latency``.
    origin = network.peer_ids()[0]
    for query in ("scalable peer retrieval",
                  "posting list truncation",
                  "congestion control"):
        results, trace = network.query(origin, query)
        print(f"\nquery: {query!r}")
        print(f"  lattice: probed {trace.probed_count}, "
              f"skipped {trace.skipped_count}; "
              f"{trace.bytes_sent} bytes, {trace.lookup_hops} hops, "
              f"{trace.latency:.2f}s")
        rows = []
        for document in results[:3]:
            details = network.fetch_document(origin, document.doc_id,
                                             terms=trace.query.terms)
            rows.append([document.doc_id, round(document.score, 3),
                         details.get("title", "?"),
                         details.get("url", "?")])
        print_table("top results", ["doc", "score", "title", "url"],
                    rows)

    # 5. The batched + cached query engine.  ``batch_lookups`` (on by
    #    default) routes each lattice frontier's DHT lookups in one
    #    shared round and same-owner probes in one message; ``cache_bytes`` gives every
    #    peer an LRU probe cache (invalidated on churn/republication);
    #    ``topk_early_stop`` prunes lattice nodes whose score ceiling
    #    cannot change the top-k.  Results are identical — only the
    #    traffic shrinks.
    engine = AlvisNetwork(
        num_peers=8, seed=42,
        config=AlvisConfig(cache_bytes=64 * 1024, topk_early_stop=True))
    engine.distribute_documents(sample_documents())
    engine.build_index(mode="hdk")
    origin = engine.peer_ids()[0]
    print("\nwith the batched + cached query engine:")
    for attempt in ("cold", "warm"):
        _results, trace = engine.query(origin, "scalable peer retrieval")
        print(f"  {attempt} query: {trace.request_messages} requests, "
              f"{trace.lookup_hops} hop messages, {trace.bytes_sent} "
              f"bytes, cache {trace.cache_hits} hits / "
              f"{trace.cache_misses} misses")

    # 6. An open workload.  Every query is a process on the
    #    discrete-event kernel: its lookups and probes travel as
    #    correlated async requests, so *concurrent* queries genuinely
    #    interleave in virtual time and each trace carries a
    #    clock-measured ``latency``.  ``dispatch_window`` coalesces
    #    lookups and probes across concurrent queries from one origin
    #    (server-side cross-query batching); ``pipeline_levels`` launches
    #    level N+1's DHT lookups while level N's probe replies are still
    #    in flight.
    #    ``run_workload`` drives a Poisson-arrival open workload — the
    #    "many simultaneous querying peers" scenario of the paper's
    #    scalability argument.
    runtime = AlvisNetwork(
        num_peers=8, seed=42,
        config=AlvisConfig(dispatch_window=0.05, pipeline_levels=True))
    runtime.distribute_documents(sample_documents())
    runtime.build_index(mode="hdk")
    workload = ["scalable peer retrieval", "posting list truncation",
                "congestion control"] * 4
    jobs = runtime.run_workload(Workload(workload, PoissonArrivals(100.0)))
    summary = runtime.runtime.latency_summary()
    print("\nopen workload of concurrent queries:")
    print(f"  {len(jobs)} concurrent queries "
          f"(peak {runtime.runtime.peak_active} in flight), latency "
          f"p50 {summary['p50']:.3f}s / p95 {summary['p95']:.3f}s, "
          f"{runtime.runtime.coalesced_probe_keys()} probe keys "
          f"coalesced across queries")

    # 7. Congestion control at the saturation knee.  ``service_rate``/
    #    ``queue_capacity`` give every endpoint a *bounded* service
    #    queue (hot owners exhibit real queueing delay, and overflow
    #    means drops); ``congestion_control`` puts the NCA'06 AIMD
    #    window between each origin's dispatch queue and the transport,
    #    so heavy workloads back off, merge their backlogged batches
    #    and retransmit drops — instead of flooding.  Sweep the offered
    #    load through the knee with bench_e8_congestion.py; here we
    #    just overload one origin and read the counters.
    print("\nwith bounded service queues and AIMD congestion control:")
    for label, controlled in (("uncontrolled", False), ("AIMD", True)):
        congested = AlvisNetwork(
            num_peers=8, seed=42,
            config=AlvisConfig(service_rate=25.0, queue_capacity=2,
                               congestion_control=controlled))
        congested.distribute_documents(sample_documents())
        congested.build_index(mode="hdk")
        origin = congested.peer_ids()[0]
        started = congested.simulator.now
        jobs = congested.run_workload(Workload(
            workload, PoissonArrivals(300.0), RoundRobinOrigins([origin])))
        makespan = congested.simulator.now - started
        drops = congested.transport.queue_drops_total()
        summary = congested.runtime.latency_summary()
        window = congested.runtime.congestion_summary()
        print(f"  {label:>12}: {len(jobs) / makespan:5.1f} queries/s "
              f"goodput, p95 {summary['p95']:.3f}s, {drops} queue "
              f"drops, {congested.runtime.retransmissions()} "
              f"retransmissions"
              + (f", cwnd mean {window['window_mean']:.1f}"
                 if controlled else ""))

    # 8. Running a real UDP cluster.  Everything above executed inside
    #    the discrete-event simulator — the default backend.  The same
    #    engine also runs over real asyncio/UDP sockets between OS
    #    processes: the backend selection knob is
    #    ``AlvisNetwork.attach_transport`` (swap the simulated
    #    ``SimTransport`` for a ``repro.net.udp.UdpTransport``), and
    #    ``repro.cluster.ClusterDriver`` packages the whole recipe —
    #    every process builds the identical seeded network, registers
    #    only the peer slice it owns, and the driver routes the rest to
    #    its sibling processes after a fingerprint-checked handshake.
    #    From a shell the equivalent is::
    #
    #        python -m repro --peers 8 cluster --hosts 2 --queries 3
    #
    #    bench_e16_udp_cluster.py replays an E14-style Zipf workload
    #    this way (BENCH_FULL=1 records it in BENCH_udp_cluster.json):
    #    its bytes/query equals the simulator's (the wire codec is
    #    size-exact against the byte model), while its latency
    #    percentiles are *measured* wall-clock round trips — numbers the
    #    simulator can only model.
    from repro.cluster import ClusterDriver, ClusterSpec

    print("\nreal multi-process UDP cluster (same engine, real sockets):")
    spec = ClusterSpec(num_peers=8, num_hosts=2, seed=42, mode="hdk")
    with ClusterDriver(spec) as driver:
        origin = sorted(driver.network.peer_ids())[0]
        for terms in (["peer", "retrieval"], ["index"]):
            udp_results, _trace = driver.run_query(origin, terms)
            sim_results, _trace = network.query(
                network.peer_ids()[0], terms)
            match = ([d.doc_id for d in udp_results]
                     == [d.doc_id for d in sim_results])
            print(f"  {' '.join(terms):>16}: {len(udp_results)} results "
                  f"over UDP, top-k matches simulator: {match}")
        print(f"  {driver.transport.datagrams_sent} datagrams sent, "
              f"{driver.transport.wire_bytes_sent} wire bytes, "
              f"{spec.num_hosts} OS processes")

    # 9. Scaling out.  The kernel is sized for 100k-peer networks: slot
    #    packed events with a batched heap, interned key objects,
    #    numpy-vectorized owner-side BM25 (bitwise-identical to the
    #    scalar path; REPRO_PURE_PYTHON=1 forces the fallback) and
    #    greedy routing computed hop by hop from the sorted membership,
    #    so no peer keeps a routing table a join or leave could stale.
    #    The sweep runs one network size per process::
    #
    #        PYTHONPATH=src python -m repro.eval.scale \
    #            --peers 10000 --queries 36 --churn 90 --json -
    #
    #    benchmarks/bench_scale.py runs the full 1k -> 10k -> 100k
    #    sweep (BENCH_FULL=1) and writes BENCH_scale.json; read it by
    #    leg: ``events_per_sec`` is effective kernel throughput over
    #    the churning workload phase, ``bytes_per_query`` the network
    #    cost, ``peak_rss_kb`` the per-leg process footprint, and
    #    ``index_fingerprint`` / ``top_k_sha1`` digest the built index
    #    and the results.  Here, a quick in-process taste at demo
    #    scale:
    from repro.eval.monitor import NetworkMonitor
    from repro.eval.scale import run_leg

    print("\nscale leg (800 peers, in-process demo size):")
    leg = run_leg(peers=800, documents=60, queries=6, churn_events=10,
                  seed=42)
    print(f"  {leg['events_processed']} events at "
          f"{leg['events_per_sec']:,.0f} events/s effective, "
          f"{leg['bytes_per_query']:,.0f} bytes/query, "
          f"peak RSS {leg['peak_rss_kb'] / 1024:,.0f} MB")
    monitor = NetworkMonitor(congested)
    snapshot = monitor.snapshot()
    print(f"  monitor: {snapshot.events_processed:,} events "
          f"({snapshot.events_per_sec:,.0f}/s) on the §7 network, "
          f"peak RSS {snapshot.peak_rss_kb:,} KB")

    # 10. Static analysis.  The invariants the sections above rely on —
    #     byte-identical runs per seed (§1), a wire schema the UDP
    #     cluster can decode (§8), slim hot-path objects (§9), feature
    #     knobs that default off (§5-§7) — are enforced at review time
    #     by the repo's own AST checkers::
    #
    #         PYTHONPATH=src python -m repro lint                # whole repo
    #         PYTHONPATH=src python -m repro lint --list-codes   # rule table
    #
    #     Exit status 0 means the scan matches lint_baseline.json
    #     exactly (this repo's baseline is empty: zero grandfathered
    #     findings).  Here, the determinism checker catching a
    #     wall-clock read that would break seed-reproducibility:
    import tempfile
    from pathlib import Path

    from repro.lint import format_findings, run_lint

    leaky = (
        "import time\n"
        "\n"
        "def jitter():\n"
        "    return time.time() % 1.0\n")
    with tempfile.TemporaryDirectory() as scratch:
        module = Path(scratch) / "src" / "repro" / "sim" / "leaky.py"
        module.parent.mkdir(parents=True)
        module.write_text(leaky, encoding="utf-8")
        findings = run_lint([module], project_root=Path(scratch))
    print("\nrepro lint on a leaky module:")
    print("  " + format_findings(findings).replace("\n", "\n  "))

    # 11. Adversarial scenarios.  The atlas scripts whole timelines —
    #     churn storms, flash crowds, partitions, graceful drains, slow
    #     minorities — as declarative specs with pass criteria, run
    #     deterministically on the event kernel::
    #
    #         PYTHONPATH=src python -m repro scenario list
    #         PYTHONPATH=src python -m repro scenario run churn_storm \
    #             --seed 0 --json -
    #
    #     Exit status 0 means every declared criterion held; the
    #     ScenarioReport carries recall@k against a fault-free oracle,
    #     latency percentiles, goodput and handover bytes.  The same
    #     surface is a library:
    from repro.scenarios import ScenarioRunner, get_scenario

    print("\nscenario atlas (churn_storm at demo size):")
    storm = get_scenario("churn_storm").scaled(num_peers=12, queries=12)
    report = ScenarioRunner(storm, seed=0).run()
    print(f"  {report.scenario}: "
          f"{'PASS' if report.passed else 'FAIL'} — "
          f"recall@{report.k} {report.recall_at_k:.3f}, "
          f"p99 {report.latency_p99:.3f}s, "
          f"{report.queries_completed}/{report.queries_submitted} "
          f"queries through {report.crashes} crashes and "
          f"{report.joins} joins")
    for criterion in report.criteria:
        print(f"    {criterion}")

    # 12. Routing in the indexing phase.  Before a single query runs,
    #     every peer resolves the DHT owners of each term and HDK key it
    #     publishes, and ships its statistics and posting lists there.
    #     Each publication batch routes its keys in one shared
    #     lookup_many walk, and a network-wide owner memo (valid for one
    #     membership epoch) answers keys another publisher already
    #     routed, so indexing stops re-routing keys the network already
    #     located.  Queries never read that memo: each one pays its own
    #     routing, so measured query traffic stays what the paper's
    #     scalability argument needs.  There is no knob for any of it;
    #     tests/test_index_equivalence.py pins the index and its traffic
    #     at seed size.
    indexed = AlvisNetwork(num_peers=8, seed=42, config=AlvisConfig())
    indexed.distribute_documents(sample_documents())
    indexed.build_index(mode="hdk")
    index_traffic = indexed.bytes_by_kind()
    _results, trace = indexed.query(indexed.peer_ids()[0],
                                    "scalable peer retrieval")
    print("\nindexing-phase routing:")
    print(f"  LookupHop {index_traffic.get('LookupHop', 0.0):,.0f} of "
          f"{sum(index_traffic.values()):,.0f} index bytes")
    print(f"  a query still routes its own keys: "
          f"{trace.bytes_by_kind.get('LookupHop', 0):,} LookupHop bytes")

if __name__ == "__main__":
    main()
