"""Tests for the async query runtime (event-kernel L3/L4 execution).

The load-bearing property: for a single query, ``async_queries`` changes
*timing*, never traffic semantics — identical top-k, identical bytes,
identical probe statuses versus the synchronous frontier-batched path.
On top of that sit the new capabilities: genuinely concurrent queries,
clock-measured latency, cross-query dispatch batching, level pipelining
and graceful churn drops.
"""

import pytest

from repro.core.config import AlvisConfig
from repro.core.lattice import ProbeStatus
from repro.core.network import AlvisNetwork
from repro.corpus import sample_documents
from repro.eval.monitor import NetworkMonitor

QUERIES = ["scalable peer retrieval",
           "posting list truncation",
           "congestion control"]


def build_network(mode="hdk", **overrides):
    config = AlvisConfig(**overrides)
    network = AlvisNetwork(num_peers=8, config=config, seed=42)
    network.distribute_documents(sample_documents())
    network.build_index(mode=mode)
    return network


def doc_ids(results):
    return [document.doc_id for document in results]


# ----------------------------------------------------------------------
# Cross-mode equality (the acceptance criterion)
# ----------------------------------------------------------------------

class TestCrossModeEquality:
    def test_single_query_traffic_identical(self):
        sync = build_network(batch_lookups=True)
        asynchronous = build_network(batch_lookups=True,
                                     async_queries=True)
        origin_sync = sync.peer_ids()[0]
        origin_async = asynchronous.peer_ids()[0]
        for query in QUERIES:
            sync_results, sync_trace = sync.query(origin_sync, query)
            async_results, async_trace = asynchronous.query(
                origin_async, query)
            assert doc_ids(sync_results) == doc_ids(async_results)
            assert sync_trace.bytes_sent == async_trace.bytes_sent
            assert sync_trace.bytes_by_kind == async_trace.bytes_by_kind
            assert sync_trace.lookup_hops == async_trace.lookup_hops
            assert sync_trace.request_messages == \
                async_trace.request_messages
            assert sync_trace.probes == async_trace.probes
            assert sync_trace.cache_hits == async_trace.cache_hits
            assert sync_trace.cache_misses == async_trace.cache_misses

    def test_equality_with_engine_features_on(self):
        overrides = dict(batch_lookups=True, cache_bytes=64 * 1024,
                         topk_early_stop=True, cache_lookups=True)
        sync = build_network(**overrides)
        asynchronous = build_network(async_queries=True, **overrides)
        origin = sync.peer_ids()[0]
        for query in QUERIES + QUERIES:     # repeats exercise the caches
            sync_results, sync_trace = sync.query(origin, query)
            async_results, async_trace = asynchronous.query(origin, query)
            assert doc_ids(sync_results) == doc_ids(async_results)
            assert sync_trace.bytes_sent == async_trace.bytes_sent
            assert sync_trace.probes == async_trace.probes
            assert sync_trace.cache_hits == async_trace.cache_hits

    def test_equality_with_refinement(self):
        sync = build_network(batch_lookups=True)
        asynchronous = build_network(batch_lookups=True,
                                     async_queries=True)
        origin = sync.peer_ids()[0]
        sync_results, sync_trace = sync.query(origin, QUERIES[0],
                                              refine=True)
        async_results, async_trace = asynchronous.query(origin, QUERIES[0],
                                                        refine=True)
        assert doc_ids(sync_results) == doc_ids(async_results)
        assert async_trace.refined
        assert sync_trace.bytes_sent == async_trace.bytes_sent
        assert sync_trace.bytes_by_kind == async_trace.bytes_by_kind

    def test_equality_under_qdi(self):
        sync = build_network(mode="qdi", batch_lookups=True)
        asynchronous = build_network(mode="qdi", batch_lookups=True,
                                     async_queries=True)
        origin = sync.peer_ids()[0]
        for query in QUERIES:
            sync_results, sync_trace = sync.query(origin, query)
            async_results, async_trace = asynchronous.query(origin, query)
            assert doc_ids(sync_results) == doc_ids(async_results)
            # Feedback messages included; bytes may differ because the
            # sync trace window also captures owner-side harvest traffic.
            assert sync_trace.request_messages == \
                async_trace.request_messages

    def test_query_sequence_traffic_identical(self, small_corpus,
                                              small_workload):
        # Regression: the sync batched engine used to resolve keys from
        # the ring-wide owner memo indexing filled, so over a query
        # sequence it sent about half the LookupHop bytes of its async
        # twin.  Both now pay their own routing, query after query.
        engines = {}
        for label, overrides in (("sync", dict(batch_lookups=True)),
                                 ("async", dict(async_queries=True))):
            network = AlvisNetwork(num_peers=24,
                                   config=AlvisConfig(**overrides), seed=7)
            network.distribute_documents(small_corpus.documents())
            network.build_index(mode="hdk")
            network.reset_traffic()
            origins = network.peer_ids()
            traces = [network.query(origins[index % len(origins)],
                                    list(small_workload.pool[index]))[1]
                      for index in range(12)]
            engines[label] = (network.bytes_by_kind(), traces)
        sync_bytes, sync_traces = engines["sync"]
        async_bytes, async_traces = engines["async"]
        assert sync_bytes["LookupHop"] > 0
        assert sync_bytes["LookupHop"] == async_bytes["LookupHop"]
        assert sync_bytes == async_bytes
        for sync_trace, async_trace in zip(sync_traces, async_traces):
            assert sync_trace.bytes_by_kind == async_trace.bytes_by_kind
            assert sync_trace.lookup_hops == async_trace.lookup_hops

    def test_dispatch_window_changes_latency_not_traffic(self):
        fast = build_network(batch_lookups=True, async_queries=True)
        windowed = build_network(batch_lookups=True, async_queries=True,
                                 dispatch_window=0.05)
        origin = fast.peer_ids()[0]
        fast_results, fast_trace = fast.query(origin, QUERIES[0])
        slow_results, slow_trace = windowed.query(origin, QUERIES[0])
        assert doc_ids(fast_results) == doc_ids(slow_results)
        assert fast_trace.bytes_sent == slow_trace.bytes_sent
        assert slow_trace.latency > fast_trace.latency


# ----------------------------------------------------------------------
# Clock-measured latency
# ----------------------------------------------------------------------

class TestLatency:
    def test_latency_from_virtual_clock(self):
        network = build_network(batch_lookups=True, async_queries=True)
        origin = network.peer_ids()[0]
        started = network.simulator.now
        _results, trace = network.query(origin, QUERIES[0])
        assert trace.started_at >= started
        assert trace.finished_at > trace.started_at
        assert trace.latency == pytest.approx(trace.finished_at
                                              - trace.started_at)
        assert trace.latency > 0.0
        # The async path measures; it does not estimate.
        assert trace.rtt_estimate == 0.0

    def test_sync_path_keeps_rtt_estimate(self):
        network = build_network(batch_lookups=True)
        origin = network.peer_ids()[0]
        _results, trace = network.query(origin, QUERIES[0])
        assert trace.rtt_estimate > 0.0
        assert trace.latency == 0.0

    def test_trace_byte_audit(self):
        network = build_network(batch_lookups=True, async_queries=True)
        origin = network.peer_ids()[0]
        _results, trace = network.query(origin, QUERIES[1])
        assert trace.bytes_sent == sum(trace.bytes_by_kind.values())
        assert trace.summary()["latency"] == pytest.approx(trace.latency)


# ----------------------------------------------------------------------
# Concurrency: the open-workload driver
# ----------------------------------------------------------------------

class TestRunQueries:
    def test_requires_async_mode(self):
        network = build_network(batch_lookups=True)
        with pytest.raises(ValueError):
            network.run_queries(QUERIES)

    def test_rejects_bad_arrival_rate(self):
        network = build_network(batch_lookups=True, async_queries=True)
        with pytest.raises(ValueError):
            network.run_queries(QUERIES, arrival_rate=0.0)

    def test_queries_genuinely_overlap(self):
        network = build_network(batch_lookups=True, async_queries=True)
        workload = QUERIES * 4
        jobs = network.run_queries(workload, arrival_rate=200.0)
        assert len(jobs) == len(workload)
        assert all(job.done for job in jobs)
        assert all(job.trace.latency > 0 for job in jobs)
        assert network.runtime.peak_active > 1
        assert network.runtime.completed == len(workload)
        assert len(network.runtime.latencies) == len(workload)

    def test_deterministic_under_fixed_seed(self):
        first = build_network(batch_lookups=True, async_queries=True)
        second = build_network(batch_lookups=True, async_queries=True)
        jobs_first = first.run_queries(QUERIES * 2, arrival_rate=100.0)
        jobs_second = second.run_queries(QUERIES * 2, arrival_rate=100.0)
        assert [doc_ids(job.results) for job in jobs_first] == \
            [doc_ids(job.results) for job in jobs_second]
        assert [job.trace.latency for job in jobs_first] == \
            [job.trace.latency for job in jobs_second]

    def test_results_match_sequential_execution(self):
        # Concurrency must not change what any query returns (hdk mode:
        # probes have no side effects).
        concurrent = build_network(batch_lookups=True, async_queries=True)
        sequential = build_network(batch_lookups=True)
        origin = concurrent.peer_ids()[0]
        jobs = concurrent.run_queries(QUERIES * 2, origins=[origin],
                                      arrival_rate=500.0)
        for job in jobs:
            expected, _trace = sequential.query(origin,
                                                list(job.terms))
            assert doc_ids(job.results) == doc_ids(expected)


# ----------------------------------------------------------------------
# Cross-query dispatch batching
# ----------------------------------------------------------------------

class TestDispatchBatching:
    def test_concurrent_duplicate_queries_coalesce(self):
        network = build_network(batch_lookups=True, async_queries=True,
                                dispatch_window=0.05)
        origin = network.peer_ids()[0]
        baseline = build_network(batch_lookups=True, async_queries=True)
        # Two identical queries, submitted at the same virtual instant
        # from one origin: their probes and lookups share messages.
        messages_before = network.messages_sent_total()
        first = network.runtime.submit(origin, QUERIES[0])
        second = network.runtime.submit(origin, QUERIES[0])
        network.simulator.run()
        shared_messages = network.messages_sent_total() - messages_before
        assert first.done and second.done
        assert doc_ids(first.results) == doc_ids(second.results)
        assert network.runtime.coalesced_probe_keys() > 0
        # Versus the same two queries run independently:
        messages_before = baseline.messages_sent_total()
        baseline.query(origin, QUERIES[0])
        baseline.query(origin, QUERIES[0])
        independent_messages = (baseline.messages_sent_total()
                                - messages_before)
        assert shared_messages < independent_messages

    def test_open_workload_batching_saves_messages(self):
        workload = (QUERIES * 4)[:10]
        independent = build_network(batch_lookups=True,
                                    async_queries=True)
        batched = build_network(batch_lookups=True, async_queries=True,
                                dispatch_window=0.05)
        origin_list = [independent.peer_ids()[0]]
        before = independent.messages_sent_total()
        independent.run_queries(workload, origins=origin_list,
                                arrival_rate=300.0)
        independent_messages = (independent.messages_sent_total()
                                - before)
        before = batched.messages_sent_total()
        batched.run_queries(workload, origins=origin_list,
                            arrival_rate=300.0)
        batched_messages = batched.messages_sent_total() - before
        assert batched_messages < independent_messages


# ----------------------------------------------------------------------
# Level pipelining
# ----------------------------------------------------------------------

class TestLevelPipelining:
    def test_pipelining_preserves_results(self):
        plain = build_network(batch_lookups=True, async_queries=True)
        pipelined = build_network(batch_lookups=True, async_queries=True,
                                  pipeline_levels=True)
        origin = plain.peer_ids()[0]
        for query in QUERIES:
            plain_results, plain_trace = plain.query(origin, query)
            piped_results, piped_trace = pipelined.query(origin, query)
            assert doc_ids(plain_results) == doc_ids(piped_results)
            assert plain_trace.probes == piped_trace.probes
            # Speculative lookups can only add routing traffic.
            assert piped_trace.bytes_sent >= plain_trace.bytes_sent

    def test_pipelining_cuts_latency(self):
        plain = build_network(batch_lookups=True, async_queries=True)
        pipelined = build_network(batch_lookups=True, async_queries=True,
                                  pipeline_levels=True)
        origin = plain.peer_ids()[0]
        # A 3-term query has three lattice levels to overlap.
        _r, plain_trace = plain.query(origin, QUERIES[0])
        _r, piped_trace = pipelined.query(origin, QUERIES[0])
        assert piped_trace.latency <= plain_trace.latency


# ----------------------------------------------------------------------
# Graceful churn handling
# ----------------------------------------------------------------------

class TestChurnDrops:
    def _kill_probe_owner(self, network, query):
        """Unregister (transport only) a non-origin owner the query
        probes, returning the origin."""
        origin = network.peer_ids()[0]
        probe = network.analyzer.analyze_query(query)
        for term in probe:
            from repro.core.keys import Key
            owner = network.owner_peer_of_key(Key([term]).key_id)
            if owner != origin:
                network.transport.unregister(owner)
                return origin
        pytest.skip("every owner is the origin")

    def test_async_query_survives_departed_owner(self):
        network = build_network(batch_lookups=True, async_queries=True)
        origin = self._kill_probe_owner(network, QUERIES[0])
        results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1
        assert any(status == ProbeStatus.DROPPED
                   for _key, status in trace.probes)
        assert trace.summary()["dropped"] >= 1

    def test_sync_batched_query_survives_departed_owner(self):
        network = build_network(batch_lookups=True)
        origin = self._kill_probe_owner(network, QUERIES[0])
        results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1

    def test_sync_per_probe_query_survives_departed_owner(self):
        network = build_network()        # per-probe compatibility path
        origin = self._kill_probe_owner(network, QUERIES[0])
        results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1

    def test_open_workload_survives_peer_crash(self):
        # A peer crashes (ring + transport) while ~all queries are in
        # flight — including queries *originating* at the victim.  Every
        # query must still complete; victims' queries wind down with
        # dropped probes instead of DeliveryError.
        network = build_network(batch_lookups=True, async_queries=True,
                                dispatch_window=0.03,
                                pipeline_levels=True)
        victim = network.peer_ids()[-1]
        network.simulator.schedule(0.05,
                                   lambda: network.fail_peer(victim))
        jobs = network.run_queries(QUERIES * 4, arrival_rate=200.0)
        assert all(job.done for job in jobs)
        assert network.runtime.active == 0

    def test_churn_process_interleaved_with_queries(self):
        network = build_network(batch_lookups=True, async_queries=True)
        churn = network.churn()
        network.simulator.schedule(
            0.04, lambda: (churn.leave(), churn.join()))
        jobs = network.run_queries(QUERIES * 4, arrival_rate=150.0)
        assert all(job.done for job in jobs)

    def test_dropped_probes_are_not_qdi_missing(self):
        # A dropped probe must not look like a "missing" combination.
        network = build_network(batch_lookups=True, async_queries=True)
        origin = self._kill_probe_owner(network, QUERIES[0])
        _results, trace = network.query(origin, QUERIES[0])
        dropped = [key for key, status in trace.probes
                   if status == ProbeStatus.DROPPED]
        missing = [key for key, status in trace.probes
                   if status == ProbeStatus.MISSING]
        assert set(dropped).isdisjoint(missing)


# ----------------------------------------------------------------------
# Monitoring
# ----------------------------------------------------------------------

class TestMonitorSurfacing:
    def test_latency_percentiles_in_snapshot(self):
        network = build_network(batch_lookups=True, async_queries=True)
        network.run_queries(QUERIES * 3, arrival_rate=150.0)
        monitor = NetworkMonitor(network)
        snapshot = monitor.snapshot()
        assert snapshot.queries_completed == 9
        assert snapshot.queries_active == 0
        assert snapshot.peak_queries_active >= 1
        assert snapshot.requests_in_flight == 0
        assert snapshot.query_latency_p50 > 0.0
        assert snapshot.query_latency_p95 >= snapshot.query_latency_p50
        assert snapshot.query_latency_p99 >= snapshot.query_latency_p95
        flat = snapshot.as_dict()
        assert flat["query_latency_p95"] == snapshot.query_latency_p95
        rendered = monitor.render(snapshot)
        assert "async runtime" in rendered
        assert "p95" in rendered

    def test_monitor_quiet_without_async_traffic(self):
        network = build_network(batch_lookups=True)
        network.query(network.peer_ids()[0], QUERIES[0])
        snapshot = NetworkMonitor(network).snapshot()
        assert snapshot.queries_completed == 0
        assert snapshot.query_latency_p95 == 0.0


# ----------------------------------------------------------------------
# Byte attribution: per-query traces reconcile with the wire
# ----------------------------------------------------------------------

QUERY_TRAFFIC_KINDS = ("LookupHop", "ProbeBatch", "ProbeBatchReply")


def query_traffic_bytes(network):
    return {kind: network.bytes_by_kind().get(kind, 0.0)
            for kind in QUERY_TRAFFIC_KINDS}


class TestSharedBatchAttribution:
    """Regression: coalesced (cross-query) messages must pro-rate their
    wire bytes across participants — summed per-query bytes equal the
    transport's counters exactly, instead of over-counting every shared
    message once per participant.

    The exact-reconciliation guarantee assumes ``request_timeout = 0``
    (the default): a timed-out request's late reply is wire-accounted
    but discarded by the sender, so no trace can be charged for it."""

    def _reconcile(self, network, jobs):
        wire = query_traffic_bytes(network)
        charged = {kind: 0 for kind in QUERY_TRAFFIC_KINDS}
        for job in jobs:
            for kind, nbytes in job.trace.bytes_by_kind.items():
                if kind in charged:
                    charged[kind] += nbytes
        for kind in QUERY_TRAFFIC_KINDS:
            assert charged[kind] == wire[kind], (
                f"{kind}: traces charged {charged[kind]}, "
                f"wire carried {wire[kind]:.0f}")

    def test_coalesced_traffic_reconciles(self):
        network = build_network(batch_lookups=True, async_queries=True,
                                dispatch_window=0.05)
        origin = network.peer_ids()[0]
        network.reset_traffic()
        # Identical queries submitted at the same instant coalesce into
        # shared lookups and probe batches.
        jobs = [network.runtime.submit(origin, QUERIES[0])
                for _ in range(3)]
        network.simulator.run()
        assert all(job.done for job in jobs)
        assert network.runtime.coalesced_probe_keys() > 0
        self._reconcile(network, jobs)

    def test_open_workload_reconciles(self):
        network = build_network(batch_lookups=True, async_queries=True,
                                dispatch_window=0.04)
        origins = [network.peer_ids()[0]]
        network.reset_traffic()
        jobs = network.run_queries(QUERIES * 4, origins=origins,
                                   arrival_rate=300.0)
        self._reconcile(network, jobs)

    def test_open_workload_reconciles_with_pipelining(self):
        network = build_network(batch_lookups=True, async_queries=True,
                                dispatch_window=0.04,
                                pipeline_levels=True)
        origins = [network.peer_ids()[0]]
        network.reset_traffic()
        jobs = network.run_queries(QUERIES * 4, origins=origins,
                                   arrival_rate=300.0)
        self._reconcile(network, jobs)

    def test_single_query_still_charged_in_full(self):
        # With one participant the pro-rated share IS the whole message,
        # so the single-query byte equality with the sync path holds.
        network = build_network(batch_lookups=True, async_queries=True)
        origin = network.peer_ids()[0]
        network.reset_traffic()
        _results, trace = network.query(origin, QUERIES[1])
        wire = query_traffic_bytes(network)
        for kind in QUERY_TRAFFIC_KINDS:
            assert trace.bytes_by_kind.get(kind, 0) == wire[kind]
