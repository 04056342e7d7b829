"""Tests for the query engine (event-kernel L3/L4 execution).

The load-bearing property: moving every query onto the event kernel
changed *timing*, never traffic semantics — identical top-k, identical
bytes, identical probe statuses versus the deleted synchronous engine
(pinned as goldens captured on it).  On top of that sit the engine's
capabilities: genuinely concurrent queries, clock-measured latency,
cross-query dispatch batching, the per-probe wire policy, level
pipelining and graceful churn drops.
"""

import hashlib

import pytest

from repro.core.config import AlvisConfig
from repro.core.lattice import ProbeStatus
from repro.core.network import AlvisNetwork
from repro.core.workload import PoissonArrivals, RoundRobinOrigins, Workload
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

def fingerprint(results, trace):
    return ([document.doc_id for document in results],
            sorted(trace.bytes_by_kind.items()), trace.bytes_sent,
            trace.lookup_hops, trace.request_messages,
            [(key.terms, status.name) for key, status in trace.probes],
            trace.cache_hits, trace.cache_misses)


def run_closed_loop(network, queries, **kwargs):
    """Query after query from one origin: (bytes per query, digest of
    every query's fingerprint)."""
    origin = network.peer_ids()[0]
    rows = [fingerprint(*network.query(origin, query, **kwargs))
            for query in queries]
    return ([row[2] for row in rows],
            hashlib.sha1(repr(rows).encode("utf-8")).hexdigest())


#: Captured on the deleted synchronous frontier-batched engine (the
#: closed-loop twin of the engine's batched policy): per case, the bytes
#: of every query and a digest of every query's results, per-kind bytes,
#: hops, request count, probe statuses and cache hits/misses.
SYNC_BATCHED_GOLDEN = {
    "single": ([1384, 2060, 552],
               "36633d90b2c27d7c9c07aaf63665af94abfd6eb0"),
    "features": ([1311, 2060, 552, 0, 0, 0],
                 "4935a262aaefbd61d28566490cd542c8940e93a0"),
    "refine": ([2512], "0f4def708d39f56df09392647acc37b66ed8c745"),
    "qdi": ([1575, 2348, 552], "27c97136228ac21d69a9cf2e750707f866238844"),
}

#: The same engine over 12 queries from rotating origins (24 peers).
SYNC_BATCHED_SEQUENCE = {
    "wire": {"LookupHop": 10875.0, "ProbeBatch": 4110.0,
             "ProbeBatchReply": 10570.0},
    "bytes": [2113, 1491, 1434, 1513, 2835, 1402, 3089, 1680, 1909, 3408,
              1647, 3034],
    "digest": "cfc5e870868a4ed2a8e14b8bb302ca689d4b00fd",
}


class TestCrossModeEquality:
    """A query through the engine reproduces the synchronous batched
    engine's goldens exactly."""

    def test_single_query_traffic_identical(self):
        network = build_network()
        assert run_closed_loop(network, QUERIES) == \
            SYNC_BATCHED_GOLDEN["single"]

    def test_equality_with_engine_features_on(self):
        network = build_network(cache_bytes=64 * 1024,
                                topk_early_stop=True, cache_lookups=True)
        # Repeats exercise the caches.
        assert run_closed_loop(network, QUERIES + QUERIES) == \
            SYNC_BATCHED_GOLDEN["features"]

    def test_equality_with_refinement(self):
        network = build_network()
        assert run_closed_loop(network, QUERIES[:1], refine=True) == \
            SYNC_BATCHED_GOLDEN["refine"]

    def test_equality_under_qdi(self):
        network = build_network(mode="qdi")
        assert run_closed_loop(network, QUERIES) == \
            SYNC_BATCHED_GOLDEN["qdi"]

    def test_query_sequence_traffic_identical(self, small_corpus,
                                              small_workload):
        # Regression: the sync batched engine used to resolve keys from
        # the ring-wide owner memo indexing filled, so over a query
        # sequence it sent about half the LookupHop bytes of its async
        # twin.  Every query pays its own routing, query after query.
        network = AlvisNetwork(num_peers=24, config=AlvisConfig(), seed=7)
        network.distribute_documents(small_corpus.documents())
        network.build_index(mode="hdk")
        network.reset_traffic()
        origins = network.peer_ids()
        rows = [fingerprint(*network.query(origins[index % len(origins)],
                                           list(small_workload.pool[index])))
                for index in range(12)]
        assert network.bytes_by_kind() == SYNC_BATCHED_SEQUENCE["wire"]
        assert [row[2] for row in rows] == SYNC_BATCHED_SEQUENCE["bytes"]
        assert hashlib.sha1(repr(rows).encode("utf-8")).hexdigest() == \
            SYNC_BATCHED_SEQUENCE["digest"]

    def test_dispatch_window_changes_latency_not_traffic(self):
        fast = build_network()
        windowed = build_network(dispatch_window=0.05)
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
        network = build_network()
        origin = network.peer_ids()[0]
        started = network.simulator.now
        _results, trace = network.query(origin, QUERIES[0])
        assert trace.started_at >= started
        assert trace.finished_at > trace.started_at
        assert trace.latency == pytest.approx(trace.finished_at
                                              - trace.started_at)
        assert trace.latency > 0.0

    def test_trace_byte_audit(self):
        network = build_network()
        origin = network.peer_ids()[0]
        _results, trace = network.query(origin, QUERIES[1])
        assert trace.bytes_sent == sum(trace.bytes_by_kind.values())
        assert trace.summary()["latency"] == pytest.approx(trace.latency)


# ----------------------------------------------------------------------
# Concurrency: the open-workload driver
# ----------------------------------------------------------------------

class TestRunQueries:
    def test_rejects_bad_arrival_rate(self):
        network = build_network()
        with pytest.raises(ValueError):
            network.run_workload(Workload(QUERIES, PoissonArrivals(0.0)))

    def test_queries_genuinely_overlap(self):
        network = build_network()
        workload = QUERIES * 4
        jobs = network.run_workload(Workload(workload, PoissonArrivals(200.0)))
        assert len(jobs) == len(workload)
        assert all(job.done for job in jobs)
        assert all(job.trace.latency > 0 for job in jobs)
        assert network.runtime.peak_active > 1
        assert network.runtime.completed == len(workload)
        assert len(network.runtime.latencies) == len(workload)

    def test_deterministic_under_fixed_seed(self):
        first = build_network()
        second = build_network()
        workload = Workload(QUERIES * 2, PoissonArrivals(100.0))
        jobs_first = first.run_workload(workload)
        jobs_second = second.run_workload(workload)
        assert [doc_ids(job.results) for job in jobs_first] == \
            [doc_ids(job.results) for job in jobs_second]
        assert [job.trace.latency for job in jobs_first] == \
            [job.trace.latency for job in jobs_second]

    def test_results_match_sequential_execution(self):
        # Concurrency must not change what any query returns (hdk mode:
        # probes have no side effects).
        concurrent = build_network()
        sequential = build_network()
        origin = concurrent.peer_ids()[0]
        jobs = concurrent.run_workload(Workload(
            QUERIES * 2, PoissonArrivals(500.0), RoundRobinOrigins([origin])))
        for job in jobs:
            expected, _trace = sequential.query(origin,
                                                list(job.terms))
            assert doc_ids(job.results) == doc_ids(expected)


# ----------------------------------------------------------------------
# Cross-query dispatch batching
# ----------------------------------------------------------------------

class TestDispatchBatching:
    def test_concurrent_duplicate_queries_coalesce(self):
        network = build_network(dispatch_window=0.05)
        origin = network.peer_ids()[0]
        baseline = build_network()
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
        independent = build_network()
        batched = build_network(dispatch_window=0.05)
        origin_list = [independent.peer_ids()[0]]
        before = independent.messages_sent_total()
        open_workload = Workload(workload, PoissonArrivals(300.0),
                                 RoundRobinOrigins(origin_list))
        independent.run_workload(open_workload)
        independent_messages = (independent.messages_sent_total()
                                - before)
        before = batched.messages_sent_total()
        batched.run_workload(open_workload)
        batched_messages = batched.messages_sent_total() - before
        assert batched_messages < independent_messages


# ----------------------------------------------------------------------
# The per-probe policy (batch_lookups=False)
# ----------------------------------------------------------------------

class TestPerProbePolicy:
    def test_concurrent_duplicate_queries_never_merge(self):
        # The same two queries that coalesce under frontier batching
        # (see TestDispatchBatching): per-probe, every key keeps its own
        # lookup round and ProbeKey, across queries too.
        network = build_network(batch_lookups=False, dispatch_window=0.05)
        origin = network.peer_ids()[0]
        network.reset_traffic()
        first = network.runtime.submit(origin, QUERIES[0])
        second = network.runtime.submit(origin, QUERIES[0])
        network.simulator.run()
        assert first.done and second.done
        assert doc_ids(first.results) == doc_ids(second.results)
        assert network.runtime.coalesced_probe_keys() == 0
        wire = network.bytes_by_kind()
        assert "ProbeBatch" not in wire and "ProbeBatchReply" not in wire
        assert wire["ProbeKey"] > 0
        # Exactly twice the traffic of one query alone.
        alone = build_network(batch_lookups=False)
        alone.reset_traffic()
        alone.query(origin, QUERIES[0])
        assert network.bytes_by_kind() == {
            kind: 2 * nbytes for kind, nbytes in alone.bytes_by_kind().items()}
        assert network.messages_sent_total() == \
            2 * alone.messages_sent_total()

    def test_one_request_per_probed_key(self):
        network = build_network(batch_lookups=False)
        origin = network.peer_ids()[0]
        network.reset_traffic()
        _results, trace = network.query(origin, QUERIES[0])
        probed = [key for key, status in trace.probes
                  if status not in (ProbeStatus.SKIPPED,
                                    ProbeStatus.PRUNED)]
        assert trace.request_messages == len(probed)
        assert set(trace.bytes_by_kind) <= {"LookupHop", "ProbeKey",
                                             "ProbeReply"}
        assert trace.bytes_by_kind == {
            kind: int(nbytes)
            for kind, nbytes in network.bytes_by_kind().items()}

    def test_results_match_frontier_batching(self):
        per_probe = build_network(batch_lookups=False)
        batched = build_network()
        origin = batched.peer_ids()[0]
        for query in QUERIES:
            probe_results, probe_trace = per_probe.query(origin, query)
            batch_results, batch_trace = batched.query(origin, query)
            assert doc_ids(probe_results) == doc_ids(batch_results)
            assert probe_trace.probes == batch_trace.probes

    def test_congestion_window_unit_per_request(self):
        plain = build_network(batch_lookups=False)
        gated = build_network(batch_lookups=False, congestion_control=True)
        origin = plain.peer_ids()[0]
        plain_results, plain_trace = plain.query(origin, QUERIES[0])
        gated_results, gated_trace = gated.query(origin, QUERIES[0])
        assert doc_ids(plain_results) == doc_ids(gated_results)
        assert plain_trace.bytes_by_kind == gated_trace.bytes_by_kind
        # Every one-key lookup round and every remote ProbeKey is one
        # window unit, acked once; self-addressed probes bypass it.
        probed = [key for key, status in gated_trace.probes
                  if status not in (ProbeStatus.SKIPPED,
                                    ProbeStatus.PRUNED)]
        remote = [key for key in probed
                  if gated.owner_peer_of_key(key.key_id) != origin]
        window = gated.runtime.dispatcher(origin).cwnd
        assert window.acks == len(probed) + len(remote)
        assert window.outstanding == 0


# ----------------------------------------------------------------------
# Level pipelining
# ----------------------------------------------------------------------

class TestLevelPipelining:
    def test_pipelining_preserves_results(self):
        plain = build_network()
        pipelined = build_network(pipeline_levels=True)
        origin = plain.peer_ids()[0]
        for query in QUERIES:
            plain_results, plain_trace = plain.query(origin, query)
            piped_results, piped_trace = pipelined.query(origin, query)
            assert doc_ids(plain_results) == doc_ids(piped_results)
            assert plain_trace.probes == piped_trace.probes
            # Speculative lookups can only add routing traffic.
            assert piped_trace.bytes_sent >= plain_trace.bytes_sent

    def test_pipelining_cuts_latency(self):
        plain = build_network()
        pipelined = build_network(pipeline_levels=True)
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
        network = build_network()
        origin = self._kill_probe_owner(network, QUERIES[0])
        results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1
        assert any(status == ProbeStatus.DROPPED
                   for _key, status in trace.probes)
        assert trace.summary()["dropped"] >= 1

    def test_sync_batched_query_survives_departed_owner(self):
        network = build_network()
        origin = self._kill_probe_owner(network, QUERIES[0])
        results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1

    def test_sync_per_probe_query_survives_departed_owner(self):
        network = build_network(batch_lookups=False)
        origin = self._kill_probe_owner(network, QUERIES[0])
        results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1

    def test_open_workload_survives_peer_crash(self):
        # A peer crashes (ring + transport) while ~all queries are in
        # flight — including queries *originating* at the victim.  Every
        # query must still complete; victims' queries wind down with
        # dropped probes instead of DeliveryError.
        network = build_network(dispatch_window=0.03,
                                pipeline_levels=True)
        victim = network.peer_ids()[-1]
        network.simulator.schedule(0.05,
                                   lambda: network.fail_peer(victim))
        jobs = network.run_workload(Workload(QUERIES * 4, PoissonArrivals(200.0)))
        assert all(job.done for job in jobs)
        assert network.runtime.active == 0

    def test_churn_process_interleaved_with_queries(self):
        network = build_network()
        churn = network.churn()
        network.simulator.schedule(
            0.04, lambda: (churn.leave(), churn.join()))
        jobs = network.run_workload(Workload(QUERIES * 4, PoissonArrivals(150.0)))
        assert all(job.done for job in jobs)

    def test_dropped_probes_are_not_qdi_missing(self):
        # A dropped probe must not look like a "missing" combination.
        network = build_network()
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
        network = build_network()
        network.run_workload(Workload(QUERIES * 3, PoissonArrivals(150.0)))
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
        assert "query engine" in rendered
        assert "p95" in rendered



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
        network = build_network(dispatch_window=0.05)
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
        network = build_network(dispatch_window=0.04)
        origins = [network.peer_ids()[0]]
        network.reset_traffic()
        jobs = network.run_workload(Workload(
            QUERIES * 4, PoissonArrivals(300.0), RoundRobinOrigins(origins)))
        self._reconcile(network, jobs)

    def test_open_workload_reconciles_with_pipelining(self):
        network = build_network(dispatch_window=0.04,
                                pipeline_levels=True)
        origins = [network.peer_ids()[0]]
        network.reset_traffic()
        jobs = network.run_workload(Workload(
            QUERIES * 4, PoissonArrivals(300.0), RoundRobinOrigins(origins)))
        self._reconcile(network, jobs)

    def test_single_query_still_charged_in_full(self):
        # With one participant the pro-rated share IS the whole message,
        # so the single-query byte equality with the sync path holds.
        network = build_network()
        origin = network.peer_ids()[0]
        network.reset_traffic()
        _results, trace = network.query(origin, QUERIES[1])
        wire = query_traffic_bytes(network)
        for kind in QUERY_TRAFFIC_KINDS:
            assert trace.bytes_by_kind.get(kind, 0) == wire[kind]
