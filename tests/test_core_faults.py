"""Tests for the unified fault facade (``AlvisNetwork.faults``).

The facade is a pure re-surfacing: ``network.fail_peer`` /
``network.churn`` delegate to it unchanged (twin-network equivalence is
pinned here), and the new faults — graceful departure with key
handover, transport partitions, per-peer degradation — compose with the
async runtime the same way churn always has: in-flight requests to an
unreachable peer surface as DROPPED probes, never exceptions.
"""

import pytest

from repro.core.config import AlvisConfig
from repro.core.keys import Key
from repro.core.lattice import ProbeStatus
from repro.core.network import AlvisNetwork
from repro.core.workload import PoissonArrivals, RoundRobinOrigins, Workload
from repro.dht.ring import HOP_BATCH_BASE_BYTES, HOP_KEY_BYTES
from repro.corpus import sample_documents
from repro.net import protocol
from repro.net.message import Message
from repro.net.transport import DeliveryError

QUERIES = ["scalable peer retrieval",
           "posting list truncation",
           "congestion control"]


def build_network(**overrides):
    config = AlvisConfig(**overrides)
    network = AlvisNetwork(num_peers=8, config=config, seed=42)
    network.distribute_documents(sample_documents())
    network.build_index(mode="hdk")
    return network


def probed_owner(network, query, origin):
    """A non-origin peer the query's first probes will contact."""
    probe = network.analyzer.analyze_query(query)
    for term in probe:
        owner = network.owner_peer_of_key(Key([term]).key_id)
        if owner != origin:
            return owner
    pytest.skip("every owner is the origin")


# ----------------------------------------------------------------------
# Delegation: the old surface is the facade
# ----------------------------------------------------------------------

class TestDelegation:
    def test_fail_peer_equals_faults_crash(self):
        via_method = build_network()
        via_facade = build_network()
        victim = via_method.peer_ids()[3]
        via_method.fail_peer(victim)
        via_facade.faults.crash(victim)
        assert via_method.peer_ids() == via_facade.peer_ids()
        origin = via_method.peer_ids()[0]
        for query in QUERIES:
            results_m, trace_m = via_method.query(origin, query)
            results_f, trace_f = via_facade.query(origin, query)
            assert [d.doc_id for d in results_m] == \
                [d.doc_id for d in results_f]
            assert trace_m.bytes_sent == trace_f.bytes_sent

    def test_churn_delegates_with_same_stream(self):
        via_method = build_network()
        via_facade = build_network()
        churn_m = via_method.churn()
        churn_f = via_facade.faults.churn()
        for _ in range(3):
            churn_m.leave()
            churn_f.leave()
        assert via_method.peer_ids() == via_facade.peer_ids()

    def test_crash_guards(self):
        network = build_network()
        with pytest.raises(KeyError):
            network.faults.crash(424242)
        while network.num_peers > 1:
            network.faults.crash(network.peer_ids()[-1])
        with pytest.raises(ValueError, match="last peer"):
            network.faults.crash(network.peer_ids()[0])


# ----------------------------------------------------------------------
# Graceful departure: handover, not loss
# ----------------------------------------------------------------------

class TestGracefulDeparture:
    def test_index_handed_to_successor(self):
        network = build_network()
        victim = network.peer_ids()[4]
        fragment_before = len(network.peer(victim).fragment)
        network.reset_traffic()
        network.faults.graceful_depart(victim)
        assert victim not in network.peer_ids()
        handover = network.bytes_by_kind().get(protocol.HANDOVER, 0)
        if fragment_before:
            assert handover > 0
        # The handed-over keys resolve at the survivors: every key the
        # departed peer owned is still probe-able.
        origin = network.peer_ids()[0]
        for query in QUERIES:
            _results, trace = network.query(origin, query)
            assert all(status != ProbeStatus.DROPPED
                       for _key, status in trace.probes)

    def test_graceful_vs_crash_recall(self):
        # The point of the goodbye: the index fragment survives a
        # graceful departure but vanishes in a crash.
        graceful = build_network()
        crashed = build_network()
        victim = graceful.peer_ids()[4]
        total_keys = sum(len(p.fragment) for p in graceful.peers())
        graceful.faults.graceful_depart(victim)
        crashed.faults.crash(victim)
        keys_graceful = sum(len(p.fragment)
                            for p in graceful.peers())
        keys_crashed = sum(len(p.fragment) for p in crashed.peers())
        assert keys_graceful == total_keys
        assert keys_crashed < total_keys

    def test_guards(self):
        network = build_network()
        with pytest.raises(KeyError):
            network.faults.graceful_depart(424242)


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------

class TestPartition:
    def test_sync_cross_cut_drops(self):
        network = build_network()
        origin = network.peer_ids()[0]
        isolated = probed_owner(network, QUERIES[0], origin)
        network.faults.partition([isolated])
        assert network.faults.partitioned
        _results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1
        assert any(status == ProbeStatus.DROPPED
                   for _key, status in trace.probes)

    def test_sync_transport_request_raises(self):
        network = build_network()
        origin = network.peer_ids()[0]
        isolated = network.peer_ids()[5]
        network.faults.partition([isolated])
        with pytest.raises(DeliveryError, match="partition"):
            network.transport.request(
                Message(src=origin, dst=isolated, kind="Ping",
                        payload={}))

    def test_publish_resolution_cut_mid_route_raises(self, scan_route):
        # A partition turns off bulk hop accounting, so an indexing-side
        # resolution delivers hop by hop: the hops before the cut one
        # are charged, then the cut hop raises.
        network = AlvisNetwork(num_peers=24, seed=42)
        origin = network.peer_ids()[0]
        key_id = 0
        path = [origin]
        while len(path) < 4:
            key_id += 1 << 52
            path = scan_route(network.ring, origin, key_id)
        network.faults.partition([path[3]])
        metrics = network.simulator.metrics
        with pytest.raises(DeliveryError, match="partition"):
            network.publish_owners(origin, [key_id])
        assert metrics.counter_value("net.msgs.sent.LookupHop") == 2
        assert metrics.counter_value("net.bytes.sent.LookupHop") == \
            2 * (HOP_BATCH_BASE_BYTES + HOP_KEY_BYTES)
        assert network.transport.msgs_in[path[1]] == 1
        assert network.transport.msgs_in[path[2]] == 1
        assert network.transport.msgs_in[path[3]] == 0

    def test_async_cross_cut_drops(self):
        network = build_network()
        origin = network.peer_ids()[0]
        isolated = probed_owner(network, QUERIES[0], origin)
        network.faults.partition([isolated])
        _results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1

    def test_heal_restores_full_recall(self):
        partitioned = build_network()
        pristine = build_network()
        origin = partitioned.peer_ids()[0]
        isolated = probed_owner(partitioned, QUERIES[0], origin)
        partitioned.faults.partition([isolated])
        partitioned.query(origin, QUERIES[0])
        partitioned.faults.heal()
        assert not partitioned.faults.partitioned
        healed_results, healed_trace = partitioned.query(
            origin, QUERIES[0])
        clean_results, _trace = pristine.query(origin, QUERIES[0])
        assert healed_trace.dropped_count == 0
        assert [d.doc_id for d in healed_results] == \
            [d.doc_id for d in clean_results]

    def test_same_side_delivery_unaffected(self):
        # The cut blocks *cross*-group messages only: two majority-side
        # peers still exchange a routing hop while a third is isolated.
        network = build_network()
        peer_ids = network.peer_ids()
        network.faults.partition(peer_ids[:1])
        src, dst = peer_ids[1], peer_ids[2]
        _reply, rtt = network.transport.request(
            Message(src=src, dst=dst, kind=protocol.LOOKUP_HOP,
                    payload={}))
        assert rtt >= 0.0


# ----------------------------------------------------------------------
# Degradation
# ----------------------------------------------------------------------

class TestDegrade:
    def test_service_rate_override(self):
        network = build_network(service_rate=400.0)
        weak = network.peer_ids()[2]
        network.faults.degrade(weak, service_rate=100.0)
        assert network.transport.service_rate_of(weak) == 100.0
        assert network.transport.service_rate_of(
            network.peer_ids()[0]) == 400.0

    def test_service_rate_requires_model(self):
        network = build_network()      # service_rate=0: model inactive
        with pytest.raises(ValueError, match="service"):
            network.faults.degrade(network.peer_ids()[0],
                                   service_rate=100.0)

    def test_cache_shrink_drops_contents(self):
        network = build_network(cache_bytes=1 << 16, cache_ttl=10.0)
        origin = network.peer_ids()[0]
        network.query(origin, QUERIES[0])
        network.query(origin, QUERIES[0])   # warm the probe cache
        network.faults.degrade(origin, cache_bytes=0)
        _results, trace = network.query(origin, QUERIES[0])
        assert trace.cache_hits == 0

    def test_guards(self):
        network = build_network()
        with pytest.raises(KeyError):
            network.faults.degrade(424242, cache_bytes=0)
        with pytest.raises(ValueError, match="cache_bytes"):
            network.faults.degrade(network.peer_ids()[0],
                                   cache_bytes=-1)


# ----------------------------------------------------------------------
# Crashes under active async queries (the coverage satellite)
# ----------------------------------------------------------------------

class TestCrashUnderLoad:
    def test_async_in_flight_requests_drop_not_raise(self):
        network = build_network(batch_lookups=True)
        origins = network.peer_ids()[:2]
        victim = probed_owner(network, QUERIES[0], origins[0])
        if victim in origins:
            pytest.skip("victim would also be an origin")
        # 0.15 lands inside the flight window of the first query's
        # ProbeBatch to the victim (sent 0.14, delivered 0.16 under the
        # 0.02s constant-latency model at this seed), so the crash
        # catches a request genuinely in flight.
        network.simulator.schedule(
            0.15, lambda: network.fail_peer(victim))
        jobs = network.run_workload(Workload(
            QUERIES * 4, PoissonArrivals(200.0), RoundRobinOrigins(origins)))
        assert all(job.done for job in jobs)
        assert network.runtime.active == 0
        assert victim not in network.peer_ids()
        dropped = sum(job.trace.dropped_count for job in jobs)
        assert dropped >= 1

    def test_facade_crash_mid_run_equals_fail_peer(self):
        via_method = build_network()
        via_facade = build_network()
        victim = probed_owner(via_method, QUERIES[0],
                              via_method.peer_ids()[0])
        origins = [p for p in via_method.peer_ids() if p != victim][:2]
        via_method.simulator.schedule(
            0.001, lambda: via_method.fail_peer(victim))
        via_facade.simulator.schedule(
            0.001, lambda: via_facade.faults.crash(victim))
        workload = Workload(QUERIES * 2, PoissonArrivals(150.0),
                            RoundRobinOrigins(origins))
        jobs_m = via_method.run_workload(workload)
        jobs_f = via_facade.run_workload(workload)
        assert [[d.doc_id for d in job.results] for job in jobs_m] == \
            [[d.doc_id for d in job.results] for job in jobs_f]
        assert [job.trace.dropped_count for job in jobs_m] == \
            [job.trace.dropped_count for job in jobs_f]

    def test_sync_half_dead_owner_drops(self):
        # Transport endpoint gone but ring entry intact (the classic
        # half-dead peer): a closed-loop query sees a "dropped" outcome
        # and reports DROPPED, no raise.
        network = build_network(batch_lookups=True)
        origin = network.peer_ids()[0]
        victim = probed_owner(network, QUERIES[0], origin)
        network.transport.unregister(victim)
        results, trace = network.query(origin, QUERIES[0])
        assert trace.dropped_count >= 1
