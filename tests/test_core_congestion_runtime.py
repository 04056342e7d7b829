"""Tests for congestion-aware dispatch (AIMD flow control, E15 path).

The load-bearing properties:

* ``congestion_control=False`` (the default) leaves the async runtime's
  traffic byte-identical to the unthrottled PR-2 path — the controller
  is strictly opt-in;
* with the transport's bounded service queues saturated, the AIMD
  window backs off, retransmits overflow drops, and every query still
  completes with the same top-k the uncontrolled run produces;
* the congestion state is observable: trace retransmission counts,
  dispatcher backlog/window, service-queue drops in the monitor.
"""

import pytest

from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.corpus import sample_documents
from repro.eval.monitor import NetworkMonitor

QUERIES = ["scalable peer retrieval",
           "posting list truncation",
           "congestion control"]

#: A service model tight enough that a burst of concurrent queries from
#: one origin overflows the hot owners' queues.
TIGHT_SERVICE = dict(service_rate=25.0, queue_capacity=2,
                     service_reject_cost=0.5)


def build_network(**overrides):
    config = AlvisConfig(batch_lookups=True,
                         **overrides)
    network = AlvisNetwork(num_peers=8, config=config, seed=42)
    network.distribute_documents(sample_documents())
    network.build_index(mode="hdk")
    return network


def doc_ids(results):
    return [document.doc_id for document in results]


def run_burst(network, copies=8, rate=400.0):
    """A same-origin burst of concurrent queries (the congestion case)."""
    origin = network.peer_ids()[0]
    workload = (QUERIES * copies)[: 3 * copies]
    return network.run_queries(workload, origins=[origin],
                               arrival_rate=rate)


# ----------------------------------------------------------------------
# Off by default: byte-identical to the unthrottled async path
# ----------------------------------------------------------------------

class TestOffByDefault:
    def test_defaults_leave_controller_off(self):
        config = AlvisConfig()
        assert not config.congestion_control
        assert config.service_rate == 0.0
        network = build_network()
        assert not network.transport.service_model_active
        assert network.runtime.dispatcher(
            network.peer_ids()[0]).cwnd is None

    def test_single_query_byte_identical_without_congestion_control(self):
        baseline = build_network()
        explicit = build_network(congestion_control=False)
        origin = baseline.peer_ids()[0]
        for query in QUERIES:
            base_results, base_trace = baseline.query(origin, query)
            off_results, off_trace = explicit.query(origin, query)
            assert doc_ids(base_results) == doc_ids(off_results)
            assert base_trace.bytes_sent == off_trace.bytes_sent
            assert base_trace.bytes_by_kind == off_trace.bytes_by_kind
            assert off_trace.retransmissions == 0

    def test_controller_without_congestion_changes_nothing_but_timing(self):
        # An uncongested network: the window never fills, so the gated
        # path issues exactly the unthrottled traffic.
        baseline = build_network()
        gated = build_network(congestion_control=True)
        origin = baseline.peer_ids()[0]
        for query in QUERIES:
            base_results, base_trace = baseline.query(origin, query)
            gated_results, gated_trace = gated.query(origin, query)
            assert doc_ids(base_results) == doc_ids(gated_results)
            assert base_trace.bytes_sent == gated_trace.bytes_sent
            assert base_trace.bytes_by_kind == gated_trace.bytes_by_kind
            assert base_trace.probes == gated_trace.probes
            assert gated_trace.retransmissions == 0

    def test_open_workload_traffic_identical_without_controller(self):
        # The full PR-2 path (dispatch batching + pipelining) is
        # untouched when the congestion knobs stay off.
        baseline = build_network(dispatch_window=0.03,
                                 pipeline_levels=True)
        explicit = build_network(dispatch_window=0.03,
                                 pipeline_levels=True,
                                 congestion_control=False)
        jobs_base = run_burst(baseline)
        jobs_off = run_burst(explicit)
        assert [doc_ids(job.results) for job in jobs_base] == \
            [doc_ids(job.results) for job in jobs_off]
        assert baseline.bytes_sent_total() == explicit.bytes_sent_total()
        assert baseline.messages_sent_total() == \
            explicit.messages_sent_total()


# ----------------------------------------------------------------------
# Under saturation: backoff, retransmission, identical results
# ----------------------------------------------------------------------

class TestSaturatedDispatch:
    def test_overflow_drops_are_retried_to_completion(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        jobs = run_burst(network)
        assert all(job.done for job in jobs)
        # The tight service model really overflowed...
        assert network.transport.queue_drops_total() > 0
        # ...and every drop was either retried or absorbed: no query
        # lost a probe.
        assert all(job.trace.dropped_count == 0 for job in jobs)
        assert network.runtime.retransmissions() > 0

    def test_window_reacts_to_congestion(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        run_burst(network)
        dispatcher = network.runtime.dispatcher(network.peer_ids()[0])
        assert dispatcher.cwnd is not None
        assert dispatcher.cwnd.drops > 0
        assert dispatcher.cwnd.decreases > 0
        # Decrease is per congestion event, never per drop.
        assert dispatcher.cwnd.decreases <= dispatcher.cwnd.drops
        assert len(dispatcher.cwnd.trajectory) > 0

    def test_window_guard_seeded_before_first_ack(self):
        # Regression: without an RTT seed the once-per-RTT decrease
        # guard is vacuous (srtt=0) and a startup overflow burst —
        # drops before the first ack — halves the window once per drop.
        network = build_network(congestion_control=True)
        dispatcher = network.runtime.dispatcher(network.peer_ids()[0])
        assert dispatcher.cwnd.srtt == pytest.approx(
            network.config.congestion_retransmit_timeout)

    def test_results_match_uncontrolled_run(self):
        controlled = build_network(congestion_control=True,
                                   **TIGHT_SERVICE)
        uncontrolled = build_network(congestion_control=False,
                                     **TIGHT_SERVICE)
        jobs_aimd = run_burst(controlled)
        jobs_open = run_burst(uncontrolled)
        assert [doc_ids(job.results) for job in jobs_aimd] == \
            [doc_ids(job.results) for job in jobs_open]

    def test_retransmissions_surface_in_traces(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        jobs = run_burst(network)
        total = sum(job.trace.retransmissions for job in jobs)
        assert total > 0
        summary = jobs[0].trace.summary()
        assert "retransmissions" in summary

    def test_retransmission_budget_exhaustion_drops_probes(self):
        network = build_network(congestion_control=True,
                                congestion_max_retransmits=0,
                                **TIGHT_SERVICE)
        jobs = run_burst(network)
        assert all(job.done for job in jobs)
        # With no retries allowed, overflow drops become dropped probes.
        assert sum(job.trace.dropped_count for job in jobs) > 0

    def test_blind_retransmission_without_controller(self):
        network = build_network(congestion_control=False,
                                **TIGHT_SERVICE)
        jobs = run_burst(network)
        assert all(job.done for job in jobs)
        assert network.transport.queue_drops_total() > 0
        assert network.runtime.retransmissions() > 0
        assert all(job.trace.dropped_count == 0 for job in jobs)


# ----------------------------------------------------------------------
# Size-triggered dispatch flush
# ----------------------------------------------------------------------

class TestSizeTriggeredFlush:
    def test_window_worth_of_work_flushes_early(self):
        network = build_network(congestion_control=True,
                                dispatch_window=0.5,
                                congestion_initial_window=1.0)
        jobs = run_burst(network, copies=4)
        assert all(job.done for job in jobs)
        dispatcher = network.runtime.dispatcher(network.peer_ids()[0])
        assert dispatcher.early_flushes > 0

    def test_no_early_flush_without_controller(self):
        network = build_network(dispatch_window=0.05)
        run_burst(network, copies=4)
        dispatcher = network.runtime.dispatcher(network.peer_ids()[0])
        assert dispatcher.early_flushes == 0


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

class TestMonitoring:
    def test_congestion_counters_in_snapshot(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        run_burst(network)
        snapshot = NetworkMonitor(network).snapshot()
        assert snapshot.congestion_queue_drops > 0
        assert snapshot.congestion_retransmissions > 0
        assert snapshot.congestion_window_mean > 0.0
        assert snapshot.congestion_window_decreases > 0
        assert snapshot.congestion_backlog == 0     # all drained
        flat = snapshot.as_dict()
        assert flat["congestion_queue_drops"] == \
            snapshot.congestion_queue_drops
        assert flat["congestion_window_mean"] == \
            snapshot.congestion_window_mean

    def test_dashboard_renders_congestion_line(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        run_burst(network)
        monitor = NetworkMonitor(network)
        rendered = monitor.render(monitor.snapshot())
        assert "congestion:" in rendered
        assert "cwnd" in rendered

    def test_quiet_without_congestion(self):
        network = build_network()
        network.query(network.peer_ids()[0], QUERIES[0])
        snapshot = NetworkMonitor(network).snapshot()
        assert snapshot.congestion_queue_drops == 0
        assert snapshot.congestion_retransmissions == 0
        assert "congestion:" not in NetworkMonitor(network).render(
            snapshot)

    def test_runtime_congestion_summary_shape(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        run_burst(network)
        summary = network.runtime.congestion_summary()
        for field in ("retransmissions", "backlog", "early_flushes",
                      "window_mean", "window_min", "window_decreases"):
            assert field in summary
        assert summary["window_min"] <= summary["window_mean"]


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------

class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(congestion_initial_window=0.5),
        dict(congestion_initial_window=8.0, congestion_max_window=4.0),
        dict(congestion_max_retransmits=-1),
        dict(congestion_retransmit_timeout=0.0),
        dict(service_rate=-1.0),
        dict(queue_capacity=0),
        dict(service_reject_cost=-0.5),
    ])
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            AlvisConfig(**overrides)
