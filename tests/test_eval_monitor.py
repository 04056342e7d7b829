"""Tests for the network monitor (the demo's monitoring station)."""

import pytest

from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.core.workload import PoissonArrivals, Workload
from repro.corpus.loader import sample_documents
from repro.eval.monitor import NetworkMonitor


@pytest.fixture()
def monitored_network():
    network = AlvisNetwork(num_peers=6, seed=71)
    network.distribute_documents(sample_documents())
    network.build_index(mode="hdk")
    return network


class TestSnapshot:
    def test_counts_match_network(self, monitored_network):
        monitor = NetworkMonitor(monitored_network)
        snapshot = monitor.snapshot()
        assert snapshot.num_peers == 6
        assert snapshot.num_documents == 12
        assert snapshot.index_mode == "hdk"
        assert snapshot.total_keys > 0
        assert snapshot.total_postings > 0
        assert snapshot.storage_bytes_total > 0
        assert 0 <= snapshot.storage_gini < 1
        assert snapshot.bytes_total > 0

    def test_keys_by_size_sums_to_total(self, monitored_network):
        snapshot = NetworkMonitor(monitored_network).snapshot()
        assert sum(snapshot.keys_by_size.values()) == snapshot.total_keys

    def test_traffic_breakdown_covers_total(self, monitored_network):
        snapshot = NetworkMonitor(monitored_network).snapshot()
        assert snapshot.traffic.total == pytest.approx(
            snapshot.bytes_total)

    def test_history_accumulates(self, monitored_network):
        monitor = NetworkMonitor(monitored_network)
        monitor.snapshot()
        monitor.snapshot()
        assert len(monitor.history) == 2

    def test_as_dict_flat(self, monitored_network):
        snapshot = NetworkMonitor(monitored_network).snapshot()
        flat = snapshot.as_dict()
        assert flat["peers"] == 6.0
        assert "traffic_retrieval" in flat
        assert all(isinstance(value, float) for value in flat.values())


class TestDelta:
    def test_delta_captures_query_traffic(self, monitored_network):
        monitor = NetworkMonitor(monitored_network)
        monitor.snapshot()
        origin = monitored_network.peer_ids()[0]
        monitored_network.query(origin, "posting list truncation")
        monitor.snapshot()
        delta = monitor.delta()
        assert delta["bytes_total"] > 0
        assert delta["messages_total"] > 0
        assert delta["traffic_retrieval"] > 0
        assert delta["documents"] == 0

    def test_delta_needs_two_snapshots(self, monitored_network):
        monitor = NetworkMonitor(monitored_network)
        monitor.snapshot()
        with pytest.raises(ValueError):
            monitor.delta()


class TestRender:
    def test_render_contains_key_sections(self, monitored_network):
        text = NetworkMonitor(monitored_network).render()
        assert "AlvisP2P network monitor" in text
        assert "peers: 6" in text
        assert "global index:" in text
        assert "retrieval" in text

    def test_render_qdi_section(self):
        network = AlvisNetwork(
            num_peers=4, seed=72,
            config=AlvisConfig(qdi_activation_threshold=1))
        network.distribute_documents(sample_documents())
        network.build_index(mode="qdi")
        network.query(network.peer_ids()[0], "posting list truncation")
        text = NetworkMonitor(network).render()
        assert "QDI:" in text


class TestParallelProbeLatency:
    def test_per_probe_levels_run_concurrently(self):
        """A level's per-probe lookups and probes go out concurrently,
        so per-query latency is bounded by lattice depth, not lattice
        size: it stays below the one-message-at-a-time sum."""
        network = AlvisNetwork(num_peers=6, seed=73,
                               config=AlvisConfig(batch_lookups=False))
        network.distribute_documents(sample_documents())
        network.build_index(mode="hdk")
        network.reset_traffic()
        _r, trace = network.query(network.peer_ids()[0],
                                  "peer index network")
        assert trace.probed_count == 7
        # Every message costs the default constant one-way delay.
        one_at_a_time = 0.02 * network.messages_sent_total()
        assert 0.0 < trace.latency < one_at_a_time


class TestKernelMetrics:
    """Peak RSS + events/sec surfaced by the monitor and registry."""

    def _network(self):
        network = AlvisNetwork(num_peers=6, seed=11,
                               config=AlvisConfig())
        network.distribute_documents(sample_documents())
        network.build_index(mode="hdk")
        return network

    def test_snapshot_reports_kernel_throughput(self):
        network = self._network()
        network.run_workload(Workload(["peer network", "index"],
                                      PoissonArrivals(50.0)))
        snapshot = NetworkMonitor(network).snapshot()
        assert snapshot.events_processed == \
            network.simulator.events_processed
        assert snapshot.events_processed > 0
        assert snapshot.kernel_wall_seconds > 0.0
        assert snapshot.events_per_sec == pytest.approx(
            snapshot.events_processed / snapshot.kernel_wall_seconds)
        assert snapshot.peak_rss_kb > 0
        flat = snapshot.as_dict()
        for name in ("events_processed", "kernel_wall_seconds",
                     "events_per_sec", "peak_rss_kb"):
            assert name in flat

    def test_render_includes_kernel_line(self):
        network = self._network()
        network.run_workload(Workload(["peer network"],
                                      PoissonArrivals(50.0)))
        dashboard = NetworkMonitor(network).render()
        assert "events/s" in dashboard
        assert "peak RSS" in dashboard

    def test_metrics_registry_process_snapshot(self):
        from repro.sim.metrics import MetricsRegistry
        registry = MetricsRegistry()
        registry.counter("a.b").increment(2)
        plain = registry.snapshot()
        assert plain == {"a.b": 2.0}
        with_process = registry.snapshot(include_process=True)
        assert with_process["a.b"] == 2.0
        assert with_process["process.peak_rss_kb"] > 0

    def test_peak_rss_monotonic(self):
        from repro.util.process import peak_rss_kb
        first = peak_rss_kb()
        ballast = [0] * 500_000
        second = peak_rss_kb()
        assert second >= first > 0
        del ballast
