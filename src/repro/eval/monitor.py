"""Network monitoring — the demonstration's second machine.

Section 5: "A second demonstration machine will be setup to illustrate
the indexing/retrieval mechanisms implemented in our software.  It will
also report the current state of the network, as well as some critical
statistics about bandwidth consumption, storage, etc."

:class:`NetworkMonitor` is that machine: it aggregates the live state of
an :class:`~repro.core.network.AlvisNetwork` into a structured snapshot
(membership, index composition, traffic breakdown, load distribution,
QDI activity) and renders it as the text dashboard the demo displayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.eval.bandwidth import TrafficBreakdown, traffic_breakdown
from repro.eval.reporting import format_table
from repro.util.process import peak_rss_kb
from repro.util.stats import gini_coefficient, summarize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import AlvisNetwork

__all__ = ["NetworkSnapshot", "NetworkMonitor"]


@dataclass
class NetworkSnapshot:
    """One observation of the network's state."""

    num_peers: int
    num_documents: int
    index_mode: Optional[str]
    total_keys: int
    keys_by_size: Dict[int, int]
    total_postings: int
    storage_bytes_total: int
    storage_gini: float
    bytes_total: float
    messages_total: float
    traffic: TrafficBreakdown
    per_peer_messages_in: Dict[int, int]
    qdi_activations: int = 0
    qdi_evictions: int = 0
    #: Aggregated probe-cache counters across all peers (query engine).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    cache_bytes_used: int = 0
    #: Async query runtime: completed/active queries, outstanding async
    #: requests, and clock-measured latency percentiles.
    queries_completed: int = 0
    queries_active: int = 0
    peak_queries_active: int = 0
    requests_in_flight: int = 0
    query_latency_p50: float = 0.0
    query_latency_p95: float = 0.0
    query_latency_p99: float = 0.0
    #: Congestion control: service-queue overflow drops at endpoints,
    #: dispatcher retransmissions/backlog, and the AIMD window state.
    congestion_queue_drops: int = 0
    congestion_queued: int = 0
    congestion_retransmissions: int = 0
    congestion_backlog: int = 0
    congestion_early_flushes: int = 0
    congestion_window_mean: float = 0.0
    congestion_window_min: float = 0.0
    congestion_window_decreases: int = 0
    #: Kernel throughput and process memory (the scale-out metrics):
    #: events executed by the simulator, wall-clock spent in its run
    #: loops, the resulting events/sec, and peak resident set size.
    events_processed: int = 0
    kernel_wall_seconds: float = 0.0
    events_per_sec: float = 0.0
    peak_rss_kb: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view (for time series / plotting)."""
        flat = {
            "peers": float(self.num_peers),
            "documents": float(self.num_documents),
            "keys": float(self.total_keys),
            "postings": float(self.total_postings),
            "storage_bytes": float(self.storage_bytes_total),
            "storage_gini": self.storage_gini,
            "bytes_total": self.bytes_total,
            "messages_total": self.messages_total,
            "qdi_activations": float(self.qdi_activations),
            "qdi_evictions": float(self.qdi_evictions),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_evictions": float(self.cache_evictions),
            "cache_invalidations": float(self.cache_invalidations),
            "cache_bytes_used": float(self.cache_bytes_used),
            "queries_completed": float(self.queries_completed),
            "queries_active": float(self.queries_active),
            "peak_queries_active": float(self.peak_queries_active),
            "requests_in_flight": float(self.requests_in_flight),
            "query_latency_p50": self.query_latency_p50,
            "query_latency_p95": self.query_latency_p95,
            "query_latency_p99": self.query_latency_p99,
            "congestion_queue_drops": float(self.congestion_queue_drops),
            "congestion_queued": float(self.congestion_queued),
            "congestion_retransmissions":
                float(self.congestion_retransmissions),
            "congestion_backlog": float(self.congestion_backlog),
            "congestion_early_flushes":
                float(self.congestion_early_flushes),
            "congestion_window_mean": self.congestion_window_mean,
            "congestion_window_min": self.congestion_window_min,
            "congestion_window_decreases":
                float(self.congestion_window_decreases),
            "events_processed": float(self.events_processed),
            "kernel_wall_seconds": self.kernel_wall_seconds,
            "events_per_sec": self.events_per_sec,
            "peak_rss_kb": float(self.peak_rss_kb),
        }
        flat.update({f"traffic_{name}": value
                     for name, value in self.traffic.as_dict().items()})
        return flat


class NetworkMonitor:
    """Aggregates and renders network state; keeps a snapshot history."""

    def __init__(self, network: "AlvisNetwork"):
        self.network = network
        self.history: List[NetworkSnapshot] = []

    # ------------------------------------------------------------------

    def snapshot(self) -> NetworkSnapshot:
        """Observe the network now; the snapshot is appended to history."""
        network = self.network
        keys_by_size: Dict[int, int] = {}
        total_keys = 0
        total_postings = 0
        for peer in network.peers():
            for entry in peer.fragment:
                if not entry.postings and not entry.contributors:
                    continue
                total_keys += 1
                total_postings += len(entry.postings)
                size = len(entry.key)
                keys_by_size[size] = keys_by_size.get(size, 0) + 1
        per_peer_storage = list(
            network.per_peer_index_storage().values())
        qdi_activations = sum(
            peer.qdi.stats.activations for peer in network.peers()
            if peer.qdi is not None)
        qdi_evictions = sum(
            peer.qdi.stats.evictions for peer in network.peers()
            if peer.qdi is not None)
        cache_stats = [peer.probe_cache.stats for peer in network.peers()]
        runtime = network.runtime
        latency = runtime.latency_summary()
        service = network.transport.service_stats()
        congestion = runtime.congestion_summary()
        observed = NetworkSnapshot(
            num_peers=network.num_peers,
            num_documents=network.total_documents(),
            index_mode=network.mode,
            total_keys=total_keys,
            keys_by_size=keys_by_size,
            total_postings=total_postings,
            storage_bytes_total=sum(per_peer_storage),
            storage_gini=gini_coefficient(per_peer_storage)
            if per_peer_storage else 0.0,
            bytes_total=network.bytes_sent_total(),
            messages_total=network.messages_sent_total(),
            traffic=traffic_breakdown(network.bytes_by_kind()),
            per_peer_messages_in=network.per_peer_messages_in(),
            qdi_activations=qdi_activations,
            qdi_evictions=qdi_evictions,
            cache_hits=sum(stats.hits for stats in cache_stats),
            cache_misses=sum(stats.misses for stats in cache_stats),
            cache_evictions=sum(stats.evictions for stats in cache_stats),
            cache_invalidations=sum(stats.invalidations
                                    for stats in cache_stats),
            cache_bytes_used=sum(peer.probe_cache.used_bytes
                                 for peer in network.peers()),
            queries_completed=runtime.completed,
            queries_active=runtime.active,
            peak_queries_active=runtime.peak_active,
            requests_in_flight=network.transport.total_inflight(),
            query_latency_p50=latency["p50"],
            query_latency_p95=latency["p95"],
            query_latency_p99=latency["p99"],
            congestion_queue_drops=service["dropped"],
            congestion_queued=service["queued"],
            congestion_retransmissions=int(
                congestion["retransmissions"]),
            congestion_backlog=int(congestion["backlog"]),
            congestion_early_flushes=int(congestion["early_flushes"]),
            congestion_window_mean=congestion["window_mean"],
            congestion_window_min=congestion["window_min"],
            congestion_window_decreases=int(
                congestion["window_decreases"]),
            events_processed=network.simulator.events_processed,
            kernel_wall_seconds=network.simulator.wall_seconds,
            events_per_sec=network.simulator.events_per_sec,
            peak_rss_kb=peak_rss_kb(),
        )
        self.history.append(observed)
        return observed

    # ------------------------------------------------------------------

    def render(self, snapshot: Optional[NetworkSnapshot] = None) -> str:
        """The text dashboard of the demo's monitoring station."""
        if snapshot is None:
            snapshot = self.snapshot()
        lines = ["AlvisP2P network monitor", "=" * 40]
        lines.append(
            f"peers: {snapshot.num_peers}   documents: "
            f"{snapshot.num_documents}   index: "
            f"{snapshot.index_mode or 'not built'}")
        key_sizes = ", ".join(
            f"{size}-term: {count}"
            for size, count in sorted(snapshot.keys_by_size.items()))
        lines.append(f"global index: {snapshot.total_keys} keys "
                     f"({key_sizes or 'empty'}), "
                     f"{snapshot.total_postings} postings, "
                     f"{snapshot.storage_bytes_total:,} bytes "
                     f"(gini {snapshot.storage_gini:.2f})")
        traffic = snapshot.traffic
        lines.append(
            f"traffic: {snapshot.bytes_total:,.0f} bytes in "
            f"{snapshot.messages_total:,.0f} messages")
        lines.append(format_table(
            ["category", "bytes", "share"],
            [[name, value,
              value / traffic.total if traffic.total else 0.0]
             for name, value in (("routing", traffic.routing),
                                 ("indexing", traffic.indexing),
                                 ("retrieval", traffic.retrieval),
                                 ("other", traffic.other))]))
        if snapshot.per_peer_messages_in:
            load = summarize([float(v) for v in
                              snapshot.per_peer_messages_in.values()])
            lines.append(
                f"per-peer inbound messages: mean {load['mean']:.1f}, "
                f"p99 {load['p99']:.1f}, max {load['max']:.0f}")
        if snapshot.index_mode == "qdi":
            lines.append(
                f"QDI: {snapshot.qdi_activations} activations, "
                f"{snapshot.qdi_evictions} evictions")
        if snapshot.queries_completed or snapshot.queries_active:
            lines.append(
                f"query engine: {snapshot.queries_completed} queries "
                f"completed, {snapshot.queries_active} active "
                f"(peak {snapshot.peak_queries_active}), "
                f"{snapshot.requests_in_flight} requests in flight; "
                f"latency p50 {snapshot.query_latency_p50:.3f}s / "
                f"p95 {snapshot.query_latency_p95:.3f}s / "
                f"p99 {snapshot.query_latency_p99:.3f}s")
        if (snapshot.congestion_queue_drops
                or snapshot.congestion_retransmissions
                or snapshot.congestion_window_mean):
            lines.append(
                f"congestion: {snapshot.congestion_queue_drops} queue "
                f"drops ({snapshot.congestion_queued} queued), "
                f"{snapshot.congestion_retransmissions} retransmissions, "
                f"{snapshot.congestion_backlog} backlogged sends, "
                f"{snapshot.congestion_early_flushes} early flushes; "
                f"cwnd mean {snapshot.congestion_window_mean:.1f} / "
                f"min {snapshot.congestion_window_min:.1f} "
                f"({snapshot.congestion_window_decreases} decreases)")
        if snapshot.events_processed:
            lines.append(
                f"kernel: {snapshot.events_processed:,} events in "
                f"{snapshot.kernel_wall_seconds:.2f}s wall "
                f"({snapshot.events_per_sec:,.0f} events/s); "
                f"peak RSS {snapshot.peak_rss_kb:,} KB")
        if snapshot.cache_hits or snapshot.cache_misses:
            lines.append(
                f"probe cache: {snapshot.cache_hits} hits / "
                f"{snapshot.cache_misses} misses "
                f"(rate {snapshot.cache_hit_rate:.0%}), "
                f"{snapshot.cache_bytes_used:,} bytes held, "
                f"{snapshot.cache_evictions} evictions, "
                f"{snapshot.cache_invalidations} invalidations")
        return "\n".join(lines)

    def delta(self) -> Dict[str, float]:
        """Numeric change between the last two snapshots."""
        if len(self.history) < 2:
            raise ValueError("need at least two snapshots")
        before = self.history[-2].as_dict()
        after = self.history[-1].as_dict()
        return {name: after[name] - before.get(name, 0.0)
                for name in after}
