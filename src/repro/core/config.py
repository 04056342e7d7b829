"""Configuration shared by the distributed indexing/retrieval components.

The defaults are scaled for laptop-size collections (hundreds to a few
thousand documents); the benchmarks sweep the parameters the paper's
companion evaluations sweep (truncation bound, DF_max, key size).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["AlvisConfig"]


@dataclass(frozen=True)
class AlvisConfig:
    """All tunables of layers 3 and 4."""

    # ------------------------------------------------------------------
    # Posting-list truncation (both strategies)
    # ------------------------------------------------------------------

    #: Bound on stored/transmitted posting-list length ("the transmitted
    #: posting lists never exceed a constant size").
    truncation_k: int = 20

    # ------------------------------------------------------------------
    # HDK (Highly Discriminative Keys)
    # ------------------------------------------------------------------

    #: A key is *discriminative* when its global df is at most this bound;
    #: above it, the key is expanded with additional terms.
    df_max: int = 40

    #: Maximum key size (number of terms); expansions stop here.
    s_max: int = 3

    #: Proximity window (in index-term positions) within which an
    #: expansion term must co-occur with the key being expanded.
    proximity_window: int = 12

    #: Cap on expansion candidates taken per non-discriminative key at one
    #: peer (most locally frequent first); keeps the candidate explosion
    #: polynomial, as the HDK paper's pruning rules do.
    max_expansions_per_key: int = 20

    #: Rare-combination filter: an expansion candidate must co-occur with
    #: the key (within the proximity window) in at least this many local
    #: documents.  The HDK paper prunes such rare combinations — they are
    #: already served by their sub-keys, so indexing them would only
    #: inflate the key vocabulary.
    expansion_min_df: int = 2

    # ------------------------------------------------------------------
    # QDI (Query-Driven Indexing)
    # ------------------------------------------------------------------

    #: Popularity count at which a missing key is indexed on demand.
    qdi_activation_threshold: int = 3

    #: Multiplicative popularity decay applied every maintenance round.
    qdi_decay: float = 0.5

    #: Indexed multi-term keys whose decayed popularity falls below this
    #: are evicted.
    qdi_eviction_threshold: float = 0.25

    #: Queries between two maintenance (decay + eviction) rounds at a peer.
    qdi_maintenance_interval: int = 50

    #: Maximum number of contributor peers contacted during on-demand
    #: indexing (highest local df first).
    qdi_harvest_fanout: int = 16

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    #: Results returned to the user.
    result_k: int = 10

    #: Also prune sub-lattices dominated by a *truncated* list (the
    #: approximation of Section 2, trading marginal precision for load
    #: balance).  Untruncated-list pruning is always on (it is lossless).
    prune_on_truncated: bool = True

    #: Cache key->responsible-peer resolutions at the querying peer.
    #: Repeated queries then skip the O(log n) lookup; the cache is
    #: invalidated wholesale on any membership change (off by default so
    #: traffic measurements reflect cold routing).  The only owner cache
    #: a query reads: the network-wide memo behind indexing and
    #: maintenance (``AlvisNetwork.publish_owners``) is publish-side
    #: only.  A swept policy (the E12 ablation trades routing traffic
    #: for cache state), so it stays.
    cache_lookups: bool = False

    #: Bound on cached resolutions per peer.
    lookup_cache_size: int = 4096

    # ------------------------------------------------------------------
    # Query engine (batched + cached execution)
    # ------------------------------------------------------------------

    #: Byte budget of the per-peer probe-result cache (key -> posting
    #: list, LRU with byte-accounted eviction).  0 disables caching.
    #: Cached entries are invalidated wholesale on churn and index
    #: republication (the network's index version tag), and individually
    #: expired after ``cache_ttl`` queries; on a Zipf-skewed query stream
    #: a modest budget absorbs most repeated lattice probes together
    #: with their DHT lookups.  Ignored in QDI mode, whose popularity
    #: monitoring requires responsible peers to see every probe.  Off by
    #: default so traffic measurements reflect the paper's cold query
    #: path.
    cache_bytes: int = 0

    #: Logical TTL of cached probe results, measured in queries executed
    #: at the caching peer (0 = no expiry).  A backstop bound on
    #: staleness for deployments where invalidation signals can be
    #: missed; version invalidation on churn/republication stays active
    #: either way.
    cache_ttl: int = 0

    #: Batch the probes of one lattice frontier: all DHT lookups of a
    #: level travel in one shared routed round
    #: (``DHTRing.lookup_many_async``) and probes to the same responsible
    #: peer share one ``ProbeBatch`` message, also across concurrent
    #: queries of one origin.  Off, the engine sends the paper's
    #: per-probe traffic: one one-key lookup round and one ``ProbeKey``
    #: per lattice node, never merged.  Resolved owners, probe outcomes
    #: and ranking are identical either way; only message counts (and
    #: their header bytes) and latency differ.  A swept policy (E13
    #: compares the two wire formats), so it stays.
    batch_lookups: bool = True

    #: Stop lattice exploration early once the BM25 score ceiling of the
    #: still-unprobed keys cannot lift any document into the current
    #: top-``result_k`` (Akbarinia-style threshold termination).  The
    #: ceiling combines cached global dfs with the dfs learned from
    #: retrieved keys, so the stop is conservative; it is an
    #: approximation nonetheless (skipped probes can no longer adjust
    #: scores of already-ranked documents) and therefore off by default.
    #: A swept policy (E13 trades probes for result quality), so it stays.
    topk_early_stop: bool = False

    # ------------------------------------------------------------------
    # Query engine dispatch (event-kernel execution of the L3/L4 path,
    # repro.core.runtime)
    # ------------------------------------------------------------------

    #: Virtual seconds the per-origin dispatch queue waits before
    #: flushing accumulated lookups/probes.  Under ``batch_lookups`` the
    #: flush coalesces same-destination traffic across *concurrent
    #: queries* (server-side cross-query batching): 0 still coalesces
    #: requests issued at the same virtual instant; larger windows trade
    #: per-probe latency for fewer, larger messages under load.  Under
    #: the per-probe policy nothing merges and the window only delays.
    dispatch_window: float = 0.0

    #: Pipeline lattice levels: launch level N+1's DHT lookups while
    #: level N's probe replies are still in flight.  Cuts query latency
    #: by roughly one lookup round per level, at the cost of
    #: *speculative* lookups for keys a level-N result later excludes
    #: (top-k results are unaffected; only routing traffic can grow).
    pipeline_levels: bool = False

    #: Timeout (virtual seconds) for async requests; 0 disables.  A
    #: timed-out probe is recorded as a dropped probe, like a churn
    #: drop.
    request_timeout: float = 0.0

    # ------------------------------------------------------------------
    # Congestion-aware dispatch (AIMD flow control on the query path)
    # ------------------------------------------------------------------

    #: Put a per-origin AIMD congestion window (the NCA'06 controller,
    #: :class:`repro.core.runtime.CongestionWindow`, measured by E8)
    #: between each origin's dispatch queue and the transport: the
    #: window bounds how many lookup rounds / probe batches may be
    #: outstanding, acks open it additively, and any non-ok outcome
    #: (queue overflow, churn drop, timeout) halves it — at most once
    #: per RTT.  Excess flushed work queues at the dispatcher and
    #: drains as the window opens; overflow drops are retransmitted
    #: through the window, and a window's worth of pending work triggers
    #: an early dispatch flush (size-triggered, not only after
    #: ``dispatch_window``).  Each lookup round and each probe message
    #: is one window unit (under the per-probe policy,
    #: every one-key lookup and every ``ProbeKey``).  Off by default so
    #: query traffic is byte-identical to the unthrottled engine.
    congestion_control: bool = False

    #: AIMD initial window (outstanding dispatcher sends) per origin.
    congestion_initial_window: float = 4.0

    #: AIMD window cap per origin.
    congestion_max_window: float = 64.0

    #: Retransmission budget for a ``LookupHop`` or probe message a full
    #: service queue rejected; once it is spent, the keys it carried
    #: resolve as dropped probes.  0 disables retransmission entirely.
    congestion_max_retransmits: int = 20

    #: With ``congestion_control`` off (E8's open loop), the virtual
    #: seconds before a rejected request's first blind retransmission;
    #: each later retry waits twice as long, up to four timeouts.  With
    #: the AIMD window on, the window paces retransmissions instead.
    congestion_retransmit_timeout: float = 0.25

    #: Per-endpoint service rate (messages/second) of the bounded
    #: service queue the transport models for async delivery — hot
    #: owners then exhibit real queueing delay and overflow drops
    #: instead of infinite instantaneous capacity.  0 (the default)
    #: disables the queueing model entirely.
    service_rate: float = 0.0

    #: Per-endpoint service-queue bound; arrivals beyond it are dropped
    #: (surfaced to async senders as ``"overflow"`` outcomes).  Only
    #: meaningful with ``service_rate > 0``.
    queue_capacity: int = 64

    #: Fraction of one service time a saturated endpoint spends
    #: *shedding* each overflow arrival (receiving the message off the
    #: wire and generating the rejection) — wasted work competing with
    #: useful service.  This is what lets an open-loop retransmission
    #: storm genuinely collapse goodput instead of being shed for free.
    #: 0 makes drops cost-free.
    service_reject_cost: float = 0.5

    # ------------------------------------------------------------------

    #: Perform the second "refinement" step: forward the query to the
    #: local engines of peers holding the first-step results.  A swept
    #: policy (E9's two-step retrieval trades bytes for recall, one row
    #: of the truncation trade-off), so it stays.
    refine_with_local_engines: bool = False

    #: Refinement re-scores a candidate pool of ``result_k *
    #: refine_pool_factor`` first-step documents, then returns the top
    #: ``result_k`` — a larger pool lets exact scoring recover documents
    #: the approximate first step under-ranked.
    refine_pool_factor: int = 3

    # ------------------------------------------------------------------

    def __post_init__(self):
        if self.truncation_k <= 0:
            raise ValueError("truncation_k must be positive")
        if self.df_max <= 0:
            raise ValueError("df_max must be positive")
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")
        if self.proximity_window < 1:
            raise ValueError("proximity_window must be >= 1")
        if self.max_expansions_per_key < 1:
            raise ValueError("max_expansions_per_key must be >= 1")
        if self.expansion_min_df < 1:
            raise ValueError("expansion_min_df must be >= 1")
        if self.qdi_activation_threshold < 1:
            raise ValueError("qdi_activation_threshold must be >= 1")
        if not 0 < self.qdi_decay <= 1:
            raise ValueError("qdi_decay must be in (0, 1]")
        if self.qdi_eviction_threshold < 0:
            raise ValueError("qdi_eviction_threshold must be >= 0")
        if self.qdi_maintenance_interval < 1:
            raise ValueError("qdi_maintenance_interval must be >= 1")
        if self.qdi_harvest_fanout < 1:
            raise ValueError("qdi_harvest_fanout must be >= 1")
        if self.result_k <= 0:
            raise ValueError("result_k must be positive")
        if self.refine_pool_factor < 1:
            raise ValueError("refine_pool_factor must be >= 1")
        if self.lookup_cache_size < 1:
            raise ValueError("lookup_cache_size must be >= 1")
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        if self.cache_ttl < 0:
            raise ValueError("cache_ttl must be >= 0")
        if self.dispatch_window < 0:
            raise ValueError("dispatch_window must be >= 0")
        if self.request_timeout < 0:
            raise ValueError("request_timeout must be >= 0")
        if self.congestion_initial_window < 1:
            raise ValueError("congestion_initial_window must be >= 1")
        if self.congestion_max_window < self.congestion_initial_window:
            raise ValueError("congestion_max_window must be >= "
                             "congestion_initial_window")
        if self.congestion_max_retransmits < 0:
            raise ValueError("congestion_max_retransmits must be >= 0")
        if self.congestion_retransmit_timeout <= 0:
            raise ValueError("congestion_retransmit_timeout must be > 0")
        if self.service_rate < 0:
            raise ValueError("service_rate must be >= 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.service_reject_cost < 0:
            raise ValueError("service_reject_cost must be >= 0")

    def with_overrides(self, **kwargs) -> "AlvisConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)
