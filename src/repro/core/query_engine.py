"""The batched + cached query execution engine (L3/L4 hot path).

Per-probe execution (one DHT lookup plus one ``ProbeKey`` round trip per
lattice node) dominates AlvisP2P's retrieval cost; the paper's
scalability argument rests on keeping this traffic sublinear in query
volume.  The engine makes the path batch-first and cache-aware while
producing outcomes identical to the per-probe path:

* **frontier batching** — all DHT lookups of one lattice level travel in
  a single shared routed round (:meth:`repro.dht.ring.DHTRing.lookup_many`
  amortizes finger-table traversals across the batch), and probes bound
  for the same responsible peer share one ``ProbeBatch`` message.  Safe
  because domination-based exclusions only ever cover strictly smaller
  keys, so a level's results cannot exclude its own siblings;

* **probe-result caching** — a byte-budgeted LRU cache per querying peer
  (:class:`repro.core.cache.LRUByteCache`) short-circuits repeated
  probes together with their lookups.  Entries are invalidated wholesale
  when the ring membership or the global index changes, and optionally
  expired after a logical TTL.  Inactive under QDI, whose decentralized
  popularity monitoring requires the responsible peers to observe every
  probe (see :meth:`QueryEngine._origin_cache`);

* **top-k early termination** — between lattice levels, exploration
  stops once the BM25 score ceiling of the still-unprobed keys cannot
  lift any document into the current top-k (threshold termination in the
  spirit of Akbarinia et al.'s top-k query processing).  The ceiling per
  term is the BM25 weight limit ``idf * (k1 + 1)`` computed from the
  best available document-frequency lower bound (cached global dfs plus
  the dfs learned from already-retrieved keys), so unknown terms keep
  the bound conservative.

The per-probe path survives as a compatibility mode (``batch_lookups``
off, ``cache_bytes`` 0): it issues the pre-engine message sequence — one
single-key lookup round and one ``ProbeKey`` per lattice node — which
keeps the seed benchmarks comparable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.cache import LRUByteCache
from repro.core.keys import Key
from repro.core.lattice import ExplorationOutcome, LatticeExplorer
from repro.core.ranking import rank_with_margin
from repro.ir.postings import PostingList
from repro.ir.scoring import BM25Parameters, bm25_weight_ceiling
from repro.net import protocol
from repro.net.transport import DeliveryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import AlvisNetwork
    from repro.core.retrieval import QueryTrace

__all__ = ["QueryEngine"]

#: Fixed per-entry bookkeeping charged against the cache byte budget.
_CACHE_ENTRY_OVERHEAD = 16

#: A probe result as the engine moves it around: (found, postings).  A
#: probe lost to churn is the 3-tuple ``(False, None, True)`` — the
#: explorer records it as :attr:`ProbeStatus.DROPPED`.
ProbeResult = Tuple[bool, Optional[PostingList]]

#: The churn-drop marker handed to the lattice explorer.
DROPPED_PROBE = (False, None, True)


class QueryEngine:
    """Executes lattice exploration against the network for one query."""

    def __init__(self, network: "AlvisNetwork"):
        self.network = network
        self.explorer = LatticeExplorer(
            prune_on_truncated=network.config.prune_on_truncated)

    # ------------------------------------------------------------------

    def execute(self, origin: int, terms: List[str], trace: "QueryTrace",
                rank_k: int) -> Tuple[ExplorationOutcome, Dict[Key, int]]:
        """Explore the query lattice of ``terms`` from peer ``origin``.

        All traffic is accounted into ``trace``; ``rank_k`` is the
        candidate-pool size the caller will rank (``result_k``, enlarged
        when refinement re-scores a bigger pool) and parameterizes the
        early-termination test.  Returns the exploration outcome plus
        the resolved owner of every key that was actually looked up
        (cache hits skip resolution — and, for QDI, the corresponding
        feedback, which would be redundant re-sends anyway).
        """
        network = self.network
        config = network.config
        owners: Dict[Key, int] = {}
        #: level size -> probe round-trips, for the latency model.
        probe_rtts: Dict[int, List[float]] = {}
        cache = self._origin_cache(origin)

        def cache_lookup(key: Key) -> Optional[ProbeResult]:
            return self.cache_get(cache, trace, key)

        def cache_store(key: Key, found: bool,
                        postings: Optional[PostingList]) -> None:
            self.cache_put(cache, key, found, postings)

        def probe_one(key: Key) -> ProbeResult:
            """The per-probe compatibility path (seed message sequence)."""
            cached = cache_lookup(key)
            if cached is not None:
                return cached
            try:
                resolved, hops = network.lookup_owners(origin, [key.key_id])
            except DeliveryError:
                # A routing hop hit a departed peer: give up on this
                # probe gracefully instead of crashing the query.
                return DROPPED_PROBE
            owner = resolved[key.key_id]
            owners[key] = owner
            trace.lookup_hops += hops
            payload = {"key_terms": list(key.terms)}
            try:
                reply, rtt = network.send(origin, owner, protocol.PROBE_KEY,
                                          payload)
            except DeliveryError:
                # The owner departed between resolution and send (stale
                # lookup cache, or churn interleaved with the query).
                trace.request_messages += 1
                return DROPPED_PROBE
            trace.request_messages += 1
            probe_rtts.setdefault(len(key), []).append(rtt)
            if reply is None or not reply["found"]:
                result: ProbeResult = (False, None)
            else:
                result = (True, reply["postings"])
            cache_store(key, *result)
            return result

        def probe_frontier(frontier: List[Key]) -> List[ProbeResult]:
            """One batched round for a whole lattice level."""
            results: Dict[Key, ProbeResult] = {}
            misses: List[Key] = []
            for key in frontier:
                cached = cache_lookup(key)
                if cached is not None:
                    results[key] = cached
                else:
                    misses.append(key)
            if misses:
                try:
                    resolved, hop_messages = network.lookup_owners(
                        origin, [key.key_id for key in misses])
                except DeliveryError:
                    for key in misses:
                        results[key] = DROPPED_PROBE
                    return [results[key] for key in frontier]
                trace.lookup_hops += hop_messages
                by_owner: Dict[int, List[Key]] = {}
                for key in misses:
                    owner = resolved[key.key_id]
                    owners[key] = owner
                    by_owner.setdefault(owner, []).append(key)
                level = len(frontier[0])
                for owner, batch in by_owner.items():
                    payload = {"keys": [list(key.terms) for key in batch]}
                    try:
                        reply, rtt = network.send(origin, owner,
                                                  protocol.PROBE_BATCH,
                                                  payload)
                    except DeliveryError:
                        trace.request_messages += 1
                        for key in batch:
                            results[key] = DROPPED_PROBE
                        continue
                    trace.request_messages += 1
                    probe_rtts.setdefault(level, []).append(rtt)
                    if reply is None:
                        items = [{"found": False, "postings": None}
                                 for _key in batch]
                    else:
                        items = reply["results"]
                    for key, item in zip(batch, items):
                        found = bool(item["found"])
                        postings = item["postings"] if found else None
                        results[key] = (found, postings)
                        cache_store(key, found, postings)
            return [results[key] for key in frontier]

        should_stop = (self._make_stop_test(origin, Key(terms), rank_k)
                       if config.topk_early_stop else None)
        if config.batch_lookups:
            outcome = self.explorer.explore(terms,
                                            probe_level=probe_frontier,
                                            should_stop=should_stop)
        else:
            outcome = self.explorer.explore(terms, probe=probe_one,
                                            should_stop=should_stop)
        # Latency: probes within one lattice level run concurrently in
        # the deployed client, so a level costs its slowest probe.
        if config.parallel_probes:
            trace.rtt_estimate += sum(max(rtts)
                                      for rtts in probe_rtts.values())
        else:
            trace.rtt_estimate += sum(rtt for rtts in probe_rtts.values()
                                      for rtt in rtts)
        return outcome, owners

    # ------------------------------------------------------------------
    # Probe-cache plumbing (shared with the async runtime)
    # ------------------------------------------------------------------

    def cache_get(self, cache: Optional[LRUByteCache], trace: "QueryTrace",
                  key: Key) -> Optional[ProbeResult]:
        """Consult the origin's probe cache, accounting hit/miss."""
        if cache is None:
            return None
        hit, value = cache.get(key)
        if hit:
            trace.cache_hits += 1
            return value
        trace.cache_misses += 1
        return None

    def cache_put(self, cache: Optional[LRUByteCache], key: Key,
                  found: bool, postings: Optional[PostingList]) -> None:
        """Store one probe outcome with its byte-accounted size."""
        if cache is None:
            return
        size = (key.wire_size() + _CACHE_ENTRY_OVERHEAD
                + (postings.wire_size() if postings is not None else 1))
        cache.put(key, (found, postings), size)

    # ------------------------------------------------------------------

    def _origin_cache(self, origin: int) -> Optional[LRUByteCache]:
        """The origin peer's probe cache, freshened for this query.

        Disabled under QDI: on-demand indexing is driven by owner-side
        popularity monitoring, which must see every probe — absorbing
        probes at the querying peer would starve hot keys' counters
        until maintenance evicts them, only for the next cold query to
        re-activate them (a permanent evict/harvest oscillation).
        """
        network = self.network
        if network.config.cache_bytes <= 0 or network.mode == "qdi":
            return None
        cache = network.peer(origin).probe_cache
        cache.ensure_version((network.ring.membership_epoch,
                              network.index_version))
        cache.tick()
        return cache

    def _make_stop_test(self, origin: int, query: Key, rank_k: int
                        ) -> Optional[Callable[[ExplorationOutcome,
                                                List[Key]], bool]]:
        """Build the top-k threshold termination test.

        Requires the origin's cached collection totals (for idf); without
        them no bound is computable and exploration never stops early.
        """
        stats_cache = self.network.peer(origin).stats_cache
        if stats_cache.totals is None:
            return None
        n = max(stats_cache.totals.num_documents, 1)
        # The peers' publish-time scoring runs on the default BM25
        # parameters (no knob plumbs custom ones through the network
        # yet), so the ceiling uses the same defaults.
        params = BM25Parameters()

        def term_ceiling(df_lower_bound: int) -> float:
            return bm25_weight_ceiling(df_lower_bound, n, params)

        def should_stop(outcome: ExplorationOutcome,
                        remaining: List[Key]) -> bool:
            _top, kth, runner_up = rank_with_margin(outcome.retrieved,
                                                    query, rank_k)
            if kth <= 0.0:
                return False          # top-k not even full yet
            df_bounds: Dict[str, int] = {}
            for key, postings in outcome.retrieved.items():
                # A conjunction's result-set size lower-bounds each of
                # its terms' dfs — free df knowledge from this query.
                for term in key.terms:
                    df_bounds[term] = max(df_bounds.get(term, 0),
                                          postings.global_df)
            remaining_terms = set()
            for key in remaining:
                remaining_terms.update(key.terms)
            # Any document (seen outside the top-k, or never seen) can
            # gain at most one ceiling per remaining term: disjoint
            # covers touch each term once.
            potential = sum(
                term_ceiling(max(df_bounds.get(term, 0),
                                 stats_cache.df(term)))
                for term in remaining_terms)
            return runner_up + potential < kth

        return should_stop
