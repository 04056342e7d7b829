"""The distributed retrieval component (L3/L4 query path).

Drives the query-lattice exploration over the real network through the
batched + cached :class:`~repro.core.query_engine.QueryEngine`: in the
compatibility configuration every lattice probe is a DHT lookup plus a
``ProbeKey`` request to the responsible peer; with ``batch_lookups`` the
lookups of each lattice frontier share one routed round and same-owner
probes share one ``ProbeBatch`` message, and with ``cache_bytes`` a
per-peer LRU absorbs repeated probes entirely.  All traffic is
byte-accounted either way.  After exploration the retrieved lists are
merged and ranked (:mod:`repro.core.ranking`); optionally the query is
then *refined* by the local engines of the peers holding the candidate
documents — the paper's two-step retrieval (Section 3).

Under QDI, the component also sends post-query popularity feedback for the
useful-but-missing combinations, which is what drives on-demand indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.core.keys import Key
from repro.core.lattice import ExplorationOutcome, ProbeStatus
from repro.core.query_engine import QueryEngine
from repro.core.ranking import RankedDocument, merge_and_rank
from repro.net import protocol
from repro.net.transport import DeliveryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import AlvisNetwork

__all__ = ["QueryTrace", "RetrievalComponent"]


@dataclass
class QueryTrace:
    """Everything measured about one query (the unit of experiment E2).

    Accounting invariants (audited by ``tests/test_core_retrieval_trace``):

    * ``bytes_sent`` equals the sum of ``bytes_by_kind`` — both are
      deltas of the same transport counters over the query window;
    * skipped, pruned and cache-served lattice nodes cause no probe
      traffic: only ``probed_count`` minus the cache hits ever turns
      into ``ProbeKey``/``ProbeBatch`` bytes;
    * ``request_messages`` counts logical requests issued by the querying
      peer, including self-addressed ones (which short-circuit in memory
      and contribute zero bytes — so it can exceed the transport's
      message count, never the reverse);
    * ``lookup_hops`` counts routed ``LookupHop`` messages; under
      ``batch_lookups`` keys sharing a hop share a message, so the count
      is the amortized (billed) hop cost of the query.  Every query pays
      its own routing: only the origin's ``cache_lookups`` cache can
      answer a key without a walk (the publish-side owner memo is never
      read on the query path), so the count does not depend on what
      indexing or earlier queries of other origins routed.
    """

    query: Key
    origin: int
    #: (key, status) in exploration order — reproduces Figure 1.
    probes: List[Tuple[Key, ProbeStatus]] = field(default_factory=list)
    lookup_hops: int = 0
    request_messages: int = 0
    bytes_sent: int = 0
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Modelled round-trip estimate of the synchronous compatibility
    #: path (levels cost their slowest probe under ``parallel_probes``).
    rtt_estimate: float = 0.0
    #: Virtual times of query start/finish and their difference — the
    #: *measured* latency of the async runtime (``async_queries``); all
    #: zero on the synchronous path, where no virtual time elapses.
    started_at: float = 0.0
    finished_at: float = 0.0
    latency: float = 0.0
    refined: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    #: Probe batches retransmitted after congestion (service-queue
    #: overflow) drops that this query rode in — like
    #: ``request_messages``, a per-participant count, not a wire count.
    retransmissions: int = 0
    results: List[RankedDocument] = field(default_factory=list)

    @property
    def probed_count(self) -> int:
        return sum(1 for _key, status in self.probes
                   if status not in (ProbeStatus.SKIPPED,
                                     ProbeStatus.PRUNED))

    @property
    def skipped_count(self) -> int:
        return sum(1 for _key, status in self.probes
                   if status == ProbeStatus.SKIPPED)

    @property
    def pruned_count(self) -> int:
        """Lattice nodes cut off by top-k early termination."""
        return sum(1 for _key, status in self.probes
                   if status == ProbeStatus.PRUNED)

    @property
    def dropped_count(self) -> int:
        """Probes lost to churn (owner departed mid-query)."""
        return sum(1 for _key, status in self.probes
                   if status == ProbeStatus.DROPPED)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lattice probes served from the origin's cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict for benchmark tables."""
        return {
            "terms": float(len(self.query)),
            "probed": float(self.probed_count),
            "skipped": float(self.skipped_count),
            "pruned": float(self.pruned_count),
            "dropped": float(self.dropped_count),
            "latency": float(self.latency),
            "hops": float(self.lookup_hops),
            "messages": float(self.request_messages),
            "retransmissions": float(self.retransmissions),
            "bytes": float(self.bytes_sent),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "results": float(len(self.results)),
        }


class RetrievalComponent:
    """Executes multi-keyword queries against the global index."""

    def __init__(self, network: "AlvisNetwork"):
        self.network = network
        self.engine = QueryEngine(network)

    # ------------------------------------------------------------------

    def query(self, origin: int, query: Union[str, Sequence[str]],
              refine: Optional[bool] = None
              ) -> Tuple[List[RankedDocument], QueryTrace]:
        """Run one query from peer ``origin``.

        ``query`` is either a raw string (analyzed with the network's
        analyzer) or a pre-analyzed term sequence.  ``refine`` overrides
        the config's ``refine_with_local_engines``.

        With ``config.async_queries`` the query runs as a process on the
        event kernel (:mod:`repro.core.runtime`) and the simulator is
        driven to completion; traffic is identical to the synchronous
        frontier-batched path, but the trace's ``latency`` is measured
        from the virtual clock.  Use :meth:`AlvisNetwork.run_queries`
        to overlap many queries instead of completing them one by one.
        """
        network = self.network
        if network.config.async_queries:
            job = network.runtime.submit(origin, query, refine=refine)
            network.simulator.run()
            if not job.done:
                raise RuntimeError(
                    "async query did not complete: the simulator drained "
                    "with the query still pending")
            return job.results, job.trace
        terms = (network.analyzer.analyze_query(query)
                 if isinstance(query, str) else
                 list(dict.fromkeys(query)))
        if not terms:
            raise ValueError(f"query {query!r} has no index terms")
        trace = QueryTrace(query=Key(terms), origin=origin)
        bytes_before = network.bytes_sent_total()
        kinds_before = network.bytes_by_kind()
        config = network.config
        do_refine = (config.refine_with_local_engines
                     if refine is None else refine)
        # Refinement re-ranks a larger first-step candidate pool with
        # exact scores, then cuts back to result_k.
        pool_k = (config.result_k * config.refine_pool_factor
                  if do_refine else config.result_k)
        outcome, owners = self.engine.execute(origin, terms, trace, pool_k)
        trace.probes = [(record.key, record.status)
                        for record in outcome.records]
        if network.mode == "qdi":
            self._send_feedback(origin, outcome, owners, trace)
        results = merge_and_rank(outcome.retrieved, trace.query, pool_k)
        # Lazy cleanup: drop references to documents whose holder is gone
        # (crash) or that were unpublished — stale postings for them may
        # survive in combination keys until their lists refresh.
        results = [document for document in results
                   if network.doc_owner(document.doc_id) is not None]
        if do_refine and results:
            results = self._refine(origin, terms, results, trace)
            results = results[: config.result_k]
            trace.refined = True
        trace.results = results
        # Both totals are deltas of the same transport counters over the
        # query window, so they reconcile by construction: every kind
        # increment is paired with a global increment of the same size.
        trace.bytes_sent = int(network.bytes_sent_total() - bytes_before)
        kinds_after = network.bytes_by_kind()
        trace.bytes_by_kind = {
            kind: int(kinds_after.get(kind, 0.0)
                      - kinds_before.get(kind, 0.0))
            for kind in kinds_after
            if kinds_after.get(kind, 0.0) > kinds_before.get(kind, 0.0)}
        return results, trace

    # ------------------------------------------------------------------

    def _send_feedback(self, origin: int, outcome: ExplorationOutcome,
                       owners: Dict[Key, int], trace: QueryTrace) -> None:
        """Report missing multi-term combinations to their owners (QDI)."""
        for key in outcome.missing_keys():
            if len(key) < 2:
                continue
            owner = owners.get(key)
            if owner is None:
                continue
            redundant = outcome.covered_by_untruncated(key)
            payload = {"key_terms": list(key.terms),
                       "redundant": redundant}
            try:
                _reply, rtt = self.network.send(origin, owner,
                                                protocol.FEEDBACK, payload)
            except DeliveryError:
                # The owner departed since its probe: popularity feedback
                # is best-effort, never worth crashing the query.
                trace.request_messages += 1
                continue
            trace.request_messages += 1
            trace.rtt_estimate += rtt

    def _refine(self, origin: int, terms: List[str],
                results: List[RankedDocument],
                trace: QueryTrace) -> List[RankedDocument]:
        """Second retrieval step: exact scoring at the document holders."""
        by_owner: Dict[int, List[int]] = {}
        for document in results:
            owner = self.network.doc_owner(document.doc_id)
            if owner is not None:
                by_owner.setdefault(owner, []).append(document.doc_id)
        exact_scores: Dict[int, float] = {}
        for owner, doc_ids in by_owner.items():
            payload = {"terms": terms, "doc_ids": doc_ids}
            try:
                reply, rtt = self.network.send(origin, owner,
                                               protocol.REFINE_QUERY, payload)
            except DeliveryError:
                # Owner departed between the probe and the refinement
                # round-trip: keep the approximate scores for its
                # documents, exactly as the async runtime's _refine does.
                trace.request_messages += 1
                continue
            trace.request_messages += 1
            trace.rtt_estimate += rtt
            if reply is not None:
                for doc_id, score in reply["scores"].items():
                    exact_scores[int(doc_id)] = float(score)
        refined = [RankedDocument(
            doc_id=document.doc_id,
            score=exact_scores.get(document.doc_id, document.score),
            covering_keys=document.covering_keys)
            for document in results]
        refined.sort(key=lambda document: (-document.score,
                                           document.doc_id))
        return refined
