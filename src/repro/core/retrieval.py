"""The distributed retrieval component (L3/L4 query path).

Runs one multi-keyword query at a time through the query engine of
:mod:`repro.core.runtime`: the query-lattice exploration over the real
network (per-probe or frontier-batched, see ``batch_lookups``), with all
traffic byte-accounted into the query's :class:`QueryTrace`.  After
exploration the retrieved lists are merged and ranked
(:mod:`repro.core.ranking`); optionally the query is then *refined* by
the local engines of the peers holding the candidate documents — the
paper's two-step retrieval (Section 3).

Under QDI, the engine also sends post-query popularity feedback for the
useful-but-missing combinations, which is what drives on-demand indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.core.keys import Key
from repro.core.lattice import ProbeStatus
# merge_and_rank is unused here but stays imported: the perf tracer's
# smoke test checks that the tracer rebinds it in this namespace.
from repro.core.ranking import RankedDocument, merge_and_rank

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import AlvisNetwork

__all__ = ["QueryTrace", "RetrievalComponent"]


@dataclass
class QueryTrace:
    """Everything measured about one query (the unit of experiment E2).

    Accounting invariants (audited by ``tests/test_core_retrieval_trace``):

    * ``bytes_sent`` equals the sum of ``bytes_by_kind`` — both count
      the messages the query itself sends and receives (lookup hops,
      probes, QDI feedback, refinement), pro-rated when a message is
      shared with concurrent queries.  Work those messages trigger at
      their receivers is not the query's: under QDI, feedback that
      activates on-demand indexing at an owner sends ``ContributorsGet``
      / ``HarvestKey`` traffic (and the ``LookupHop`` messages routing
      it) that no trace carries, so summed traces fall short of the
      transport totals there;
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
    #: Virtual times of query start/finish and their difference — the
    #: latency measured from the event kernel's clock.
    started_at: float = 0.0
    finished_at: float = 0.0
    latency: float = 0.0
    refined: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    #: Lookups and probes retransmitted after service-queue overflow
    #: drops that this query rode in — like ``request_messages``, a
    #: per-participant count, not a wire count.
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
        """Probes lost to churn (owner departed mid-query) or to
        congestion (rejected past the retransmission budget)."""
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

    def query(self, origin: int, query: Union[str, Sequence[str]],
              refine: Optional[bool] = None
              ) -> Tuple[List[RankedDocument], QueryTrace]:
        """Run one query from peer ``origin`` to completion.

        ``query`` is either a raw string (analyzed with the network's
        analyzer) or a pre-analyzed term sequence.  ``refine`` overrides
        the config's ``refine_with_local_engines``.  The query runs as a
        process on the event kernel (:mod:`repro.core.runtime`) and the
        simulator is driven until it drains; the trace's ``latency`` is
        measured from the virtual clock.  Use
        :meth:`AlvisNetwork.run_workload` to overlap many queries
        instead of completing them one by one.
        """
        network = self.network
        job = network.runtime.submit(origin, query, refine=refine)
        network.simulator.run()
        if not job.done:
            raise RuntimeError(
                "query did not complete: the simulator drained with the "
                "query still pending")
        return job.results, job.trace
