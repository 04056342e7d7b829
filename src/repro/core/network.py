"""The AlvisP2P network facade.

Owns the simulation substrate (event kernel, transport, DHT ring), the
peer population, and the orchestration of the global phases:

1. :meth:`run_statistics_phase` — aggregate global dfs and collection
   totals through the DHT, then let every peer prefetch the statistics it
   needs for publish-time scoring;
2. :meth:`build_index` — construct the global index with the chosen
   strategy (``"hdk"``, ``"qdi"`` or ``"single"``; ``"single"`` with
   ``truncation_k`` at or above the collection size is the unscalable
   single-term baseline of :mod:`repro.baselines.single_term`);
3. :meth:`query` — multi-keyword retrieval from any peer;
4. churn (:meth:`churn`) with byte-accounted index handover.

This is the class the examples and benchmarks drive; see
``examples/quickstart.py`` for the canonical usage.

RNG discipline: every stochastic subsystem draws from its own
``make_rng(seed, label)`` stream ("latency" for the transport, "peer-ids"
for identifier placement, "churn"/"churn-N" per churn process) and no
module-level ``random`` state is ever touched.  Deterministic features
that change *how much* traffic flows — probe caching, frontier batching,
early termination — therefore cannot perturb churn decisions or any other
subsystem's random sequence under a fixed seed
(``tests/test_core_network.py`` asserts this trace equality).
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.access import AccessPolicy
from repro.core.config import AlvisConfig
from repro.core.global_stats import COLLECTION_KEY_ID, CollectionTotals
from repro.core.hdk import HDKIndexer, HDKStats
from repro.core.keys import Key
from repro.core.peer import AlvisPeer
from repro.core.ranking import RankedDocument
from repro.core.faults import FaultInjector
from repro.core.retrieval import QueryTrace, RetrievalComponent
from repro.core.runtime import AsyncQueryRuntime, QueryJob
from repro.core.workload import Workload
from repro.dht.churn import ChurnProcess
from repro.dht.hashing import hash_string
from repro.dht.ring import DHTRing
from repro.dht.routing import FingerTableStrategy, HopSpaceFingers, uniform_ids
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.net import protocol
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.net.transport import SimTransport, TransportBackend
from repro.sim.events import Simulator
from repro.util.rng import make_rng

__all__ = ["AlvisNetwork"]

#: Upper bound on the publish-side key -> owner memo; resolution keeps
#: working past it, new owners just stop being recorded until the next
#: membership change drops the memo.
_PUBLISH_MEMO_MAX_ENTRIES = 1 << 20


def _forget(_owners: Dict[int, int]) -> None:
    """The ``remember`` callback of an origin without a lookup cache."""


class AlvisNetwork:
    """A simulated AlvisP2P network of ``num_peers`` peers."""

    def __init__(self, num_peers: int,
                 config: Optional[AlvisConfig] = None,
                 seed: int = 0,
                 strategy: Optional[FingerTableStrategy] = None,
                 latency: Optional[LatencyModel] = None,
                 peer_ids: Optional[Sequence[int]] = None,
                 analyzer: Optional[Analyzer] = None,
                 virtual_nodes: int = 1):
        if num_peers <= 0:
            raise ValueError(f"num_peers must be positive, got {num_peers}")
        if virtual_nodes < 1:
            raise ValueError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.config = config if config is not None else AlvisConfig()
        self.seed = seed
        #: Virtual ring positions per peer (classic DHT load balancing:
        #: more positions -> each peer owns several small key ranges, so
        #: per-peer storage evens out).  Values > 1 are incompatible with
        #: churn/crash in this implementation (see :meth:`churn`).
        self.virtual_nodes = virtual_nodes
        self.analyzer = analyzer if analyzer is not None else Analyzer()
        self.simulator = Simulator()
        self.transport = SimTransport(
            self.simulator,
            latency if latency is not None else ConstantLatency(0.02),
            make_rng(seed, "latency"))
        if self.config.service_rate > 0:
            # Bounded per-endpoint service queues (congestion model):
            # async deliveries pay queueing delay and can overflow.
            self.transport.configure_service_model(
                self.config.service_rate, self.config.queue_capacity,
                self.config.service_reject_cost)
        self.ring = DHTRing(
            strategy if strategy is not None else HopSpaceFingers(),
            self.transport)
        if peer_ids is None:
            peer_ids = uniform_ids(make_rng(seed, "peer-ids"), num_peers)
        elif len(set(peer_ids)) != num_peers:
            raise ValueError("peer_ids must be distinct and match num_peers")
        self._peers: Dict[int, AlvisPeer] = {}
        #: ring position -> owning peer (identity for primary positions).
        self._virtual_to_peer: Dict[int, int] = {}
        for peer_id in peer_ids:
            self._add_peer(peer_id)
        self.ring.maintain()
        self._doc_ids = itertools.count(1)
        self._doc_owner: Dict[int, int] = {}
        self.mode: Optional[str] = None
        self.retrieval = RetrievalComponent(self)
        #: The query engine: event-kernel execution of the L3/L4 path,
        #: one query at a time (:meth:`query`) or overlapping
        #: (:meth:`run_workload`).
        self.runtime = AsyncQueryRuntime(self)
        self._workload_streams = 0
        self._statistics_done = False
        #: origin peer -> (membership epoch, {key_id: owner}).
        self._lookup_caches: Dict[int, Tuple[int, Dict[int, int]]] = {}
        #: (membership epoch, {key_id: owner peer}): see publish_owners.
        self._publish_memo: Tuple[int, Dict[int, int]] = (-1, {})
        #: Bumped on every global-index mutation (publish, retract,
        #: handover, on-demand indexing); probe caches pair it with the
        #: ring's membership epoch as their validity tag.
        self.index_version = 0
        #: Churn processes handed out so far — each gets its own derived
        #: RNG stream, so a second process never replays the first one's
        #: join/leave sequence.
        self._churn_streams = 0
        #: The unified membership-fault surface: ``faults.churn()``,
        #: ``faults.crash()``, ``faults.graceful_depart()``,
        #: ``faults.partition()``/``heal()``, ``faults.degrade()``.
        self.faults = FaultInjector(self)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _add_peer(self, peer_id: int) -> AlvisPeer:
        peer = AlvisPeer(peer_id, self.config, self.analyzer)
        peer.services = self
        self._peers[peer_id] = peer
        self.transport.register(peer_id, peer)
        self.ring.add_node(peer_id)
        self._virtual_to_peer[peer_id] = peer_id
        for index in range(1, self.virtual_nodes):
            virtual_id = hash_string(f"vnode/{peer_id}/{index}")
            while (self.ring.contains(virtual_id)
                   or virtual_id in self._virtual_to_peer):
                virtual_id = hash_string(f"vnode/{peer_id}/{index}/retry")
            self.ring.add_node(virtual_id)
            self._virtual_to_peer[virtual_id] = peer_id
            # Route traffic addressed to the virtual position to the
            # owning peer's endpoint (LookupHop accounting needs this).
            self.transport.register(virtual_id, peer)
        return peer

    def peer_of_ring_node(self, node_id: int) -> int:
        """Map a ring position (possibly virtual) to its owning peer."""
        return self._virtual_to_peer.get(node_id, node_id)

    def owner_peer_of_key(self, key_id: int) -> int:
        """The peer responsible for ``key_id`` (through virtual nodes)."""
        return self.peer_of_ring_node(self.ring.successor_of(key_id))

    @property
    def num_peers(self) -> int:
        return len(self._peers)

    def peer(self, peer_id: int) -> AlvisPeer:
        """The peer object for ``peer_id`` (KeyError if absent)."""
        return self._peers[peer_id]

    def peers(self) -> List[AlvisPeer]:
        """All live peers, in id order (deterministic iteration)."""
        return [self._peers[peer_id]
                for peer_id in sorted(self._peers)]

    def peer_ids(self) -> List[int]:
        return sorted(self._peers)

    # ------------------------------------------------------------------
    # NetworkServices implementation (used by peers and components)
    # ------------------------------------------------------------------

    def lookup_owners(self, origin: int,
                      key_ids: Iterable[int]) -> Tuple[Dict[int, int], int]:
        """Resolve the responsible peers of ``key_ids`` — the one
        resolution call of the query path.

        All keys are routed in one shared round
        (:meth:`~repro.dht.ring.DHTRing.lookup_many`): keys taking the
        same hop share one ``LookupHop`` message, so the returned message
        count — the amortized hop cost — is typically far below the sum
        of the individual hop counts; for one key it is its hop count.
        Honors ``config.cache_lookups`` (see :meth:`cached_owners`) and
        never reads the publish-side memo (:meth:`publish_owners`), so a
        query pays its own routing.  Returns ``({key_id: owner peer},
        routed hop messages)``.
        """
        owners, misses, remember = self.cached_owners(origin, key_ids)
        messages = 0
        if misses:
            routed, messages = self._route(origin, misses)
            remember(routed)
            owners.update(routed)
        return owners, messages

    def publish_owners(self, origin: int,
                       key_ids: Iterable[int]) -> Dict[int, int]:
        """Resolve owners for an indexing or maintenance flow.

        The statistics phase, the HDK publish rounds,
        :meth:`publish_incremental` and :meth:`unpublish` resolve their
        key sets here: like :meth:`lookup_owners`, but a key some
        publisher already routed in this membership epoch is answered
        from a network-wide key->owner memo and costs no further
        ``LookupHop`` traffic (the DHT routing-cache shortcut: a peer
        that knows a key's owner addresses it without re-routing).  The
        memo is dropped on every membership change, so it never serves a
        stale owner, and stops growing at ``_PUBLISH_MEMO_MAX_ENTRIES``.
        Returns ``{key_id: owner peer}``.
        """
        owners, misses, remember = self.cached_owners(origin, key_ids)
        epoch, memo = self._publish_memo
        if epoch != self.ring.membership_epoch:
            memo = {}
            self._publish_memo = (self.ring.membership_epoch, memo)
        unrouted = [key_id for key_id in misses if key_id not in memo]
        routed: Dict[int, int] = {}
        if unrouted:
            routed, _messages = self._route(origin, unrouted)
            if len(memo) < _PUBLISH_MEMO_MAX_ENTRIES:
                memo.update(routed)
        resolved = {key_id: routed[key_id] if key_id in routed
                    else memo[key_id] for key_id in misses}
        remember(resolved)
        owners.update(resolved)
        return owners

    def cached_owners(self, origin: int, key_ids: Iterable[int]
                      ) -> Tuple[Dict[int, int], List[int],
                                 Callable[[Dict[int, int]], None]]:
        """Apply ``origin``'s key->owner cache (``config.cache_lookups``).

        Returns the cache hits, the distinct keys still to resolve (in
        first-seen order) and a ``remember`` callback that stores their
        resolved owners while the cache has room.  The cache belongs to
        the membership epoch it was filled in and starts empty after any
        membership change.  The one home of the cache policy:
        :meth:`lookup_owners`, :meth:`publish_owners` and the async
        runtime's owner resolution all go through it.
        """
        unique = list(dict.fromkeys(key_ids))
        if not self.config.cache_lookups:
            return {}, unique, _forget
        epoch, cache = self._lookup_caches.get(origin, (-1, {}))
        if epoch != self.ring.membership_epoch:
            cache = {}
            self._lookup_caches[origin] = (self.ring.membership_epoch,
                                           cache)
        hits = {key_id: cache[key_id] for key_id in unique
                if key_id in cache}
        limit = self.config.lookup_cache_size

        def remember(owners: Dict[int, int]) -> None:
            for key_id, owner in owners.items():
                if len(cache) < limit:
                    cache[key_id] = owner

        return hits, [key_id for key_id in unique if key_id not in hits], \
            remember

    def _route(self, origin: int,
               key_ids: List[int]) -> Tuple[Dict[int, int], int]:
        """One routed ``lookup_many`` round: ``({key_id: owner peer},
        hop messages)``."""
        result = self.ring.lookup_many(origin, key_ids)
        return ({key_id: self.peer_of_ring_node(result.owners[key_id])
                 for key_id in key_ids}, result.messages)

    def note_index_update(self) -> None:
        """Record a global-index mutation.

        Advances the version tag that probe caches pair with the ring's
        membership epoch, so every peer's cached postings for the old
        index state are dropped lazily on its next query.
        """
        self.index_version += 1

    def send(self, origin: int, dst: int, kind: str,
             payload: Dict[str, Any]
             ) -> Tuple[Optional[Dict[str, Any]], float]:
        """Deliver one request; self-addressed messages short-circuit
        in memory (no bytes, no latency), as in the deployed system."""
        message = Message(src=origin, dst=dst, kind=kind, payload=payload)
        if dst == origin:
            reply = self.transport.send_local(message)
            return (dict(reply.payload) if reply is not None else None, 0.0)
        reply, rtt = self.transport.request(message)
        return (dict(reply.payload) if reply is not None else None, rtt)

    # ------------------------------------------------------------------
    # Document placement
    # ------------------------------------------------------------------

    def publish_documents(self, peer_id: int,
                          documents: Iterable[Document],
                          policy: Optional[AccessPolicy] = None) -> List[int]:
        """Add documents to one peer's shared directory.

        Document ids are (re)assigned by the network so they are globally
        unique; returns the assigned ids.
        """
        peer = self.peer(peer_id)
        assigned = []
        for document in documents:
            document.doc_id = next(self._doc_ids)
            peer.publish_document(document, policy=policy)
            self._doc_owner[document.doc_id] = peer_id
            assigned.append(document.doc_id)
        return assigned

    def distribute_documents(self, documents: Sequence[Document],
                             assignment: str = "round_robin") -> None:
        """Spread a collection over all peers.

        ``"round_robin"`` interleaves documents; ``"contiguous"`` gives
        each peer a consecutive slice (topical locality when the corpus is
        topic-ordered — the digital-library scenario).
        """
        ids = self.peer_ids()
        if assignment == "round_robin":
            for index, document in enumerate(documents):
                self.publish_documents(ids[index % len(ids)], [document])
        elif assignment == "contiguous":
            per_peer = max(1, (len(documents) + len(ids) - 1) // len(ids))
            for index, document in enumerate(documents):
                owner = ids[min(index // per_peer, len(ids) - 1)]
                self.publish_documents(owner, [document])
        else:
            raise ValueError(f"unknown assignment {assignment!r}")

    def doc_owner(self, doc_id: int) -> Optional[int]:
        """The peer holding ``doc_id`` (None for unknown/departed docs)."""
        owner = self._doc_owner.get(doc_id)
        if owner is None or owner not in self._peers:
            return None
        return owner

    def total_documents(self) -> int:
        return sum(peer.engine.num_documents for peer in self.peers())

    # ------------------------------------------------------------------
    # Phase 1: global statistics
    # ------------------------------------------------------------------

    def run_statistics_phase(self) -> None:
        """Aggregate and prefetch the global BM25 statistics.

        Four sub-steps, all through the DHT with byte accounting:
        collection totals publish, per-term df publish (batched by owner),
        collection totals fetch, and per-peer df prefetch for the local
        vocabulary (needed to score publishable postings globally).
        """
        collection_owner = {}
        for peer in self.peers():
            owner = self.publish_owners(peer.peer_id,
                                        [COLLECTION_KEY_ID])[COLLECTION_KEY_ID]
            collection_owner[peer.peer_id] = owner
            docs, terms = peer.collection_report()
            self.send(peer.peer_id, owner, protocol.COLLECTION_PUBLISH,
                      {"peer": peer.peer_id, "docs": docs, "terms": terms})
        for peer in self.peers():
            contributions = peer.local_df_contributions()
            for owner, batch in self._batch_by_owner(
                    self._term_owners(peer.peer_id, contributions),
                    contributions).items():
                self.send(peer.peer_id, owner, protocol.DF_PUBLISH,
                          {"dfs": batch})
        for peer in self.peers():
            reply, _rtt = self.send(peer.peer_id,
                                    collection_owner[peer.peer_id],
                                    protocol.COLLECTION_GET, {})
            assert reply is not None
            totals = CollectionTotals(num_documents=int(reply["docs"]),
                                      total_terms=int(reply["terms"]),
                                      num_peers=int(reply["peers"]))
            peer.stats_cache.store_totals(totals)
        for peer in self.peers():
            vocabulary = {term: 0
                          for term in peer.engine.index.vocabulary()}
            for owner, batch in self._batch_by_owner(
                    self._term_owners(peer.peer_id, vocabulary),
                    vocabulary).items():
                reply, _rtt = self.send(peer.peer_id, owner,
                                        protocol.DF_GET,
                                        {"terms": sorted(batch)})
                if reply is not None:
                    peer.stats_cache.store_dfs(dict(reply["dfs"]))
        self._statistics_done = True

    def _term_owners(self, origin: int,
                     terms: Iterable[str]) -> Dict[str, int]:
        """term -> owner peer of its single-term key, the whole set
        resolved in one :meth:`publish_owners` call."""
        key_ids = {term: Key([term]).key_id for term in terms}
        owners = self.publish_owners(origin, key_ids.values())
        return {term: owners[key_id] for term, key_id in key_ids.items()}

    @staticmethod
    def _batch_by_owner(term_owners: Dict[str, int],
                        per_term: Dict[str, int]) -> Dict[int, Dict[str, int]]:
        """Group a per-term mapping by the owner of each term's key."""
        batches: Dict[int, Dict[str, int]] = {}
        for term, value in per_term.items():
            batches.setdefault(term_owners[term], {})[term] = value
        return batches

    # ------------------------------------------------------------------
    # Phase 2: index construction
    # ------------------------------------------------------------------

    def build_index(self, mode: str = "hdk") -> HDKStats:
        """Construct the global index.

        ``"hdk"`` — full HDK rounds; ``"qdi"`` — single-term base plus
        query-driven managers at every peer; ``"single"`` — single-term
        base only.  ``"single"`` with ``config.truncation_k`` at or above
        the collection size keeps every term's *full* list: that index
        is the unscalable single-term baseline, queried through
        :func:`repro.baselines.single_term.single_term_query`.
        """
        if not self._statistics_done:
            self.run_statistics_phase()
        indexer = HDKIndexer(self)
        if mode == "hdk":
            stats = indexer.build()
        elif mode == "qdi":
            stats = indexer.build_single_term_only()
            for peer in self.peers():
                peer.enable_qdi()
        elif mode == "single":
            stats = indexer.build_single_term_only()
        else:
            raise ValueError(f"unknown index mode {mode!r}")
        self.mode = mode
        self.note_index_update()
        return stats

    def publish_incremental(self, peer_id: int, document: Document,
                            policy: Optional[AccessPolicy] = None) -> int:
        """Publish one new document after the index was built.

        Updates the peer's local engine, pushes df deltas and the
        document's single-term postings into the global index — the
        steady-state "index some new documents" flow of the demo.  The
        terms' owners are resolved once and serve both sends.
        """
        doc_id = self.publish_documents(peer_id, [document], policy)[0]
        self.note_index_update()
        peer = self.peer(peer_id)
        terms = sorted(set(self.analyzer.analyze(document.text)))
        owners = self._term_owners(peer_id, terms)
        for owner, batch in self._batch_by_owner(
                owners, {term: 1 for term in terms}).items():
            self.send(peer_id, owner, protocol.DF_PUBLISH, {"dfs": batch})
        stats = (peer.stats_cache.statistics()
                 if peer.stats_cache.totals is not None else None)
        for term in terms:
            postings = peer.engine.top_k_for_key(
                [term], self.config.truncation_k, stats=stats)
            payload = {"contributor": peer_id,
                       "items": [{"key_terms": [term],
                                  "postings": postings,
                                  "local_df": postings.global_df}]}
            self.send(peer_id, owners[term], protocol.PUBLISH_KEY, payload)
        return doc_id

    def unpublish(self, peer_id: int, doc_id: int) -> None:
        """Remove a shared document and retract it from the global index.

        The holder removes the document locally, pushes negative df
        deltas to the term owners, and sends ``RetractDoc`` to the
        responsible peer of each of the document's single-term keys;
        the owners are resolved once and serve both sends.
        Combination keys that still reference the document are cleaned
        lazily: the retrieval path drops results whose document no
        longer resolves to a live owner.
        """
        peer = self.peer(peer_id)
        document = peer.engine.store.get(doc_id)
        if document is None:
            raise KeyError(f"peer {peer_id} does not hold doc {doc_id}")
        terms = sorted(set(self.analyzer.analyze(document.text)))
        peer.unpublish_document(doc_id)
        self._doc_owner.pop(doc_id, None)
        self.note_index_update()
        owners = self._term_owners(peer_id, terms)
        for owner, batch in self._batch_by_owner(
                owners, {term: -1 for term in terms}).items():
            self.send(peer_id, owner, protocol.DF_PUBLISH,
                      {"dfs": batch})
        for term in terms:
            payload = {"key_terms": [term], "doc_id": doc_id,
                       "contributor": peer_id,
                       "new_local_df":
                       peer.engine.index.document_frequency(term)}
            self.send(peer_id, owners[term], protocol.RETRACT_DOC, payload)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def query(self, origin: int, query: Union[str, Sequence[str]],
              refine: Optional[bool] = None
              ) -> Tuple[List[RankedDocument], QueryTrace]:
        """Run one multi-keyword query from peer ``origin``."""
        return self.retrieval.query(origin, query, refine=refine)

    def submit_workload(self, workload: Workload,
                        refine: Optional[bool] = None,
                        start: float = 0.0) -> List[QueryJob]:
        """Schedule a :class:`~repro.core.workload.Workload` without
        driving the simulator.

        Arrivals are compiled immediately — two derived RNG streams per
        call, one for interarrival gaps and one for origin selection, so
        the arrival schedule is identical whatever the origin policy
        draws — and each submission is scheduled ``start`` + its arrival
        time from now.  The returned list fills with one
        :class:`QueryJob` per query *as the simulator runs*; callers
        overlap several workloads (scenario timelines) on one
        ``simulator.run()``.
        """
        stream = self._workload_streams
        self._workload_streams += 1
        arrival_rng = make_rng(self.seed, "workload", stream, "arrivals")
        origin_rng = make_rng(self.seed, "workload", stream, "origins")
        submissions = workload.compile(arrival_rng, origin_rng,
                                       self.peer_ids(), start=start)
        jobs: List[QueryJob] = []
        for submission in submissions:
            self.simulator.schedule(
                submission.at,
                lambda origin=submission.origin, query=submission.query:
                    jobs.append(self.runtime.submit(origin, query,
                                                    refine=refine)))
        return jobs

    def run_workload(self, workload: Workload,
                     refine: Optional[bool] = None) -> List[QueryJob]:
        """Open-workload driver: run a declarative :class:`Workload`.

        Submits every query of the workload (arrival process + origin
        policy, see :mod:`repro.core.workload`) and drives the simulator
        until all of them completed.  Returns the jobs in arrival order — each
        carries its results and a trace whose ``latency`` is the
        clock-measured response time under the overlapping load.
        """
        jobs = self.submit_workload(workload, refine=refine)
        self.simulator.run()
        return jobs

    def fetch_document(self, origin: int, doc_id: int,
                       credentials: Optional[Tuple[str, str]] = None,
                       terms: Sequence[str] = ()) -> Dict[str, Any]:
        """Fetch result presentation data (title, URL, snippet) from the
        document's holder, subject to its access policy."""
        owner = self.doc_owner(doc_id)
        if owner is None:
            return {"ok": False, "error": "owner-departed"}
        payload = {"doc_id": doc_id,
                   "credentials": list(credentials) if credentials else None,
                   "terms": list(terms)}
        reply, _rtt = self.send(origin, owner, protocol.DOC_FETCH, payload)
        return reply if reply is not None else {"ok": False,
                                                "error": "no-reply"}

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------

    def churn(self) -> ChurnProcess:
        """A churn process wired for index handover on this network.

        Delegates to :meth:`FaultInjector.churn` (``self.faults``) — the
        unified membership-fault surface, which also exposes targeted
        crashes, graceful departures, partitions and peer degradation.
        """
        return self.faults.churn()

    def fail_peer(self, peer_id: int) -> None:
        """Crash a peer: no handover, no goodbye.

        Delegates to :meth:`FaultInjector.crash` (``self.faults``); see
        there for the failure semantics and
        :class:`repro.core.replication.ReplicationManager` for making
        the global index survive crashes.
        """
        self.faults.crash(peer_id)

    def _handover(self, from_peer: int, to_peer: int,
                  range_lo: int, range_hi: int) -> None:
        """Move the index entries of a key range between peers."""
        self.note_index_update()
        if from_peer == to_peer:
            return
        source = self._peers.get(from_peer)
        if source is None:
            return
        target = self._peers.get(to_peer)
        if target is None:
            # Joining node: create the peer before receiving its range.
            target = self._add_peer_object_only(to_peer)
        entries = source.fragment.extract_range(range_lo, range_hi)
        if entries:
            self.send(from_peer, to_peer, protocol.HANDOVER,
                      {"entries": entries})
        if not self.ring.contains(from_peer):
            # Graceful departure: detach the endpoint after handover.
            self._detach_peer(from_peer)

    def _detach_peer(self, peer_id: int) -> None:
        """Drop a departed peer's endpoint, object and lookup cache."""
        self.transport.unregister(peer_id)
        del self._peers[peer_id]
        self._lookup_caches.pop(peer_id, None)

    def _add_peer_object_only(self, peer_id: int) -> AlvisPeer:
        """Create and register a peer whose ring node already exists
        (ChurnProcess adds the ring node itself)."""
        peer = AlvisPeer(peer_id, self.config, self.analyzer)
        peer.services = self
        if self.mode == "qdi":
            peer.enable_qdi()
        self._peers[peer_id] = peer
        self.transport.register(peer_id, peer)
        return peer

    # ------------------------------------------------------------------
    # Transport backend seam
    # ------------------------------------------------------------------

    def attach_transport(self,
                         transport: TransportBackend) -> TransportBackend:
        """Swap the network onto a different transport backend.

        Rewires every component that holds the transport (the ring's
        lookup path and the network's own send path) and returns the
        previous backend.  Endpoint registration is deliberately left to
        the caller: a cluster driver registers only the peers its process
        owns and routes the rest (see :mod:`repro.cluster`), which is
        exactly the split a blanket re-registration would get wrong.
        """
        previous = self.transport
        self.transport = transport
        self.ring.transport = transport
        return previous

    # ------------------------------------------------------------------
    # Accounting helpers (used by repro.eval and the benchmarks)
    # ------------------------------------------------------------------

    def bytes_sent_total(self) -> float:
        return self.simulator.metrics.counter_value("net.bytes.sent")

    def bytes_by_kind(self) -> Dict[str, float]:
        prefix = "net.bytes.sent."
        return {name[len(prefix):]: value
                for name, value in self.simulator.metrics
                .counters_with_prefix(prefix).items()}

    def messages_sent_total(self) -> float:
        return self.simulator.metrics.counter_value("net.msgs.sent")

    def reset_traffic(self) -> None:
        """Zero all traffic counters (between experiment phases)."""
        self.simulator.metrics.reset()
        self.transport.reset_load_counters()

    def per_peer_index_storage(self) -> Dict[int, int]:
        """Bytes of global-index state per peer (experiment E3/E6)."""
        return {peer.peer_id: peer.fragment.storage_bytes()
                for peer in self.peers()}

    def per_peer_postings(self) -> Dict[int, int]:
        """Stored posting entries per peer."""
        return {peer.peer_id: peer.fragment.postings_stored()
                for peer in self.peers()}

    def per_peer_messages_in(self) -> Dict[int, int]:
        """Inbound messages per *peer*, aggregating virtual positions."""
        totals: Dict[int, int] = {peer_id: 0
                                  for peer_id in self._peers}
        for node_id, count in self.transport.msgs_in.items():
            peer_id = self.peer_of_ring_node(node_id)
            if peer_id in totals:
                totals[peer_id] += count
        return totals

    def total_keys(self) -> int:
        """Number of (key, owner) entries in the global index."""
        return sum(len(peer.fragment) for peer in self.peers())

    def __repr__(self) -> str:
        return (f"AlvisNetwork(peers={self.num_peers}, "
                f"docs={self.total_documents()}, mode={self.mode})")
