"""The single-term distributed index baseline ([11], Zhang & Suel).

"Distributed algorithms using traditional single-term indexes in
structured P2P networks generate unscalable network traffic during
retrieval, mainly because of the bandwidth consumption resulting from the
large posting list intersections required to process queries containing
several frequent terms."  (Section 1.)

This module builds exactly that system on the same substrate as
AlvisP2P, so experiment E2 can compare bytes-per-query apples to apples:

* every peer publishes its **full** (untruncated) single-term posting
  lists to the responsible peers;
* a multi-keyword query either

  - ``fetch_all``: downloads every query term's full global list to the
    querying peer and intersects there (the naive algorithm), or
  - ``pipelined``: ships the running intersection from the rarest term's
    owner through the others (the standard optimization — still
    transfers the full rarest list, so still grows with the collection).

Document scores in the published postings are per-term BM25 weights under
global statistics; the final conjunctive ranking therefore equals
centralized conjunctive BM25.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.bloom import BloomFilter
from repro.core.global_stats import (
    COLLECTION_KEY_ID,
    CollectionTotals,
    GlobalStatsCache,
    StatsStore,
)
from repro.dht.hashing import hash_terms
from repro.dht.ring import DHTRing
from repro.dht.routing import FingerTableStrategy, HopSpaceFingers, uniform_ids
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.postings import Posting, PostingList
from repro.ir.search import LocalSearchEngine
from repro.net import protocol
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.net.transport import SimTransport
from repro.sim.events import Simulator
from repro.util.rng import make_rng

__all__ = ["SingleTermTrace", "SingleTermNetwork"]

_PUBLISH = "BaselinePublish"
_FETCH = "BaselineFetch"
_FETCH_REPLY = "BaselineFetchReply"
_SHIP = "BaselineShip"
_SHIP_REPLY = "BaselineShipReply"
_BLOOM_GET = "BaselineBloomGet"
_BLOOM_REPLY = "BaselineBloomReply"
_BLOOM_FILTER = "BaselineBloomFilter"
_BLOOM_FILTER_REPLY = "BaselineBloomFilterReply"
_VERIFY = "BaselineVerify"
_VERIFY_REPLY = "BaselineVerifyReply"


@dataclass
class SingleTermTrace:
    """Per-query measurements, comparable to
    :class:`repro.core.retrieval.QueryTrace`."""

    terms: Tuple[str, ...]
    origin: int
    mode: str
    lookup_hops: int = 0
    request_messages: int = 0
    bytes_sent: int = 0
    postings_transferred: int = 0
    results: List[Tuple[int, float]] = field(default_factory=list)


class _BaselinePeer:
    """A peer of the single-term baseline network."""

    def __init__(self, peer_id: int, analyzer: Analyzer):
        self.peer_id = peer_id
        self.engine = LocalSearchEngine(analyzer)
        self.stats_store = StatsStore()
        self.stats_cache = GlobalStatsCache()
        #: term -> full aggregated posting list (this peer is responsible).
        self.term_store: Dict[str, PostingList] = {}

    def on_message(self, message: Message) -> Optional[Message]:
        kind = message.kind
        if kind == protocol.LOOKUP_HOP:
            return None
        if kind == _PUBLISH:
            for term, postings in message.payload["lists"].items():
                existing = self.term_store.get(term)
                merged = (existing.merge(postings) if existing is not None
                          else postings)
                self.term_store[term] = PostingList(
                    merged.entries, global_df=len(merged.entries))
            return None
        if kind == _FETCH:
            term = message.payload["term"]
            postings = self.term_store.get(term, PostingList())
            return message.reply(_FETCH_REPLY, {"postings": postings})
        if kind == _SHIP:
            term = message.payload["term"]
            incoming: PostingList = message.payload["postings"]
            local = self.term_store.get(term, PostingList())
            local_scores = {posting.doc_id: posting.score
                            for posting in local}
            intersected = [Posting(posting.doc_id,
                                   posting.score
                                   + local_scores[posting.doc_id])
                           for posting in incoming
                           if posting.doc_id in local_scores]
            result = PostingList(intersected, global_df=len(intersected))
            return message.reply(_SHIP_REPLY, {"postings": result})
        if kind == _BLOOM_GET:
            term = message.payload["term"]
            postings = self.term_store.get(term, PostingList())
            bloom = BloomFilter.of(postings.doc_ids())
            return message.reply(_BLOOM_REPLY, {"bloom": bloom})
        if kind == _BLOOM_FILTER:
            term = message.payload["term"]
            bloom: BloomFilter = message.payload["bloom"]
            postings = self.term_store.get(term, PostingList())
            candidates = [posting for posting in postings
                          if posting.doc_id in bloom]
            return message.reply(
                _BLOOM_FILTER_REPLY,
                {"postings": PostingList(candidates,
                                         global_df=len(candidates))})
        if kind == _VERIFY:
            term = message.payload["term"]
            postings = self.term_store.get(term, PostingList())
            wanted = set(message.payload["doc_ids"])
            scores = {posting.doc_id: posting.score
                      for posting in postings
                      if posting.doc_id in wanted}
            return message.reply(_VERIFY_REPLY, {"scores": scores})
        if kind == protocol.DF_PUBLISH:
            self.stats_store.fold_dfs(dict(message.payload["dfs"]))
            return None
        if kind == protocol.DF_GET:
            terms = list(message.payload["terms"])
            return message.reply(protocol.DF_REPLY,
                                 {"dfs": self.stats_store.dfs(terms)})
        if kind == protocol.COLLECTION_PUBLISH:
            payload = message.payload
            self.stats_store.fold_collection(int(payload["peer"]),
                                             int(payload["docs"]),
                                             int(payload["terms"]))
            return None
        if kind == protocol.COLLECTION_GET:
            totals = self.stats_store.collection_totals()
            return message.reply(protocol.COLLECTION_REPLY,
                                 {"docs": totals.num_documents,
                                  "terms": totals.total_terms,
                                  "peers": totals.num_peers})
        raise ValueError(f"baseline peer cannot handle {kind!r}")


class SingleTermNetwork:
    """The unscalable baseline, on the same simulated substrate."""

    def __init__(self, num_peers: int, seed: int = 0,
                 strategy: Optional[FingerTableStrategy] = None,
                 latency: Optional[LatencyModel] = None,
                 analyzer: Optional[Analyzer] = None):
        if num_peers <= 0:
            raise ValueError(f"num_peers must be positive, got {num_peers}")
        self.analyzer = analyzer if analyzer is not None else Analyzer()
        self.simulator = Simulator()
        self.transport = SimTransport(
            self.simulator,
            latency if latency is not None else ConstantLatency(0.02),
            make_rng(seed, "latency"))
        self.ring = DHTRing(
            strategy if strategy is not None else HopSpaceFingers(),
            self.transport)
        self._peers: Dict[int, _BaselinePeer] = {}
        for peer_id in uniform_ids(make_rng(seed, "peer-ids"), num_peers):
            peer = _BaselinePeer(peer_id, self.analyzer)
            self._peers[peer_id] = peer
            self.transport.register(peer_id, peer)
            self.ring.add_node(peer_id)
        self._doc_owner: Dict[int, int] = {}
        self._next_doc_id = 1

    # ------------------------------------------------------------------

    def peers(self) -> List[_BaselinePeer]:
        return [self._peers[peer_id] for peer_id in sorted(self._peers)]

    def peer_ids(self) -> List[int]:
        return sorted(self._peers)

    def distribute_documents(self, documents: Sequence[Document]) -> None:
        """Round-robin placement, mirroring
        :meth:`AlvisNetwork.distribute_documents`."""
        ids = self.peer_ids()
        for index, document in enumerate(documents):
            owner = ids[index % len(ids)]
            document.doc_id = self._next_doc_id
            self._next_doc_id += 1
            document.owner_peer = owner
            self._peers[owner].engine.add_document(document)
            self._doc_owner[document.doc_id] = owner

    # ------------------------------------------------------------------

    def _lookup(self, origin: int, key_id: int) -> Tuple[int, int]:
        result = self.ring.lookup_many(origin, [key_id])
        return result.owners[key_id], result.messages

    def _send(self, origin: int, dst: int, kind: str,
              payload: Dict) -> Optional[Dict]:
        message = Message(src=origin, dst=dst, kind=kind, payload=payload)
        if origin == dst:
            reply = self.transport.send_local(message)
        else:
            reply, _rtt = self.transport.request(message)
        return dict(reply.payload) if reply is not None else None

    # ------------------------------------------------------------------

    def run_statistics_phase(self) -> None:
        """Same statistics aggregation as the AlvisP2P network."""
        for peer in self.peers():
            owner, _hops = self._lookup(peer.peer_id, COLLECTION_KEY_ID)
            docs = peer.engine.index.num_documents
            terms = peer.engine.index.total_terms
            self._send(peer.peer_id, owner, protocol.COLLECTION_PUBLISH,
                       {"peer": peer.peer_id, "docs": docs, "terms": terms})
            reply = self._send(peer.peer_id, owner, protocol.COLLECTION_GET,
                               {})
            assert reply is not None
        for peer in self.peers():
            contributions = {term: peer.engine.index.document_frequency(term)
                             for term in peer.engine.index.vocabulary()}
            batches: Dict[int, Dict[str, int]] = {}
            for term, df in contributions.items():
                owner, _hops = self._lookup(peer.peer_id,
                                            hash_terms([term]))
                batches.setdefault(owner, {})[term] = df
            for owner, batch in batches.items():
                self._send(peer.peer_id, owner, protocol.DF_PUBLISH,
                           {"dfs": batch})
        # Fetch totals and dfs for scoring.
        for peer in self.peers():
            owner, _hops = self._lookup(peer.peer_id, COLLECTION_KEY_ID)
            reply = self._send(peer.peer_id, owner, protocol.COLLECTION_GET,
                               {})
            assert reply is not None
            peer.stats_cache.store_totals(CollectionTotals(
                num_documents=int(reply["docs"]),
                total_terms=int(reply["terms"]),
                num_peers=int(reply["peers"])))
            vocabulary = peer.engine.index.vocabulary()
            batches = {}
            for term in vocabulary:
                owner, _hops = self._lookup(peer.peer_id,
                                            hash_terms([term]))
                batches.setdefault(owner, []).append(term)
            for owner, terms in batches.items():
                reply = self._send(peer.peer_id, owner, protocol.DF_GET,
                                   {"terms": sorted(terms)})
                if reply is not None:
                    peer.stats_cache.store_dfs(dict(reply["dfs"]))

    def build_index(self) -> int:
        """Publish full single-term lists; returns total postings stored."""
        for peer in self.peers():
            stats = peer.stats_cache.statistics()
            batches: Dict[int, Dict[str, PostingList]] = {}
            for term in peer.engine.index.vocabulary():
                matching = peer.engine.index.documents_with_term(term)
                postings = [Posting(doc_id,
                                    peer.engine.score_document(
                                        doc_id, [term], stats))
                            for doc_id in matching]
                full = PostingList(postings, global_df=len(postings))
                owner, _hops = self._lookup(peer.peer_id,
                                            hash_terms([term]))
                batches.setdefault(owner, {})[term] = full
            for owner, lists in batches.items():
                self._send(peer.peer_id, owner, _PUBLISH, {"lists": lists})
        return sum(len(postings)
                   for peer in self.peers()
                   for postings in peer.term_store.values())

    # ------------------------------------------------------------------

    def query(self, origin: int, query_terms: Sequence[str],
              mode: str = "pipelined", k: int = 10) -> SingleTermTrace:
        """Run one conjunctive multi-keyword query."""
        terms = tuple(dict.fromkeys(query_terms))
        if not terms:
            raise ValueError("query has no terms")
        if mode not in ("fetch_all", "pipelined", "bloom"):
            raise ValueError(f"unknown mode {mode!r}")
        trace = SingleTermTrace(terms=terms, origin=origin, mode=mode)
        bytes_before = self.simulator.metrics.counter_value("net.bytes.sent")
        if mode == "fetch_all":
            result = self._query_fetch_all(origin, terms, trace)
        elif mode == "bloom":
            result = self._query_bloom(origin, terms, trace)
        else:
            result = self._query_pipelined(origin, terms, trace)
        ranked = sorted(((posting.doc_id, posting.score)
                         for posting in result),
                        key=lambda pair: (-pair[1], pair[0]))
        trace.results = ranked[:k]
        trace.bytes_sent = int(
            self.simulator.metrics.counter_value("net.bytes.sent")
            - bytes_before)
        return trace

    def _query_fetch_all(self, origin: int, terms: Tuple[str, ...],
                         trace: SingleTermTrace) -> PostingList:
        lists = []
        for term in terms:
            owner, hops = self._lookup(origin, hash_terms([term]))
            trace.lookup_hops += hops
            reply = self._send(origin, owner, _FETCH, {"term": term})
            trace.request_messages += 1
            postings: PostingList = (reply["postings"] if reply
                                     else PostingList())
            trace.postings_transferred += len(postings)
            lists.append(postings)
        return _intersect_at_origin(lists)

    def _query_pipelined(self, origin: int, terms: Tuple[str, ...],
                         trace: SingleTermTrace) -> PostingList:
        # Rarest-first order by global df, resolved at the term owners.
        ordered = self._order_by_global_df(origin, terms, trace)
        first_owner, hops = self._lookup(origin,
                                         hash_terms([ordered[0]]))
        trace.lookup_hops += hops
        reply = self._send(origin, first_owner, _FETCH,
                           {"term": ordered[0]})
        trace.request_messages += 1
        running: PostingList = (reply["postings"] if reply
                                else PostingList())
        trace.postings_transferred += len(running)
        for term in ordered[1:]:
            if not running:
                break
            owner, hops = self._lookup(origin, hash_terms([term]))
            trace.lookup_hops += hops
            reply = self._send(origin, owner, _SHIP,
                               {"term": term, "postings": running})
            trace.request_messages += 1
            running = reply["postings"] if reply else PostingList()
            trace.postings_transferred += len(running)
        return running

    def _query_bloom(self, origin: int, terms: Tuple[str, ...],
                     trace: SingleTermTrace) -> PostingList:
        """Bloom-filter intersection (Zhang & Suel's optimization).

        For the first (rarest, second-rarest) pair: fetch a Bloom filter
        of the rarest list, have the second owner filter its list through
        it, then verify the candidates (and collect their scores) at the
        rarest owner — no full list ever crosses the wire, but the filter
        itself still scales with the list.  Any remaining terms intersect
        the (now small) running set via the pipelined path.
        """
        ordered = self._order_by_global_df(origin, terms, trace)
        first_owner, hops = self._lookup(origin,
                                         hash_terms([ordered[0]]))
        trace.lookup_hops += hops
        if len(ordered) == 1:
            reply = self._send(origin, first_owner, _FETCH,
                               {"term": ordered[0]})
            trace.request_messages += 1
            postings: PostingList = (reply["postings"] if reply
                                     else PostingList())
            trace.postings_transferred += len(postings)
            return postings
        reply = self._send(origin, first_owner, _BLOOM_GET,
                           {"term": ordered[0]})
        trace.request_messages += 1
        bloom: BloomFilter = reply["bloom"]
        second_owner, hops = self._lookup(origin,
                                          hash_terms([ordered[1]]))
        trace.lookup_hops += hops
        reply = self._send(origin, second_owner, _BLOOM_FILTER,
                           {"term": ordered[1], "bloom": bloom})
        trace.request_messages += 1
        candidates: PostingList = (reply["postings"] if reply
                                   else PostingList())
        trace.postings_transferred += len(candidates)
        # Verify candidates at the rarest owner (removes false positives)
        # and add its per-term scores.
        reply = self._send(origin, first_owner, _VERIFY,
                           {"term": ordered[0],
                            "doc_ids": candidates.doc_ids()})
        trace.request_messages += 1
        verified = reply["scores"] if reply else {}
        running = PostingList(
            [Posting(posting.doc_id,
                     posting.score + verified[posting.doc_id])
             for posting in candidates if posting.doc_id in verified],
            global_df=len(verified))
        for term in ordered[2:]:
            if not running:
                break
            owner, hops = self._lookup(origin, hash_terms([term]))
            trace.lookup_hops += hops
            reply = self._send(origin, owner, _SHIP,
                               {"term": term, "postings": running})
            trace.request_messages += 1
            running = reply["postings"] if reply else PostingList()
            trace.postings_transferred += len(running)
        return running

    def _order_by_global_df(self, origin: int, terms: Tuple[str, ...],
                            trace: SingleTermTrace) -> List[str]:
        dfs: Dict[str, int] = {}
        for term in terms:
            owner, hops = self._lookup(origin, hash_terms([term]))
            trace.lookup_hops += hops
            reply = self._send(origin, owner, protocol.DF_GET,
                               {"terms": [term]})
            trace.request_messages += 1
            dfs[term] = (int(reply["dfs"].get(term, 0)) if reply else 0)
        return sorted(terms, key=lambda term: (dfs[term], term))

    # ------------------------------------------------------------------

    def bytes_sent_total(self) -> float:
        return self.simulator.metrics.counter_value("net.bytes.sent")

    def reset_traffic(self) -> None:
        self.simulator.metrics.reset()
        self.transport.reset_load_counters()

    def total_postings_stored(self) -> int:
        return sum(len(postings)
                   for peer in self.peers()
                   for postings in peer.term_store.values())


def _intersect_at_origin(lists: List[PostingList]) -> PostingList:
    """Conjunctive intersection with score accumulation."""
    if not lists:
        return PostingList()
    lists = sorted(lists, key=len)
    scores: Dict[int, float] = {posting.doc_id: posting.score
                                for posting in lists[0]}
    for postings in lists[1:]:
        found = {posting.doc_id: posting.score for posting in postings}
        scores = {doc_id: score + found[doc_id]
                  for doc_id, score in scores.items()
                  if doc_id in found}
        if not scores:
            break
    result = [Posting(doc_id, score) for doc_id, score in scores.items()]
    return PostingList(result, global_df=len(result))
