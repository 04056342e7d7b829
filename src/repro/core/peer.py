"""The AlvisP2P peer: all five layers composed into one endpoint.

A peer simultaneously plays two roles (Section 2):

* it *owns documents* — a local search engine (L5) indexes its shared
  directory, generates index entries for the global index, and answers
  refinement/harvest/document requests about its documents;
* it *maintains a fraction of the global index* — the keys the DHT assigns
  to it, with aggregated truncated posting lists, contributor sets,
  global term statistics and (under QDI) popularity monitoring.

All network-facing behaviour is in :meth:`on_message`, keyed by the
protocol kinds of :mod:`repro.net.protocol`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.access import AccessControlError, AccessManager, AccessPolicy
from repro.core.cache import LRUByteCache
from repro.core.config import AlvisConfig
from repro.core.global_index import GlobalIndexFragment, KeyEntry
from repro.core.global_stats import GlobalStatsCache, StatsStore
from repro.core.keys import Key
from repro.core.qdi import QDIManager
from repro.core.services import NetworkServices
from repro.ir.analysis import Analyzer
from repro.ir.bloom import BloomFilter
from repro.ir.documents import Document
from repro.ir.postings import PostingList
from repro.ir.search import LocalSearchEngine
from repro.net import protocol
from repro.net.message import Message

__all__ = ["AlvisPeer"]


class AlvisPeer:
    """One peer of the AlvisP2P network."""

    def __init__(self, peer_id: int, config: AlvisConfig,
                 analyzer: Optional[Analyzer] = None):
        self.peer_id = peer_id
        self.config = config
        self.engine = LocalSearchEngine(analyzer)
        self.fragment = GlobalIndexFragment(config.truncation_k)
        self.stats_store = StatsStore()
        self.stats_cache = GlobalStatsCache()
        self.access = AccessManager()
        self.qdi: Optional[QDIManager] = None
        self.services: Optional[NetworkServices] = None
        #: Probe-result cache for queries *issued by* this peer (the
        #: query engine's L3/L4 cache); disabled when ``cache_bytes`` is 0.
        self.probe_cache = LRUByteCache(config.cache_bytes,
                                        ttl=config.cache_ttl)
        #: Keys this peer was told to expand in the next HDK round.
        self.pending_expansions: List[Key] = []
        #: Replicas of other peers' entries (crash fault tolerance);
        #: promoted to ``fragment`` by ReplicationManager.repair().
        self.replica_store: Dict[Key, KeyEntry] = {}

    #: Class-level dispatch table (kind -> handler method name).  Shared
    #: by every peer instead of a per-instance dict of bound methods —
    #: at 100k peers the 20 bound-method entries per peer dominate the
    #: per-peer footprint for otherwise-empty peers.
    _HANDLER_NAMES: Dict[str, str] = {
        protocol.LOOKUP_HOP: "_on_lookup_hop",
        protocol.DF_PUBLISH: "_on_df_publish",
        protocol.DF_GET: "_on_df_get",
        protocol.COLLECTION_PUBLISH: "_on_collection_publish",
        protocol.COLLECTION_GET: "_on_collection_get",
        protocol.PUBLISH_KEY: "_on_publish_key",
        protocol.EXPAND_NOTIFY: "_on_expand_notify",
        protocol.PROBE_KEY: "_on_probe_key",
        protocol.PROBE_BATCH: "_on_probe_batch",
        protocol.FEEDBACK: "_on_feedback",
        protocol.CONTRIBUTORS_GET: "_on_contributors_get",
        protocol.HARVEST_KEY: "_on_harvest_key",
        protocol.REFINE_QUERY: "_on_refine_query",
        protocol.DOC_FETCH: "_on_doc_fetch",
        protocol.RETRACT_DOC: "_on_retract_doc",
        protocol.HANDOVER: "_on_handover",
        protocol.REPLICA_PUSH: "_on_replica_push",
        protocol.TERM_SCORES: "_on_term_scores",
        protocol.BLOOM_GET: "_on_bloom_get",
        protocol.BLOOM_MATCH: "_on_bloom_match",
    }

    # ------------------------------------------------------------------
    # Local document management (the "shared directory")
    # ------------------------------------------------------------------

    def publish_document(self, document: Document,
                         policy: Optional[AccessPolicy] = None) -> None:
        """Add a document to the shared directory and the local index.

        Making it visible in the *global* index additionally requires an
        indexing round (HDK build or QDI single-term base) — the network
        facade offers :meth:`AlvisNetwork.publish_incremental` for
        post-build additions.
        """
        document.owner_peer = self.peer_id
        self.engine.add_document(document)
        if policy is not None:
            self.access.set_policy(document.doc_id, policy)

    def unpublish_document(self, doc_id: int) -> Document:
        """Remove a document from the shared directory and local index."""
        self.access.remove(doc_id)
        return self.engine.remove_document(doc_id)

    def enable_qdi(self) -> None:
        """Attach a query-driven indexing manager to this peer."""
        self.qdi = QDIManager(self, self.config)

    # ------------------------------------------------------------------
    # Contributions to the statistics phase
    # ------------------------------------------------------------------

    def local_df_contributions(self) -> Dict[str, int]:
        """{term: local df} over this peer's collection."""
        index = self.engine.index
        return {term: index.document_frequency(term)
                for term in index.vocabulary()}

    def collection_report(self) -> Tuple[int, int]:
        """(number of local documents, total local term count)."""
        return self.engine.index.num_documents, self.engine.index.total_terms

    def global_statistics(self):
        """BM25-ready global statistics (after the statistics phase)."""
        return self.stats_cache.statistics()

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> Optional[Message]:
        """Transport entry point."""
        name = self._HANDLER_NAMES.get(message.kind)
        if name is None:
            raise ValueError(
                f"peer {self.peer_id} cannot handle {message.kind!r}")
        return getattr(self, name)(message)

    # -- overlay ---------------------------------------------------------

    def _on_lookup_hop(self, message: Message) -> Optional[Message]:
        return None  # routing hop; nothing to do at the IR layer

    # -- statistics -------------------------------------------------------

    def _on_df_publish(self, message: Message) -> Optional[Message]:
        self.stats_store.fold_dfs(dict(message.payload["dfs"]))
        return None

    def _on_df_get(self, message: Message) -> Optional[Message]:
        terms = list(message.payload["terms"])
        return message.reply(protocol.DF_REPLY,
                             {"dfs": self.stats_store.dfs(terms)})

    def _on_collection_publish(self, message: Message) -> Optional[Message]:
        payload = message.payload
        self.stats_store.fold_collection(int(payload["peer"]),
                                         int(payload["docs"]),
                                         int(payload["terms"]))
        return None

    def _on_collection_get(self, message: Message) -> Optional[Message]:
        totals = self.stats_store.collection_totals()
        return message.reply(protocol.COLLECTION_REPLY,
                             {"docs": totals.num_documents,
                              "terms": totals.total_terms,
                              "peers": totals.num_peers})

    # -- index construction ------------------------------------------------

    def _on_publish_key(self, message: Message) -> Optional[Message]:
        contributor = int(message.payload["contributor"])
        accepted = 0
        for item in message.payload["items"]:
            key = Key(item["key_terms"])
            self.fragment.publish(key, item["postings"],
                                  int(item["local_df"]), contributor,
                                  on_demand=bool(item.get("on_demand")))
            accepted += 1
        return message.reply(protocol.PUBLISH_ACK, {"accepted": accepted})

    def _on_expand_notify(self, message: Message) -> Optional[Message]:
        self.pending_expansions.append(Key(message.payload["key_terms"]))
        return None

    # -- retrieval ----------------------------------------------------------

    def _probe_entry(self, key: Key) -> Tuple[bool, Optional[PostingList]]:
        """Resolve one lattice probe against this peer's fragment.

        Shared by the single-probe and batched-probe handlers so QDI's
        per-key monitoring sees every probe either way.
        """
        entry = self.fragment.get(key)
        found = entry is not None and (bool(entry.postings)
                                       or bool(entry.contributors))
        if self.qdi is not None:
            self.qdi.on_probe(key, found)
        if not found:
            return False, None
        assert entry is not None
        return True, entry.postings

    def _on_probe_key(self, message: Message) -> Optional[Message]:
        found, postings = self._probe_entry(Key(message.payload["key_terms"]))
        return message.reply(protocol.PROBE_REPLY,
                             {"found": found, "postings": postings})

    def _on_probe_batch(self, message: Message) -> Optional[Message]:
        """All of one lattice frontier's probes owned by this peer, in
        a single message (the query engine's batched round)."""
        results = []
        for key_terms in message.payload["keys"]:
            found, postings = self._probe_entry(Key(key_terms))
            results.append({"found": found, "postings": postings})
        return message.reply(protocol.PROBE_BATCH_REPLY,
                             {"results": results})

    def _on_feedback(self, message: Message) -> Optional[Message]:
        if self.qdi is not None:
            key = Key(message.payload["key_terms"])
            self.qdi.on_feedback(key, bool(message.payload["redundant"]))
        return None

    # -- on-demand indexing support -----------------------------------------

    def _on_contributors_get(self, message: Message) -> Optional[Message]:
        key = Key([message.payload["term"]])
        entry = self.fragment.get(key)
        contributors = dict(entry.contributors) if entry else {}
        return message.reply(protocol.CONTRIBUTORS_REPLY,
                             {"contributors": contributors})

    def _on_harvest_key(self, message: Message) -> Optional[Message]:
        terms = list(message.payload["key_terms"])
        k = int(message.payload["k"])
        stats = (self.stats_cache.statistics()
                 if self.stats_cache.totals is not None else None)
        postings = self.engine.top_k_for_key(terms, k, stats=stats)
        return message.reply(protocol.HARVEST_REPLY,
                             {"postings": postings,
                              "local_df": postings.global_df})

    # -- single-term intersection (the E2 baseline) ---------------------------

    def _term_postings(self, term: str) -> PostingList:
        """The postings this peer holds under ``term``'s single-term key."""
        entry = self.fragment.get(Key([term]))
        return entry.postings if entry is not None else PostingList()

    def _on_term_scores(self, message: Message) -> Optional[Message]:
        """This term's scores for the requested documents that it lists
        (a pipelined intersection step, or a Bloom candidate check)."""
        scores = {posting.doc_id: posting.score
                  for posting in self._term_postings(message.payload["term"])}
        found = {doc_id: scores[doc_id]
                 for doc_id in (int(raw) for raw in message.payload["doc_ids"])
                 if doc_id in scores}
        return message.reply(protocol.TERM_SCORES_REPLY, {"scores": found})

    def _on_bloom_get(self, message: Message) -> Optional[Message]:
        postings = self._term_postings(message.payload["term"])
        return message.reply(protocol.BLOOM_REPLY,
                             {"bloom": BloomFilter.of(postings.doc_ids())})

    def _on_bloom_match(self, message: Message) -> Optional[Message]:
        bloom: BloomFilter = message.payload["bloom"]
        matches = [posting
                   for posting in self._term_postings(message.payload["term"])
                   if posting.doc_id in bloom]
        return message.reply(
            protocol.BLOOM_MATCH_REPLY,
            {"postings": PostingList(matches, global_df=len(matches))})

    # -- two-step refinement and document access ------------------------------

    def _on_refine_query(self, message: Message) -> Optional[Message]:
        terms = list(message.payload["terms"])
        stats = (self.stats_cache.statistics()
                 if self.stats_cache.totals is not None else None)
        present = [doc_id for doc_id
                   in (int(raw) for raw in message.payload["doc_ids"])
                   if self.engine.store.get(doc_id) is not None]
        values = self.engine.score_documents(present, terms, stats=stats)
        scores: Dict[int, float] = dict(zip(present, values))
        return message.reply(protocol.REFINE_REPLY, {"scores": scores})

    def _on_doc_fetch(self, message: Message) -> Optional[Message]:
        doc_id = int(message.payload["doc_id"])
        raw_credentials = message.payload.get("credentials")
        credentials = (tuple(raw_credentials)
                       if raw_credentials is not None else None)
        document = self.engine.store.get(doc_id)
        if document is None:
            return message.reply(protocol.DOC_REPLY,
                                 {"ok": False, "error": "not-found"})
        try:
            self.access.check(doc_id, credentials)
        except AccessControlError:
            return message.reply(protocol.DOC_REPLY,
                                 {"ok": False, "error": "access-denied"})
        terms = list(message.payload.get("terms", []))
        snippet = self.engine.make_snippet(document, terms)
        return message.reply(protocol.DOC_REPLY,
                             {"ok": True, "title": document.title,
                              "url": document.url, "snippet": snippet})

    # -- document lifecycle ----------------------------------------------------

    def _on_retract_doc(self, message: Message) -> Optional[Message]:
        """Remove one document's posting from a key this peer owns.

        Sent by the document's holder on unpublish, for the document's
        single-term keys.  Multi-term combination keys are cleaned up
        lazily (the querying peer filters results whose document no
        longer resolves to a live owner).
        """
        key = Key(message.payload["key_terms"])
        doc_id = int(message.payload["doc_id"])
        contributor = int(message.payload["contributor"])
        new_local_df = int(message.payload["new_local_df"])
        entry = self.fragment.get(key)
        if entry is None:
            return None
        remaining = [posting for posting in entry.postings
                     if posting.doc_id != doc_id]
        if new_local_df > 0:
            entry.contributors[contributor] = new_local_df
        else:
            entry.contributors.pop(contributor, None)
        entry.global_df = sum(entry.contributors.values())
        entry.postings = PostingList(
            remaining, global_df=max(entry.global_df, len(remaining)))
        if not entry.postings and not entry.contributors:
            self.fragment.remove(key)
        return None

    # -- churn ----------------------------------------------------------------

    def _on_handover(self, message: Message) -> Optional[Message]:
        for entry in message.payload["entries"]:
            assert isinstance(entry, KeyEntry)
            self.fragment.install(entry)
        return None

    def _on_replica_push(self, message: Message) -> Optional[Message]:
        for entry in message.payload["entries"]:
            assert isinstance(entry, KeyEntry)
            self.replica_store[entry.key] = entry
        return None

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (f"AlvisPeer(id={self.peer_id}, "
                f"docs={self.engine.num_documents}, "
                f"keys={len(self.fragment)})")
