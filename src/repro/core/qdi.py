"""Query-Driven Indexing (QDI).

From Section 2: "the index is populated only with frequently queried and
non-redundant term combinations, and indexing is performed in parallel
with retrieval.  [It] uses decentralized monitoring of query statistics to
detect and index new popular keys, as well as to remove obsolete keys from
the index. ... The peer responsible for this key acquires a new posting
list containing a bounded number of top-ranked document references."

Mechanics implemented here (one manager per peer, governing the keys that
peer is responsible for):

* **Monitoring** — every probe and every post-query feedback message bumps
  a per-key popularity counter (misses are tracked via shadow entries).
* **Activation** — when a missing multi-term key's popularity reaches
  ``qdi_activation_threshold`` and the key is not *redundant* (covered by
  an indexed untruncated sub-combination), the responsible peer indexes it
  on demand.
* **On-demand indexing (harvest)** — the responsible peer asks the owner
  of the key's globally rarest term for that term's contributor set, then
  requests local top-k postings for the full combination from the top
  contributors, merges them and installs the truncated result.
* **Maintenance** — popularity decays geometrically every
  ``qdi_maintenance_interval`` probes; evictable keys (on-demand
  multi-term keys and shadow entries) below ``qdi_eviction_threshold``
  are dropped, keeping the index adaptive to the current query
  distribution.

Substitution note: the Infoscale'07 paper acquires postings through a
broadcast tree over document holders; contacting the rarest term's top
contributors exercises the same code path (bounded scatter/gather to the
peers that can contribute) with the same bounded traffic, which is the
property the demo paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.core.config import AlvisConfig
from repro.core.global_index import GlobalIndexFragment, KeyEntry
from repro.core.keys import Key
from repro.ir.postings import PostingList
from repro.net import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.peer import AlvisPeer

__all__ = ["QDIStats", "QDIManager"]


@dataclass
class QDIStats:
    """Counters reported by experiment E5."""

    probes_seen: int = 0
    activations: int = 0
    harvest_messages: int = 0
    evictions: int = 0
    redundant_suppressed: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "probes_seen": self.probes_seen,
            "activations": self.activations,
            "harvest_messages": self.harvest_messages,
            "evictions": self.evictions,
            "redundant_suppressed": self.redundant_suppressed,
        }


class QDIManager:
    """Per-peer query-driven indexing logic."""

    def __init__(self, peer: "AlvisPeer", config: AlvisConfig):
        self.peer = peer
        self.config = config
        self.stats = QDIStats()
        self._probes_since_maintenance = 0
        #: Keys whose popularity was recorded since the last maintenance
        #: round; protected from that round's decay and eviction so
        #: same-round feedback can never be wiped out by maintenance.
        self._bumped_since_maintenance: Set[Key] = set()

    # ------------------------------------------------------------------
    # Monitoring hooks (called from the peer's message handlers)
    # ------------------------------------------------------------------

    def on_probe(self, key: Key, found: bool) -> None:
        """A remote peer probed ``key`` at this (responsible) peer."""
        self.stats.probes_seen += 1
        self.peer.fragment.record_popularity(key)
        self._bumped_since_maintenance.add(key)
        self._probes_since_maintenance += 1
        if self._probes_since_maintenance >= \
                self.config.qdi_maintenance_interval:
            self.run_maintenance()

    def on_feedback(self, key: Key, redundant: bool) -> None:
        """Post-query feedback for a missing-but-useful combination.

        ``redundant`` means the querying peer found an untruncated indexed
        combination that already covers ``key``; such keys are never
        activated (indexing them would add storage without adding recall).
        """
        if redundant:
            self.stats.redundant_suppressed += 1
            return
        popularity = self.peer.fragment.record_popularity(key)
        self._bumped_since_maintenance.add(key)
        entry = self.peer.fragment.get(key)
        already_indexed = entry is not None and bool(entry.postings)
        if (len(key) > 1 and not already_indexed
                and popularity >= self.config.qdi_activation_threshold):
            self.activate(key)

    # ------------------------------------------------------------------
    # On-demand indexing
    # ------------------------------------------------------------------

    def activate(self, key: Key) -> Optional[KeyEntry]:
        """Acquire and install a posting list for ``key``.

        Returns the new entry, or ``None`` when no contributor could be
        found (e.g. the key matches no documents anywhere).
        """
        services = self.peer.services
        if services is None:
            raise RuntimeError("peer has no network services attached")
        rarest = self._rarest_term(key)
        contributors = self._fetch_contributors(rarest)
        if not contributors:
            return None
        ranked = sorted(contributors.items(),
                        key=lambda item: (-item[1], item[0]))
        fanout = ranked[: self.config.qdi_harvest_fanout]
        merged = PostingList()
        aggregated_df = 0
        for contributor_id, _local_df in fanout:
            payload = {"key_terms": list(key.terms),
                       "k": self.config.truncation_k}
            reply, _rtt = services.send(self.peer.peer_id, contributor_id,
                                        protocol.HARVEST_KEY, payload)
            self.stats.harvest_messages += 1
            if reply is None:
                continue
            postings: PostingList = reply["postings"]
            aggregated_df += int(reply["local_df"])
            merged = merged.merge(postings)
        if not merged and aggregated_df == 0:
            return None
        bounded = (merged.truncate(self.config.truncation_k)
                   if len(merged) > self.config.truncation_k else merged)
        previous = self.peer.fragment.get(key)
        entry = KeyEntry(
            key=key,
            postings=PostingList(bounded.entries,
                                 global_df=max(aggregated_df,
                                               len(bounded.entries))),
            global_df=aggregated_df,
            contributors={peer_id: df for peer_id, df in fanout},
            popularity=previous.popularity if previous else 0.0,
            on_demand=True,
        )
        self.peer.fragment.install(entry)
        self.stats.activations += 1
        self._note_index_update()
        return entry

    def _rarest_term(self, key: Key) -> str:
        """The key's term with the smallest cached global df.

        Terms with unknown df are assumed rare (df 0 sorts first), which
        errs toward smaller contributor sets — the cheap direction.
        """
        cache = self.peer.stats_cache
        return min(key.terms, key=lambda term: (cache.df(term), term))

    def _fetch_contributors(self, term: str) -> Dict[int, int]:
        """Ask the single-term key's owner for its contributor set."""
        services = self.peer.services
        term_key = Key([term])
        owners, _messages = services.lookup_owners(self.peer.peer_id,
                                                   [term_key.key_id])
        owner = owners[term_key.key_id]
        payload = {"term": term}
        reply, _rtt = services.send(self.peer.peer_id, owner,
                                    protocol.CONTRIBUTORS_GET, payload)
        if reply is None:
            return {}
        return dict(reply["contributors"])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def run_maintenance(self) -> List[Key]:
        """Decay popularity and evict obsolete keys; returns evictions.

        The ordering contract is explicit: popularity *recorded* since
        the last round is settled first — those keys are handed to decay
        and eviction as a protect set, so a combination that just
        received feedback is neither halved nor dropped by the very
        round its feedback arrived in.  From the next round on it ages
        normally.
        """
        self._probes_since_maintenance = 0
        protect = self._bumped_since_maintenance
        self._bumped_since_maintenance = set()
        fragment: GlobalIndexFragment = self.peer.fragment
        fragment.decay_popularity(self.config.qdi_decay, protect=protect)
        evicted = fragment.evict_below(self.config.qdi_eviction_threshold,
                                       protect=protect)
        self.stats.evictions += len(evicted)
        if evicted:
            # Evicted keys change probe outcomes; stale cached postings
            # at querying peers must not outlive them.
            self._note_index_update()
        return evicted

    def _note_index_update(self) -> None:
        """Tell the network the global index changed (cache validity)."""
        notify = getattr(self.peer.services, "note_index_update", None)
        if notify is not None:
            notify()
