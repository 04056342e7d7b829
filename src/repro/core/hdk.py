"""Indexing with Highly Discriminative Keys (HDK).

From Section 2: "The HDK approach generates new keys during the indexing
phase based on observed document frequencies: each time a posting list for
some key k exceeds a predefined size, new indexing keys (called expansions
of k) with more terms (and thus associated with a smaller number of
documents) are generated."  (Podnar et al., ICDE 2007.)

The construction proceeds in rounds over key size ``s``:

1. **Round 1** — every peer publishes, for each of its local terms, the
   single-term key with its local top-k postings and local df.  The
   responsible peer aggregates global df and the merged, truncated list.
2. **Expansion notification** — after round ``s``, every responsible peer
   scans its fragment for keys of size ``s`` whose aggregated global df
   exceeds ``DF_max``; those are *non-discriminative*, and each
   contributor is notified (``ExpandNotify``).
3. **Round s+1** — notified contributors enumerate expansion candidates:
   terms co-occurring with the key within the proximity window, capped at
   ``max_expansions_per_key`` (most frequent first).  Each candidate key
   is published like in round 1.  Rounds stop at ``s_max``.

Non-discriminative keys *remain* indexed with their truncated lists (the
paper's retrieval relies on them as fallbacks); expansion adds more
selective alternatives above them.

Scoring at publish time uses the globally aggregated statistics from the
statistics phase, so postings merged across peers are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, TYPE_CHECKING

from repro.core.config import AlvisConfig
from repro.core.keys import Key
from repro.net import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import AlvisNetwork

__all__ = ["HDKStats", "HDKIndexer"]


@dataclass
class HDKStats:
    """Construction statistics (reported by experiment E3)."""

    rounds: int = 0
    keys_published: int = 0
    publish_messages: int = 0
    expand_notifications: int = 0
    keys_by_size: Dict[int, int] = field(default_factory=dict)

    def record_key(self, size: int) -> None:
        self.keys_published += 1
        self.keys_by_size[size] = self.keys_by_size.get(size, 0) + 1


class HDKIndexer:
    """Orchestrates the round-based HDK construction over a network."""

    def __init__(self, network: "AlvisNetwork"):
        self.network = network
        self.config: AlvisConfig = network.config
        self.stats = HDKStats()

    # ------------------------------------------------------------------

    def build(self) -> HDKStats:
        """Run all rounds; requires the statistics phase to have run."""
        self._require_statistics()
        pending: Dict[int, List[Key]] = {
            peer.peer_id: self._single_term_candidates(peer)
            for peer in self.network.peers()
        }
        for size in range(1, self.config.s_max + 1):
            self.stats.rounds += 1
            self._publish_round(pending)
            if size == self.config.s_max:
                break
            pending = self._expansion_round(size)
            if not any(pending.values()):
                break
        return self.stats

    def build_single_term_only(self) -> HDKStats:
        """Round 1 only — the baseline index QDI starts from."""
        self._require_statistics()
        pending = {peer.peer_id: self._single_term_candidates(peer)
                   for peer in self.network.peers()}
        self.stats.rounds += 1
        self._publish_round(pending)
        return self.stats

    # ------------------------------------------------------------------

    def _require_statistics(self) -> None:
        for peer in self.network.peers():
            if peer.stats_cache.totals is None:
                raise RuntimeError(
                    "run the statistics phase before building the index")

    def _single_term_candidates(self, peer) -> List[Key]:
        return [Key([term]) for term in peer.engine.index.vocabulary()]

    def _publish_round(self, pending: Dict[int, List[Key]]) -> None:
        """Publish each peer's candidate keys, batched by responsible peer.

        Every candidate's owner is resolved in one publish-side round per
        peer (:meth:`~repro.core.network.AlvisNetwork.publish_owners`).
        """
        for peer in self.network.peers():
            candidates = pending.get(peer.peer_id, [])
            if not candidates:
                continue
            owners = self.network.publish_owners(
                peer.peer_id, [key.key_id for key in candidates])
            batches: Dict[int, List[Key]] = {}
            for key in candidates:
                batches.setdefault(owners[key.key_id], []).append(key)
            for owner, keys in batches.items():
                items = []
                for key in keys:
                    postings = peer.engine.top_k_for_key(
                        key.terms, self.config.truncation_k,
                        stats=peer.stats_cache.statistics())
                    local_df = postings.global_df
                    if local_df == 0:
                        continue
                    items.append({"key_terms": list(key.terms),
                                  "postings": postings,
                                  "local_df": local_df})
                    self.stats.record_key(len(key))
                if not items:
                    continue
                payload = {"contributor": peer.peer_id, "items": items}
                self.network.send(peer.peer_id, owner,
                                  protocol.PUBLISH_KEY, payload)
                self.stats.publish_messages += 1

    def _expansion_round(self, size: int) -> Dict[int, List[Key]]:
        """Notify contributors of non-discriminative keys; collect the
        expansion candidates they generate."""
        self._send_expand_notifications(size)
        pending: Dict[int, List[Key]] = {}
        for peer in self.network.peers():
            if not peer.pending_expansions:
                continue
            candidates = self._expand_locally(peer)
            peer.pending_expansions.clear()
            if candidates:
                pending[peer.peer_id] = candidates
        return pending

    def _send_expand_notifications(self, size: int) -> None:
        for owner in self.network.peers():
            for entry in list(owner.fragment):
                key = entry.key
                if len(key) != size:
                    continue
                if entry.global_df <= self.config.df_max:
                    continue
                for contributor in entry.contributors:
                    payload = {"key_terms": list(key.terms),
                               "global_df": entry.global_df}
                    self.network.send(owner.peer_id, contributor,
                                      protocol.EXPAND_NOTIFY, payload)
                    self.stats.expand_notifications += 1

    def _expand_locally(self, peer) -> List[Key]:
        """Generate this peer's expansion candidates for its notified keys.

        Candidates are terms co-occurring with the key inside the
        proximity window, most locally frequent first, capped per key.
        Deduplicated per peer ({a}+b and {b}+a both yield {a,b}).
        """
        seen: Set[Key] = set()
        candidates: List[Key] = []
        window = self.config.proximity_window
        for key in peer.pending_expansions:
            cooccurring = peer.engine.index.cooccurring_terms(
                key.terms, window)
            ranked = sorted(cooccurring.items(),
                            key=lambda item: (-item[1], item[0]))
            taken = 0
            for term, df in ranked:
                if df < self.config.expansion_min_df:
                    break  # sorted by df: everything after is rarer
                expanded = key.extend(term)
                if expanded in seen:
                    continue
                seen.add(expanded)
                candidates.append(expanded)
                taken += 1
                if taken >= self.config.max_expansions_per_key:
                    break
        return candidates
