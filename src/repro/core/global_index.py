"""The fragment of the global distributed index held by one peer.

Each peer stores, for every key the DHT assigns to it:

* the (possibly truncated) globally merged posting list,
* the aggregated global document frequency,
* the set of contributor peers with their local dfs (needed by QDI's
  on-demand indexing to know whom to harvest from), and
* query-popularity statistics (the decentralized monitoring of Section 2).

The fragment also answers storage-accounting questions for experiment E3
and supports key-range extraction for churn handover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterator, List, Optional, Tuple

from repro.core.keys import Key
from repro.dht.idspace import clockwise_distance
from repro.ir.postings import PostingList

__all__ = ["KeyEntry", "GlobalIndexFragment"]


@dataclass
class KeyEntry:
    """Everything stored for one key."""

    key: Key
    postings: PostingList
    #: Aggregated global df: sum of contributors' local dfs.  An upper
    #: bound on the true global df (a document counted once per owner) —
    #: and exact here, since every document lives at exactly one peer.
    global_df: int = 0
    #: contributor peer id -> local df it reported.
    contributors: Dict[int, int] = field(default_factory=dict)
    #: Decayed query-popularity counter (QDI).
    popularity: float = 0.0
    #: True for keys created by QDI on-demand indexing (evictable).
    on_demand: bool = False

    def storage_bytes(self) -> int:
        """Approximate storage footprint of this entry."""
        return (self.key.wire_size() + self.postings.wire_size()
                + 16 * len(self.contributors) + 24)

    def wire_size(self) -> int:
        """Bytes to ship this entry during churn handover."""
        return self.storage_bytes()


class GlobalIndexFragment:
    """Key -> entry store with truncation discipline."""

    def __init__(self, truncation_k: int):
        if truncation_k <= 0:
            raise ValueError(f"truncation_k must be positive, got "
                             f"{truncation_k}")
        self.truncation_k = truncation_k
        self._entries: Dict[Key, KeyEntry] = {}

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[KeyEntry]:
        return iter(self._entries.values())

    def get(self, key: Key) -> Optional[KeyEntry]:
        """The entry for ``key``, or ``None``."""
        return self._entries.get(key)

    def keys(self) -> List[Key]:
        return list(self._entries.keys())

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------

    def publish(self, key: Key, postings: PostingList, local_df: int,
                contributor: int, on_demand: bool = False) -> KeyEntry:
        """Fold one contributor's postings into the entry for ``key``.

        Idempotent per contributor: re-publishing replaces the previous
        contribution's df in the aggregate (the merged posting list keeps
        max-score entries, so re-publishing the same postings is harmless).
        """
        entry = self._entries.get(key)
        if entry is None:
            entry = KeyEntry(key=key, postings=PostingList(),
                             on_demand=on_demand)
            self._entries[key] = entry
        previous = entry.contributors.get(contributor, 0)
        entry.contributors[contributor] = local_df
        entry.global_df += local_df - previous
        merged = entry.postings.merge(postings)
        bounded = (merged.truncate(self.truncation_k)
                   if len(merged) > self.truncation_k else merged)
        # The merge only sees truncated inputs; the aggregated df is the
        # authoritative result-set size.  ``bounded`` came out of
        # merge/truncate, so its entries are already canonical.
        entry.postings = PostingList._from_canonical(
            bounded.entries,
            max(entry.global_df, len(bounded.entries)))
        return entry

    def install(self, entry: KeyEntry) -> None:
        """Install a fully formed entry (handover / on-demand indexing)."""
        self._entries[entry.key] = entry

    def remove(self, key: Key) -> KeyEntry:
        """Remove and return an entry (KeyError if absent)."""
        return self._entries.pop(key)

    # ------------------------------------------------------------------
    # Popularity statistics (QDI)
    # ------------------------------------------------------------------

    def record_popularity(self, key: Key, weight: float = 1.0) -> float:
        """Bump the popularity of ``key``; creates a shadow entry if absent.

        Missing keys are tracked too ("each contacted peer also updates
        the usage statistics for the requested term combination"): a
        shadow entry has an empty posting list and no contributors.
        Returns the new popularity.
        """
        entry = self._entries.get(key)
        if entry is None:
            entry = KeyEntry(key=key, postings=PostingList())
            self._entries[key] = entry
        entry.popularity += weight
        return entry.popularity

    def decay_popularity(self, factor: float,
                         protect: Optional[AbstractSet[Key]] = None) -> None:
        """Multiply every popularity counter by ``factor``.

        Keys in ``protect`` keep their popularity unchanged this round.
        A maintenance round is record→decay→evict: feedback recorded
        *since the last round* must not be halved (and then possibly
        evicted) by the very round it arrived in, so the caller passes
        the keys it bumped as the protect set (see
        :meth:`repro.core.qdi.QDIManager.run_maintenance`).
        """
        if not 0 <= factor <= 1:
            raise ValueError(f"factor must be in [0, 1], got {factor}")
        for key, entry in self._entries.items():
            if protect is not None and key in protect:
                continue
            entry.popularity *= factor

    def evict_below(self, threshold: float,
                    protect: Optional[AbstractSet[Key]] = None) -> List[Key]:
        """Drop evictable entries with popularity below ``threshold``.

        Only on-demand (QDI-created) multi-term keys and empty shadow
        entries are evictable; single-term entries and HDK keys stay (they
        are the index's backbone).  Keys in ``protect`` — bumped since the
        last maintenance round — are never evicted in this round, however
        low their counter.  Returns the evicted keys.
        """
        victims = []
        for key, entry in self._entries.items():
            if entry.popularity >= threshold:
                continue
            if protect is not None and key in protect:
                continue
            is_shadow = not entry.postings and not entry.contributors
            if is_shadow or (entry.on_demand and len(key) > 1):
                victims.append(key)
        for key in victims:
            del self._entries[key]
        return victims

    # ------------------------------------------------------------------
    # Accounting and handover
    # ------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Total bytes of index state held by this peer (experiment E3)."""
        return sum(entry.storage_bytes()
                   for entry in self._entries.values())

    def postings_stored(self) -> int:
        """Total posting entries held (the HDK paper's storage unit)."""
        return sum(len(entry.postings)
                   for entry in self._entries.values())

    def entries_in_range(self, range_lo: int,
                         range_hi: int) -> List[KeyEntry]:
        """Entries whose key id lies in the clockwise interval
        ``(range_lo, range_hi]`` — the unit of churn handover."""
        interval = clockwise_distance(range_lo, range_hi)
        result = []
        for key, entry in self._entries.items():
            offset = clockwise_distance(range_lo, key.key_id)
            if 0 < offset <= interval:
                result.append(entry)
        return result

    def extract_range(self, range_lo: int, range_hi: int) -> List[KeyEntry]:
        """Remove and return all entries in the interval (for handover)."""
        moving = self.entries_in_range(range_lo, range_hi)
        for entry in moving:
            del self._entries[entry.key]
        return moving
