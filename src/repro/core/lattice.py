"""Query-lattice exploration — the algorithm of Figure 1.

"As soon as a peer receives a new query, it starts to explore the lattice
of query term combinations in decreasing combination size order, starting
with the query itself.  For each node in the query lattice, the querying
peer requests the posting list associated with the term combination from
the peer responsible for it.  If the term combination is indeed present in
the global index, the requested posting list is sent back to the querying
peer, and if this list is not truncated, the part of the query lattice
dominated by the term combination is excluded from further lattice
exploration."

The optional approximation ("pruning the part of the lattice dominated by
a key associated with a truncated posting list") is the
``prune_on_truncated`` flag; it trades a marginal precision loss for load
balance (experiments E1 and E6).

The explorer is pure: :meth:`LatticeExplorer.explore` delegates probing
to a callback, so the algorithm is unit-testable offline; it is the
in-memory reference walk.  The query engine (:mod:`repro.core.runtime`)
walks the network with the same per-level building blocks
(:meth:`~LatticeExplorer.record_level`,
:meth:`~LatticeExplorer.remaining_after`,
:meth:`~LatticeExplorer.prune_remaining`):

* the probe callback (``probe_level``) receives every unexcluded key of
  one lattice level at once, so a caller can probe the frontier
  concurrently or batch its DHT lookups and probe requests —
  semantically identical to sequential probing because domination-based
  exclusions only ever affect strictly smaller keys (later levels);
* an early-termination hook (``should_stop``), consulted between levels
  with the keys still to be probed; when it fires, the remaining lattice
  is recorded as :attr:`ProbeStatus.PRUNED` without any network traffic
  (top-k threshold termination à la Akbarinia et al.).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.keys import Key
from repro.ir.postings import PostingList

__all__ = ["ProbeStatus", "ProbeRecord", "ExplorationOutcome",
           "LatticeExplorer"]

#: The probe callback: one lattice level's unexcluded keys -> per-key
#: (found, posting list or None), in the same order.  A lost probe may
#: report itself with a third element: (False, None, True) records the
#: node as :attr:`ProbeStatus.DROPPED`.
ProbeLevelFn = Callable[[List[Key]],
                        Sequence[Tuple[bool, Optional[PostingList]]]]

#: Early-termination hook: (outcome so far, keys still to be probed) ->
#: True to prune the rest of the lattice.
StopFn = Callable[["ExplorationOutcome", List[Key]], bool]


class ProbeStatus(enum.Enum):
    """What happened at one lattice node (the legend of Figure 1)."""

    UNTRUNCATED = "untruncated"   #: indexed, complete list retrieved
    TRUNCATED = "truncated"       #: indexed, truncated list retrieved
    MISSING = "missing"           #: probed but not in the global index
    SKIPPED = "skipped"           #: excluded by a dominating key
    PRUNED = "pruned"             #: cut off by top-k early termination
    DROPPED = "dropped"           #: probe lost to churn or congestion


@dataclass
class ProbeRecord:
    """One lattice node's outcome."""

    key: Key
    status: ProbeStatus
    postings: Optional[PostingList] = None


@dataclass
class ExplorationOutcome:
    """Everything the exploration produced."""

    query: Key
    records: List[ProbeRecord] = field(default_factory=list)

    @property
    def retrieved(self) -> Dict[Key, PostingList]:
        """Keys whose posting lists were actually fetched."""
        return {record.key: record.postings
                for record in self.records
                if record.postings is not None}

    def with_status(self, status: ProbeStatus) -> List[Key]:
        """Keys that ended in ``status``."""
        return [record.key for record in self.records
                if record.status == status]

    @property
    def probed_count(self) -> int:
        """Nodes that caused a network probe (neither skipped nor
        pruned)."""
        return sum(1 for record in self.records
                   if record.status not in (ProbeStatus.SKIPPED,
                                            ProbeStatus.PRUNED))

    @property
    def skipped_count(self) -> int:
        return sum(1 for record in self.records
                   if record.status == ProbeStatus.SKIPPED)

    @property
    def pruned_count(self) -> int:
        """Nodes cut off by top-k early termination."""
        return sum(1 for record in self.records
                   if record.status == ProbeStatus.PRUNED)

    def missing_keys(self) -> List[Key]:
        """Probed-but-absent combinations (QDI's indexing candidates)."""
        return self.with_status(ProbeStatus.MISSING)

    def covered_by_untruncated(self, key: Key) -> bool:
        """True if some retrieved *untruncated* key dominates or equals
        ``key`` — then indexing ``key`` would be redundant (QDI)."""
        for record in self.records:
            if record.status != ProbeStatus.UNTRUNCATED:
                continue
            if record.key == key or record.key.dominates(key):
                return True
        return False


class LatticeExplorer:
    """Top-down exploration with domination-based pruning."""

    def __init__(self, prune_on_truncated: bool = True,
                 max_lattice_terms: int = 8):
        #: Queries longer than this are truncated to their first
        #: ``max_lattice_terms`` terms — the lattice has 2^q - 1 nodes, so
        #: unbounded q would be pathological (real engines bound query
        #: length the same way).
        if max_lattice_terms < 1:
            raise ValueError("max_lattice_terms must be >= 1")
        self.prune_on_truncated = prune_on_truncated
        self.max_lattice_terms = max_lattice_terms

    def explore(self, query_terms: Iterable[str],
                probe_level: ProbeLevelFn,
                should_stop: Optional[StopFn] = None
                ) -> ExplorationOutcome:
        """Explore the lattice of ``query_terms``.

        ``probe_level`` answers each level's unexcluded keys.
        ``should_stop`` is consulted after every level and terminates the
        exploration when it returns True, marking all remaining
        unexcluded keys :attr:`ProbeStatus.PRUNED`.

        Returns the full exploration record, in the deterministic order in
        which nodes were visited (by decreasing size, then term order).
        """
        terms = list(dict.fromkeys(query_terms))[: self.max_lattice_terms]
        if not terms:
            raise ValueError("query has no terms")
        query = Key(terms)
        outcome = ExplorationOutcome(query=query)
        excluded: set = set()
        levels = Key.lattice_levels(terms)
        for depth, level in enumerate(levels):
            self._explore_level(level, probe_level, outcome, excluded)
            if should_stop is None:
                continue
            remaining = self.remaining_after(levels, depth, excluded)
            if remaining and should_stop(outcome, remaining):
                self.prune_remaining(levels, depth, outcome, excluded)
                break
        return outcome

    # ------------------------------------------------------------------
    # Per-level building blocks (shared with the query engine)
    # ------------------------------------------------------------------

    def record_level(self, level: Sequence[Key],
                     results_by_key: Dict[Key, Tuple],
                     outcome: ExplorationOutcome, excluded: set) -> None:
        """Classify one level's probe results in level order.

        Keys absent from ``results_by_key`` are recorded as
        :attr:`ProbeStatus.SKIPPED`; present keys are classified through
        the exclusion-updating rules, honoring an optional third
        "dropped" tuple element.  This is the single source of truth for
        per-level record semantics — the reference walk and the query
        engine both go through it.
        """
        for key in level:
            if key not in results_by_key:
                outcome.records.append(
                    ProbeRecord(key, ProbeStatus.SKIPPED))
                continue
            result = results_by_key[key]
            found, postings = result[0], result[1]
            dropped = len(result) > 2 and bool(result[2])
            self._record_result(key, found, postings, outcome, excluded,
                                dropped=dropped)

    @staticmethod
    def remaining_after(levels: Sequence[Sequence[Key]], depth: int,
                        excluded: set) -> List[Key]:
        """Unexcluded keys of every level below ``depth`` (the
        ``should_stop`` hook's second argument)."""
        return [key
                for later in levels[depth + 1:]
                for key in later
                if key not in excluded]

    @staticmethod
    def prune_remaining(levels: Sequence[Sequence[Key]], depth: int,
                        outcome: ExplorationOutcome,
                        excluded: set) -> None:
        """Record every level below ``depth`` as PRUNED (or SKIPPED when
        already excluded) after early termination fired."""
        for later in levels[depth + 1:]:
            for key in later:
                status = (ProbeStatus.SKIPPED
                          if key in excluded
                          else ProbeStatus.PRUNED)
                outcome.records.append(ProbeRecord(key, status))

    # ------------------------------------------------------------------

    def _record_result(self, key: Key, found: bool,
                       postings: Optional[PostingList],
                       outcome: ExplorationOutcome,
                       excluded: set,
                       dropped: bool = False) -> ProbeRecord:
        """Classify one probe result and update the exclusion set."""
        if dropped:
            # The probe was lost to churn: the owner never saw it, so it
            # is neither "missing" (QDI must not count it as an indexing
            # candidate) nor an exclusion source.
            record = ProbeRecord(key, ProbeStatus.DROPPED)
        elif not found or postings is None:
            record = ProbeRecord(key, ProbeStatus.MISSING)
        elif postings.truncated:
            record = ProbeRecord(key, ProbeStatus.TRUNCATED, postings)
            if self.prune_on_truncated:
                excluded.update(key.proper_subsets())
        else:
            record = ProbeRecord(key, ProbeStatus.UNTRUNCATED, postings)
            excluded.update(key.proper_subsets())
        outcome.records.append(record)
        return record

    def _explore_level(self, level: List[Key], probe_level: ProbeLevelFn,
                       outcome: ExplorationOutcome, excluded: set) -> None:
        # Exclusions only ever cover *strictly smaller* keys, so results
        # from this level cannot exclude its own siblings — probing the
        # whole frontier at once is equivalent to probing it in order.
        frontier = [key for key in level if key not in excluded]
        results = probe_level(frontier) if frontier else []
        if len(results) != len(frontier):
            raise ValueError(
                f"probe_level returned {len(results)} results for "
                f"{len(frontier)} keys")
        self.record_level(level, dict(zip(frontier, results)), outcome,
                          excluded)
