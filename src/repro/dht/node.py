"""A DHT node: identifier, fingers, successor list, greedy next-hop choice."""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.dht.idspace import clockwise_distance

__all__ = ["DHTNode"]


class DHTNode:
    """State of one overlay node.

    Routing is greedy on clockwise distance: among the known neighbours
    (fingers plus successors) that do not overshoot the target, pick the one
    closest to it.  With hop-space fingers this realizes the ~log2(n)-hop
    guarantee; with naive fingers it realizes classic Chord behaviour.

    ``table_epoch`` tags the membership epoch the tables were last built
    against; the ring uses it for churn-local lazy maintenance (a node's
    tables are recomputed on first touch after a membership change
    instead of eagerly for every node on every join/leave).
    """

    SUCCESSOR_LIST_SIZE = 4

    __slots__ = ("node_id", "fingers", "successors", "table_epoch",
                 "predecessor", "_neighbours", "_hop_table")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.fingers: List[int] = []
        self.successors: List[int] = []
        #: Membership epoch the tables were built at; -1 = never built.
        self.table_epoch = -1
        #: Counter-clockwise ring neighbour, installed alongside the
        #: tables (valid while ``table_epoch`` is current); self until
        #: tables are built.  Saves a ring-wide bisect per ownership
        #: test on the routing hot paths.
        self.predecessor = node_id
        self._neighbours: Optional[List[int]] = None
        self._hop_table: Optional[Tuple[List[int], List[int]]] = None

    # ------------------------------------------------------------------

    def set_fingers(self, fingers: Sequence[int]) -> None:
        """Install a freshly built finger list."""
        self.fingers = list(fingers)
        self._neighbours = None
        self._hop_table = None

    def set_successors(self, successors: Sequence[int]) -> None:
        """Install the successor list (used for termination and repair)."""
        self.successors = list(successors[: self.SUCCESSOR_LIST_SIZE])
        self._neighbours = None
        self._hop_table = None

    @property
    def successor(self) -> int:
        """Immediate successor (the node owning keys just after us)."""
        if not self.successors:
            return self.node_id
        return self.successors[0]

    def neighbours(self) -> List[int]:
        """All known out-links, successors first, without duplicates.

        Cached until the next ``set_fingers``/``set_successors`` — the
        greedy next-hop scan reads it on every routed hop.
        """
        neighbours = self._neighbours
        if neighbours is None:
            seen = set()
            neighbours = []
            for candidate in self.successors + self.fingers:
                if candidate != self.node_id and candidate not in seen:
                    seen.add(candidate)
                    neighbours.append(candidate)
            self._neighbours = neighbours
        return neighbours

    def routing_table_size(self) -> int:
        """Number of distinct out-links (the O(log n) claim of E7)."""
        return len(self.neighbours())

    # ------------------------------------------------------------------

    def owns(self, key_id: int, predecessor_id: int) -> bool:
        """True if this node is the successor of ``key_id``.

        Ownership interval is ``(predecessor, self]`` clockwise.
        """
        if predecessor_id == self.node_id:
            return True  # single-node ring owns everything
        distance_key = clockwise_distance(predecessor_id, key_id)
        distance_self = clockwise_distance(predecessor_id, self.node_id)
        return 0 < distance_key <= distance_self

    def next_hop(self, key_id: int) -> Optional[int]:
        """Greedy next hop towards the owner of ``key_id``.

        Returns ``None`` when no neighbour makes progress, i.e. this node's
        successor owns the key (or the ring is a singleton).  The chosen
        neighbour never overshoots the key, which guarantees progress and
        termination on a consistent ring.  Routing uses
        :meth:`next_hop_fast`; this linear scan is its reference.
        """
        best: Optional[int] = None
        best_distance: Optional[int] = None
        node_id = self.node_id
        my_distance = clockwise_distance(node_id, key_id)
        for candidate in self.neighbours():
            candidate_distance = clockwise_distance(candidate, key_id)
            # A useful hop moves strictly closer to the key (clockwise)
            # without stepping past it.
            forward = clockwise_distance(node_id, candidate)
            if forward == 0 or forward > my_distance:
                continue
            if best_distance is None or candidate_distance < best_distance:
                best = candidate
                best_distance = candidate_distance
        return best

    def next_hop_fast(self, key_id: int) -> Optional[int]:
        """Bisect form of :meth:`next_hop` — same choice, O(log links).

        Among neighbours that do not overshoot (clockwise offset from this
        node ``<= my_distance``), the scan picks the one minimizing
        ``clockwise_distance(candidate, key)``; for those candidates that
        distance equals ``my_distance - offset``, so the winner is simply
        the largest non-overshooting offset.  Distinct ids mean distinct
        offsets, so the argmax is unique and a binary search over the
        offset-sorted neighbour table returns exactly what the scan
        returns (``tests/test_dht_routing.py`` pins the equivalence).
        """
        table = self._hop_table
        if table is None:
            node_id = self.node_id
            pairs = sorted((clockwise_distance(node_id, candidate),
                            candidate) for candidate in self.neighbours())
            table = ([offset for offset, _ in pairs],
                     [candidate for _, candidate in pairs])
            self._hop_table = table
        offsets, candidates = table
        index = bisect_right(offsets,
                             clockwise_distance(self.node_id, key_id))
        if index == 0:
            return None
        return candidates[index - 1]

    def __repr__(self) -> str:
        return (f"DHTNode(id={self.node_id}, "
                f"links={self.routing_table_size()})")
