"""A DHT node: identifier, fingers, successor list, greedy next-hop choice."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dht.idspace import clockwise_distance

__all__ = ["DHTNode"]


class DHTNode:
    """Routing table of one overlay node, and the greedy scan over it.

    Routing is greedy on clockwise distance: among the known neighbours
    (fingers plus successors) that do not overshoot the target, pick the one
    closest to it.  With hop-space fingers this realizes the ~log2(n)-hop
    guarantee; with naive fingers it realizes classic Chord behaviour.

    The ring keeps no node objects: it routes with the strategy's
    closed form (:meth:`repro.dht.routing.FingerTableStrategy.next_hop`).
    A ``DHTNode`` is the on-demand snapshot :meth:`DHTRing.node
    <repro.dht.ring.DHTRing.node>` builds for inspection (E7's table
    sizes), and :meth:`next_hop` is the linear-scan reference the closed
    form is tested against.
    """

    SUCCESSOR_LIST_SIZE = 4

    __slots__ = ("node_id", "fingers", "successors", "_neighbours")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.fingers: List[int] = []
        self.successors: List[int] = []
        self._neighbours: Optional[List[int]] = None

    # ------------------------------------------------------------------

    def set_fingers(self, fingers: Sequence[int]) -> None:
        """Install a freshly built finger list."""
        self.fingers = list(fingers)
        self._neighbours = None

    def set_successors(self, successors: Sequence[int]) -> None:
        """Install the successor list (used for termination and repair)."""
        self.successors = list(successors[: self.SUCCESSOR_LIST_SIZE])
        self._neighbours = None

    @property
    def successor(self) -> int:
        """Immediate successor (the node owning keys just after us)."""
        if not self.successors:
            return self.node_id
        return self.successors[0]

    def neighbours(self) -> List[int]:
        """All known out-links, successors first, without duplicates.

        Cached until the next ``set_fingers``/``set_successors``.
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
        termination on a consistent ring.  Routing uses the strategy's
        closed form; this linear scan is its reference.
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

    def __repr__(self) -> str:
        return (f"DHTNode(id={self.node_id}, "
                f"links={self.routing_table_size()})")
