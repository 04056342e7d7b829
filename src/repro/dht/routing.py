"""Routing-table construction strategies and their greedy next hop.

The AlvisP2P paper (Section 3) states that its DHT "uses the concept of
'hop space' for routing table construction" so that it "supports arbitrary
skews in the distribution of the peers in the identifier space" while
keeping routing tables of size O(log n) and expected O(log n) hops
(Klemm, Girdzijauskas, Le Boudec, Aberer — *On Routing in Distributed Hash
Tables*, P2P 2007).

Two strategies are implemented so experiment E7 can contrast them:

* :class:`NaiveFingers` — classic Chord fingers at id-space offsets
  ``2^i``.  Under uniform peer placement this yields ~log2(n) hops, but
  when peers are crowded into a small arc of the ring, greedy routing must
  resolve exponentially fine id distances and the hop count degrades
  towards the id width (up to 64) instead of log2(n).

* :class:`HopSpaceFingers` — fingers at exponential *rank* offsets: the
  i-th finger of the peer at rank r points at the peer at rank
  ``r + 2^i (mod n)``.  Greedy routing then halves the remaining *peer
  count* each hop, giving ceil(log2 n) hops for any placement.

Each strategy answers two questions from a sorted membership snapshot,
which models the converged state of the deployed gossip maintenance that
the published evaluation measures.  :meth:`~FingerTableStrategy.build`
lists one node's fingers: the table E7 reports.
:meth:`~FingerTableStrategy.next_hop` is what routing runs: the hop the
greedy scan of :meth:`repro.dht.node.DHTNode.next_hop` would pick from
those fingers plus the successor list, computed in closed form from the
node's rank, so no per-node table is ever built or kept fresh.
"""

from __future__ import annotations

import abc
import random
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence

from repro.dht.idspace import ID_BITS, ID_SPACE, random_id
from repro.dht.node import DHTNode

__all__ = ["FingerTableStrategy", "NaiveFingers", "HopSpaceFingers",
           "uniform_ids", "skewed_ids"]

_SUCCESSORS = DHTNode.SUCCESSOR_LIST_SIZE


class FingerTableStrategy(abc.ABC):
    """Builds the out-neighbour list of one node from a membership snapshot
    and computes greedy routing's choice over it in closed form."""

    @abc.abstractmethod
    def build(self, node_id: int, members: Sequence[int]) -> List[int]:
        """Return the finger ids for ``node_id``.

        ``members`` is the sorted list of all live node ids (including
        ``node_id`` itself).  The returned list excludes ``node_id`` and
        contains no duplicates; it always includes the immediate successor
        so greedy routing can terminate.
        """

    @abc.abstractmethod
    def next_hop(self, members: Sequence[int], rank: int,
                 key_id: int) -> Optional[int]:
        """Greedy next hop of ``members[rank]`` towards ``key_id``.

        Exactly what :meth:`repro.dht.node.DHTNode.next_hop` picks from
        :meth:`build`'s fingers plus the successor list: the neighbour
        furthest clockwise that does not pass the key.  ``None`` when no
        neighbour lies in ``(node, key]``, i.e. the successor owns the
        key.  ``tests/test_dht_routing.py`` pins the equivalence.
        """

    @staticmethod
    def _members_reached(members: Sequence[int], rank: int,
                         key_id: int) -> int:
        """How many members lie clockwise in ``(members[rank], key_id]``."""
        return (bisect_right(members, key_id) - rank - 1) % len(members)

    @staticmethod
    def _successor_index(target: int, members: Sequence[int]) -> int:
        """Index of the first member clockwise from (or at) ``target``."""
        return bisect_left(members, target) % len(members)

    @staticmethod
    def _dedupe_keep_order(ids: Sequence[int], self_id: int) -> List[int]:
        seen = set()
        result = []
        for finger in ids:
            if finger != self_id and finger not in seen:
                seen.add(finger)
                result.append(finger)
        return result


class NaiveFingers(FingerTableStrategy):
    """Chord-style fingers at id offsets ``2^i`` for i in [0, ID_BITS)."""

    def build(self, node_id: int, members: Sequence[int]) -> List[int]:
        if not members:
            raise ValueError("membership snapshot is empty")
        fingers = []
        for i in range(ID_BITS):
            target = (node_id + (1 << i)) % ID_SPACE
            index = self._successor_index(target, members)
            fingers.append(members[index])
        return self._dedupe_keep_order(fingers, node_id)

    def next_hop(self, members: Sequence[int], rank: int,
                 key_id: int) -> Optional[int]:
        # The furthest member not past the key sits at id offset
        # ``reach``; finger j = floor(log2 reach) is the furthest finger
        # not past it (finger j+1 starts beyond it).  The successor list
        # reaches rank offset min(SUCCESSORS, reached); take the further.
        n = len(members)
        reached = self._members_reached(members, rank, key_id)
        if reached == 0:
            return None
        node_id = members[rank]
        reach = (members[(rank + reached) % n] - node_id) % ID_SPACE
        target = (node_id + (1 << (reach.bit_length() - 1))) % ID_SPACE
        finger = (self._successor_index(target, members) - rank) % n
        return members[(rank + max(finger, min(reached, _SUCCESSORS))) % n]


class HopSpaceFingers(FingerTableStrategy):
    """Fingers at exponential rank (peer-count) offsets.

    The real protocol estimates ranks from sampled routing traffic; building
    from the snapshot gives the converged table the P2P'07 paper analyzes.
    """

    def build(self, node_id: int, members: Sequence[int]) -> List[int]:
        if not members:
            raise ValueError("membership snapshot is empty")
        n = len(members)
        my_rank = self._successor_index(node_id, members)
        if members[my_rank] != node_id:
            raise ValueError(f"node {node_id} not in membership snapshot")
        fingers = []
        offset = 1
        while offset < n:
            fingers.append(members[(my_rank + offset) % n])
            offset <<= 1
        return self._dedupe_keep_order(fingers, node_id)

    def next_hop(self, members: Sequence[int], rank: int,
                 key_id: int) -> Optional[int]:
        # Links cover every rank offset up to SUCCESSORS and each power
        # of two below n, so the furthest one not past the key is the
        # reached count itself, or the largest power of two not above it.
        reached = self._members_reached(members, rank, key_id)
        if reached == 0:
            return None
        if reached > _SUCCESSORS:
            reached = 1 << (reached.bit_length() - 1)
        return members[(rank + reached) % len(members)]


def uniform_ids(rng: random.Random, count: int) -> List[int]:
    """Draw ``count`` distinct uniformly random identifiers."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    ids: set = set()
    while len(ids) < count:
        ids.add(random_id(rng))
    return sorted(ids)


def skewed_ids(rng: random.Random, count: int,
               cluster_fraction: float = 0.9,
               cluster_width: float = 0.001) -> List[int]:
    """Draw identifiers with a heavy cluster, modelling arbitrary skew.

    A ``cluster_fraction`` share of peers is packed into an arc covering
    ``cluster_width`` of the ring; the rest is uniform.  This is the regime
    where naive id-space fingers degrade but hop-space fingers do not
    (experiment E7).  Skew like this arises in practice when peer ids are
    derived from semantic keys or IP prefixes rather than uniform hashes.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not 0 <= cluster_fraction <= 1:
        raise ValueError(
            f"cluster_fraction must be in [0, 1], got {cluster_fraction}")
    if not 0 < cluster_width <= 1:
        raise ValueError(
            f"cluster_width must be in (0, 1], got {cluster_width}")
    cluster_start = random_id(rng)
    width = max(1, int(ID_SPACE * cluster_width))
    ids: set = set()
    target_cluster = int(count * cluster_fraction)
    while len(ids) < target_cluster:
        ids.add((cluster_start + rng.randrange(width)) % ID_SPACE)
    while len(ids) < count:
        ids.add(random_id(rng))
    return sorted(ids)
