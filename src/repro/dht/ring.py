"""The DHT ring: membership and iterative lookup.

The ring is the authoritative membership view (in a deployment this role is
played by the converged maintenance protocol).  Lookups, however, are
executed hop by hop, each hop the greedy choice of the node it leaves
(:meth:`~repro.dht.routing.FingerTableStrategy.next_hop`, computed from
the sorted membership), so the measured hop counts and routing traffic are
those of the distributed algorithm, not of the oracle.  One round step
routes every lookup (a single key is a batch of one) under two
deliveries: :meth:`DHTRing.lookup_many` (indexing and maintenance) and
its event-kernel twin :meth:`DHTRing.lookup_many_async` (every query).
A ring accounts its routing traffic if and only if it has a transport.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dht.idspace import ID_BITS
from repro.dht.node import DHTNode
from repro.dht.routing import FingerTableStrategy, HopSpaceFingers
from repro.net.message import HEADER_BYTES, Message, encoded_size
from repro.net.transport import TransportBackend
from repro.sim.procs import all_of

__all__ = ["LookupRound", "DHTRing",
           "HOP_BATCH_BASE_BYTES", "HOP_KEY_BYTES"]

#: Precomputed ``LookupHop`` wire sizes for the hop fast path.  The wire
#: model encodes ints at a fixed 8 bytes, so hop-message sizes depend
#: only on the key *count*, never the key values — the envelope of a
#: hop, and the per-key increment.  Pinned against
#: ``Message.size_bytes`` by ``tests/test_dht_routing.py``.
HOP_BATCH_BASE_BYTES = HEADER_BYTES + encoded_size({"key_ids": []})
HOP_KEY_BYTES = encoded_size(0)

@dataclass
class LookupRound:
    """Outcome of one (shared-traversal) lookup round over one or more
    keys.

    ``messages`` counts the routed ``LookupHop`` messages actually sent:
    keys whose greedy routes share a hop share one message, which is
    where the batching saves traffic over per-key lookups.
    """

    owners: Dict[int, int]          #: key id -> owning node id
    messages: int                   #: routed hop messages for the batch
    #: key id -> the ``LookupHop`` messages that carried it (its path
    #: length on a walk without churn or rejected hops).
    per_key_hops: Dict[int, int]
    #: Key ids carried by each hop message, in send order — lets callers
    #: that share one round across several queries attribute messages to
    #: the queries whose keys travelled in them.  ``None`` from the
    #: synchronous walk.
    message_batches: Optional[List[List[int]]] = None
    #: Wire size of each hop message (0 on a ring without a transport),
    #: aligned with ``message_batches``.
    message_bytes: Optional[List[int]] = None
    #: Keys stopped by a hop a full service queue rejected, by the node
    #: that sent it: the frontier a retry resumes from.  Empty from an
    #: async walk nothing rejected; ``None`` from the synchronous walk.
    rejected: Optional[Dict[int, List[int]]] = None

    @property
    def total_hops(self) -> int:
        """Sum of the individual path lengths (the unbatched cost)."""
        return sum(self.per_key_hops.values())


class DHTRing:
    """The sorted membership plus routing orchestration.

    There is no per-node routing object: every hop is the strategy's
    closed-form greedy choice over the current membership, so a join or
    leave has no table to refresh.
    """

    def __init__(self, strategy: Optional[FingerTableStrategy] = None,
                 transport: Optional[TransportBackend] = None):
        self.strategy = strategy if strategy is not None else HopSpaceFingers()
        self.transport = transport
        #: Membership authority: a plain id set + sorted list.
        self._members: set = set()
        self._sorted_ids: List[int] = []
        #: Incremented on every membership change; caches of key->owner
        #: resolutions pair with it to detect staleness cheaply.
        self.membership_epoch = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of live nodes."""
        return len(self._sorted_ids)

    @property
    def member_ids(self) -> Tuple[int, ...]:
        """Sorted tuple of live node ids."""
        return tuple(self._sorted_ids)

    def node(self, node_id: int) -> DHTNode:
        """A snapshot of ``node_id``'s converged routing state (KeyError
        if absent): the strategy's fingers plus the successor list.

        Built on demand for inspection (E7's table sizes, the
        differential tests); routing never reads it.
        """
        if node_id not in self._members:
            raise KeyError(node_id)
        members = self._sorted_ids
        n = len(members)
        rank = bisect_left(members, node_id)
        node = DHTNode(node_id)
        node.set_fingers(self.strategy.build(node_id, members))
        if n > 1:
            node.set_successors(
                [members[(rank + offset) % n]
                 for offset in range(1, DHTNode.SUCCESSOR_LIST_SIZE + 1)])
        return node

    def contains(self, node_id: int) -> bool:
        """True if ``node_id`` is a live member."""
        return node_id in self._members

    def add_node(self, node_id: int) -> None:
        """Add a node to the membership."""
        if node_id in self._members:
            raise ValueError(f"node {node_id} already present")
        self._members.add(node_id)
        insort(self._sorted_ids, node_id)
        self.membership_epoch += 1

    def remove_node(self, node_id: int) -> None:
        """Remove a node from the membership."""
        if node_id not in self._members:
            raise KeyError(f"node {node_id} not present")
        self._members.discard(node_id)
        self._sorted_ids.pop(bisect_left(self._sorted_ids, node_id))
        self.membership_epoch += 1

    # ------------------------------------------------------------------
    # Ownership oracle (what the converged ring agrees on)
    # ------------------------------------------------------------------

    def successor_of(self, key_id: int) -> int:
        """The live node owning ``key_id`` (its clockwise successor)."""
        if not self._sorted_ids:
            raise ValueError("ring is empty")
        index = bisect_left(self._sorted_ids, key_id)
        if index == len(self._sorted_ids):
            index = 0
        return self._sorted_ids[index]

    def predecessor_of(self, node_id: int) -> int:
        """The live node immediately counter-clockwise of ``node_id``."""
        if not self._sorted_ids:
            raise ValueError("ring is empty")
        index = bisect_left(self._sorted_ids, node_id)
        if index >= len(self._sorted_ids) or self._sorted_ids[index] != node_id:
            raise KeyError(f"node {node_id} not present")
        return self._sorted_ids[index - 1]  # wraps via Python indexing

    # ------------------------------------------------------------------
    # Routing state
    # ------------------------------------------------------------------

    def maintain(self) -> None:
        """Converge routing state after a membership change: a no-op.

        The hook callers invoke after every join/leave.  Routing derives
        each hop from the current membership, so there is nothing to
        converge.
        """

    def mean_routing_table_size(self) -> float:
        """Average out-degree across nodes (E7 reports this is O(log n))."""
        if not self._members:
            raise ValueError("ring is empty")
        total = sum(self.node(node_id).routing_table_size()
                    for node_id in self._sorted_ids)
        return total / len(self._members)

    # ------------------------------------------------------------------
    # Iterative lookup
    # ------------------------------------------------------------------

    def _route_round(self, frontier: Dict[int, List[int]], source_id: int,
                     owners: Dict[int, int],
                     per_key_hops: Optional[Dict[int, int]] = None,
                     depth: int = 0) -> List[Tuple[int, int, List[int]]]:
        """One round of the greedy frontier walk over the current
        membership, the step both walks drive.

        ``frontier`` maps each node to the keys it holds.  Keys standing
        at their owner go to ``owners`` (and to ``per_key_hops`` as
        ``depth``, when given); keys stranded at a departed node restart
        from the source, or take the oracle's owner if it left too.
        Returns the round's hops ``(node, next node, keys)`` in
        node-then-target order; a restart is a message-free hop from the
        source to itself.
        """
        members = self._sorted_ids
        n = len(members)
        hop = self.strategy.next_hop
        hops: List[Tuple[int, int, List[int]]] = []
        for node_id in sorted(frontier):
            keys = frontier[node_id]
            if node_id not in self._members:
                if source_id in self._members:
                    hops.append((source_id, source_id, keys))
                else:
                    for key_id in keys:
                        owners[key_id] = self.successor_of(key_id)
                continue
            rank = bisect_left(members, node_id)
            by_next: Dict[int, List[int]] = {}
            by_next_get = by_next.get
            for key_id in keys:
                if bisect_left(members, key_id) % n == rank:
                    owners[key_id] = node_id
                    if per_key_hops is not None:
                        per_key_hops[key_id] = depth
                    continue
                next_id = hop(members, rank, key_id)
                if next_id is None:
                    next_id = members[(rank + 1) % n]
                batch = by_next_get(next_id)
                if batch is None:
                    by_next[next_id] = [key_id]
                else:
                    batch.append(key_id)
            # Deterministic emission order; a 0/1-entry dict (the
            # common case late in the walk) is already sorted.
            for next_id in (by_next if len(by_next) < 2
                            else sorted(by_next)):
                hops.append((node_id, next_id, by_next[next_id]))
        return hops

    def lookup_many(self, source_id: int,
                    key_ids: Iterable[int]) -> LookupRound:
        """Route one *batch* of keys from ``source_id`` in a shared round.

        Every key follows its own greedy hop sequence (each hop the
        strategy's choice at the node it leaves) to its owner — but keys
        taking the same hop travel in one combined ``LookupHop`` message,
        so routing steps are shared and the per-key message cost is
        amortized across the batch (the lattice-frontier batching of the
        query engine).  A single key is a batch of one: one message per
        hop.  Pure routing — nothing is memoized, so every call pays its
        walk.

        The synchronous delivery: the membership holds still, so a key's
        hop count is the round it arrives in.  Each hop is accounted in
        bulk (:meth:`~repro.net.transport.SimTransport.begin_hop_bulk`),
        by ``deliver_hop`` or as a ``LookupHop`` request; an
        undeliverable one raises
        :class:`~repro.net.transport.DeliveryError`.
        """
        if source_id not in self._members:
            raise KeyError(f"source node {source_id} not present")
        transport = self.transport
        deliver = getattr(transport, "deliver_hop", None)
        # Bulk hop accounting: hops accumulate in ``hop_acc`` (dst ->
        # [messages, bytes]) and are settled in one flush.
        live = transport.begin_hop_bulk() if deliver is not None else None
        hop_acc: Optional[Dict[int, List[int]]] = (
            {} if live is not None else None)
        pending = sorted(set(key_ids))
        owners: Dict[int, int] = {}
        per_key_hops: Dict[int, int] = {key_id: 0 for key_id in pending}
        frontier: Dict[int, List[int]] = {source_id: pending}
        messages = 0
        rounds = 0
        max_rounds = 2 * ID_BITS + self.size
        try:
            while frontier:
                rounds += 1
                if rounds > max_rounds:
                    raise RuntimeError(f"lookup exceeded {max_rounds} "
                                       "rounds; routing is inconsistent")
                next_frontier: Dict[int, List[int]] = {}
                for node_id, next_id, batch in self._route_round(
                        frontier, source_id, owners, per_key_hops,
                        rounds - 1):
                    messages += 1
                    next_frontier.setdefault(next_id, []).extend(batch)
                    if transport is None:
                        continue
                    size = HOP_BATCH_BASE_BYTES + HOP_KEY_BYTES * len(batch)
                    if hop_acc is not None and next_id in live:
                        entry = hop_acc.get(next_id)
                        if entry is None:
                            hop_acc[next_id] = [1, size]
                        else:
                            entry[0] += 1
                            entry[1] += size
                    elif deliver is not None:
                        # An unregistered destination: deliver_hop raises.
                        deliver(node_id, next_id, size)
                    else:
                        transport.request(Message(
                            src=node_id, dst=next_id, kind="LookupHop",
                            payload={"key_ids": batch}))
                frontier = next_frontier
        finally:
            # Settle accumulated bulk hops even when a delivery error
            # aborts the walk: exactly the hops delivered before it.
            if hop_acc:
                transport.flush_hop_bulk(hop_acc)
        return LookupRound(owners=owners, messages=messages,
                           per_key_hops=per_key_hops)

    #: An alias, not a second walk: nothing routes through it.  Like
    #: :meth:`maintain` it survives only because ``perf/tracer.py``'s
    #: entry-point table names it, and goes together with that entry.
    lookup = lookup_many

    def lookup_many_async(self, source_id: int, key_ids: Iterable[int],
                          frontier: Optional[Dict[int, List[int]]] = None):
        """The event-kernel delivery of :meth:`lookup_many`'s round step.

        A generator to be driven by :meth:`repro.sim.events.Simulator.spawn`
        (or ``yield from`` inside another proc): each round sends its
        shared ``LookupHop`` messages through
        :meth:`~repro.net.transport.SimTransport.request_async` and
        *waits* for their delivery before advancing the frontier, so
        lookups from different queries genuinely interleave in virtual
        time.  Over a fixed membership both walks route every key alike.
        A ``frontier`` (``{node: keys}``, e.g. an earlier round's
        ``rejected``) starts the walk there instead of ``key_ids`` at
        the source.

        Churn mid-lookup is handled gracefully instead of raising:

        * a hop whose destination departed the ring re-routes its keys
          from the sending node (over the new membership) on the next
          round;
        * a hop whose destination is still a ring member but has no
          transport endpoint (a half-dead peer) falls back to the
          ownership oracle for its keys — the subsequent probe to that
          owner will surface the drop;
        * keys stranded at a node that itself departed restart from the
          source, or fall back to the oracle when the source is gone.

        A hop rejected by a *full service queue* (``"overflow"``,
        congestion rather than churn) is not retried: its keys stop at
        the sending node and come back in ``rejected``, for the caller's
        retransmission policy.

        Returns (via ``StopIteration`` / proc result) a
        :class:`LookupRound` with ``message_batches``,
        ``message_bytes`` and ``rejected`` populated.
        """
        if source_id not in self._members:
            raise KeyError(f"source node {source_id} not present")
        transport = self.transport
        if frontier is None:
            frontier = {source_id: sorted(set(key_ids))}
        owners: Dict[int, int] = {}
        per_key_hops = {key_id: 0 for keys in frontier.values()
                        for key_id in keys}
        message_batches: List[List[int]] = []
        message_bytes: List[int] = []
        rejected: Dict[int, List[int]] = {}
        rounds = 0
        max_rounds = 2 * ID_BITS + self.size
        while frontier:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(f"lookup exceeded {max_rounds} rounds; "
                                   "routing is inconsistent")
            # Routed over the membership as it is now: it may have
            # changed while the last round's hops were in flight.
            sends = []
            for node_id, next_id, batch in self._route_round(
                    frontier, source_id, owners):
                future = None
                if node_id != next_id:      # a restart sends nothing
                    message_batches.append(batch)
                    for key_id in batch:
                        per_key_hops[key_id] += 1
                    if transport is None:
                        message_bytes.append(0)
                    else:
                        hop_message = Message(src=node_id, dst=next_id,
                                              kind="LookupHop",
                                              payload={"key_ids": batch})
                        message_bytes.append(hop_message.size_bytes())
                        future = transport.request_async(hop_message)
                sends.append((future, node_id, next_id, batch))
            futures = [future for future, *_rest in sends
                       if future is not None]
            if futures:
                yield all_of(futures)
            next_frontier: Dict[int, List[int]] = {}
            for future, node_id, next_id, batch in sends:
                if future is not None and not future.value.ok:
                    if (future.value.status == "overflow"
                            and node_id in self._members):
                        # Congestion, not churn: the keys wait at the
                        # sender for the caller's retransmission.
                        rejected.setdefault(node_id, []).extend(batch)
                    elif self.contains(next_id):
                        # Half-dead: in the ring but unreachable — the
                        # oracle owner is the best answer we can route to.
                        for key_id in batch:
                            owners[key_id] = self.successor_of(key_id)
                    elif node_id in self._members:
                        next_frontier.setdefault(node_id, []).extend(batch)
                    elif source_id in self._members:
                        next_frontier.setdefault(source_id,
                                                 []).extend(batch)
                    else:
                        for key_id in batch:
                            owners[key_id] = self.successor_of(key_id)
                else:
                    next_frontier.setdefault(next_id, []).extend(batch)
            frontier = next_frontier
        return LookupRound(owners=owners, messages=len(message_batches),
                           per_key_hops=per_key_hops,
                           message_batches=message_batches,
                           message_bytes=message_bytes, rejected=rejected)
