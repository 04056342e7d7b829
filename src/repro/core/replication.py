"""Replication of global-index entries (crash fault tolerance).

Graceful departures hand their key range to the successor
(:mod:`repro.dht.churn`); a *crash* does not get that chance.  Deployed
DHTs therefore replicate every stored entry on the owner's first ``r``
successors, and after a failure the first live successor — which, by ring
geometry, is the new owner of the crashed peer's range — *promotes* its
replicas to primary entries.

Protocol pieces:

* ``ReplicaPush`` — owner → successor: full entries for a key batch
  (byte-accounted; the steady-state replication cost).
* :meth:`ReplicationManager.replicate_all` — push every primary entry to
  the ``r`` current successors (run after index construction and after
  membership changes).
* :meth:`ReplicationManager.repair` — every peer promotes the replicas it
  now owns and re-replicates them; run after failures are detected.

The demo paper's network must survive peers disappearing mid-demo; this
module plus :meth:`AlvisNetwork.fail_peer` reproduce that behaviour, and
``tests/test_core_replication.py`` asserts query results survive crashes
up to ``r`` simultaneous failures.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.core.global_index import KeyEntry
from repro.net import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import AlvisNetwork

__all__ = ["ReplicationManager"]

#: Message kind for replica transfer (re-exported for compatibility; the
#: constant itself lives with the other kinds in repro.net.protocol so
#: the handler table in AlvisPeer and this module share one definition).
REPLICA_PUSH = protocol.REPLICA_PUSH


class ReplicationManager:
    """Drives replica placement and post-failure repair on a network."""

    def __init__(self, network: "AlvisNetwork", replication_factor: int = 2):
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got "
                f"{replication_factor}")
        self.network = network
        self.replication_factor = replication_factor
        self.replicas_pushed = 0
        self.entries_promoted = 0

    # ------------------------------------------------------------------

    def _successors_of(self, peer_id: int) -> List[int]:
        """The first ``r`` live successors of ``peer_id`` on the ring."""
        ring = self.network.ring
        members = list(ring.member_ids)
        if len(members) <= 1:
            return []
        index = members.index(peer_id)
        successors = []
        for offset in range(1, min(self.replication_factor,
                                   len(members) - 1) + 1):
            successors.append(members[(index + offset) % len(members)])
        return successors

    # ------------------------------------------------------------------

    def replicate_all(self) -> int:
        """Push every primary entry to its owner's successor set.

        Returns the number of (entry, replica-target) pushes.  Pushes are
        idempotent: replicas are installed keyed by Key, so repeating the
        call refreshes rather than duplicates.
        """
        pushes = 0
        for peer in self.network.peers():
            entries = [entry for entry in peer.fragment
                       if entry.postings or entry.contributors]
            if not entries:
                continue
            for successor in self._successors_of(peer.peer_id):
                payload = {"entries": entries, "primary": peer.peer_id}
                self.network.send(peer.peer_id, successor, REPLICA_PUSH,
                                  payload)
                pushes += len(entries)
        self.replicas_pushed += pushes
        return pushes

    def repair(self) -> int:
        """Promote replicas whose key range this peer now owns.

        Call after one or more crashes (the network's failure detector
        would trigger this in a deployment).  Returns the number of
        promoted entries.  Promoted entries are re-replicated so the
        replication factor is restored.
        """
        ring = self.network.ring
        promoted = 0
        for peer in self.network.peers():
            to_promote: List[KeyEntry] = []
            for entry in list(peer.replica_store.values()):
                owner = ring.successor_of(entry.key.key_id)
                if owner != peer.peer_id:
                    continue
                if peer.fragment.get(entry.key) is not None:
                    # Already primary here (e.g. graceful handover beat
                    # the repair pass); drop the stale replica.
                    del peer.replica_store[entry.key]
                    continue
                to_promote.append(entry)
            for entry in to_promote:
                peer.fragment.install(entry)
                del peer.replica_store[entry.key]
                promoted += 1
        self.entries_promoted += promoted
        if promoted:
            self.replicate_all()
        return promoted

    # ------------------------------------------------------------------

    def replica_counts(self) -> Dict[int, int]:
        """{peer id: replicas held} — replication storage accounting."""
        return {peer.peer_id: len(peer.replica_store)
                for peer in self.network.peers()}
