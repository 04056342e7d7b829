"""The unified membership-fault surface of :class:`AlvisNetwork`.

Every way a peer population can degrade lives behind one facade
(``network.faults``), with one naming scheme:

* :meth:`FaultInjector.churn` — a :class:`~repro.dht.churn.ChurnProcess`
  wired for index handover (random joins/leaves on its own derived RNG
  stream);
* :meth:`FaultInjector.crash` — fail-stop: no handover, no goodbye
  (the historical ``AlvisNetwork.fail_peer``);
* :meth:`FaultInjector.graceful_depart` — a *chosen* peer leaves
  cleanly, handing its key range to its ring successor (byte-accounted
  ``IndexHandover`` traffic), like EldenRingTorrent's shutdown
  redistribution;
* :meth:`FaultInjector.partition` / :meth:`FaultInjector.heal` —
  split the transport into non-communicating groups and reconnect;
* :meth:`FaultInjector.degrade` — peer heterogeneity: a slower
  service rate and/or a smaller probe-cache budget for one peer.

``AlvisNetwork.churn()`` and ``AlvisNetwork.fail_peer()`` delegate here
unchanged (``tests/test_core_faults.py`` pins the equivalence), so the
facade is a pure re-surfacing, not a behavior change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.cache import LRUByteCache
from repro.dht.churn import ChurnProcess
from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import AlvisNetwork

__all__ = ["FaultInjector"]


class FaultInjector:
    """Membership and heterogeneity faults against one network."""

    def __init__(self, network: "AlvisNetwork"):
        self._network = network

    # ------------------------------------------------------------------
    # Random churn
    # ------------------------------------------------------------------

    def churn(self) -> ChurnProcess:
        """A churn process wired for index handover on this network.

        Each call hands out a fresh process with its own derived RNG
        stream — a second process never replays the first one's
        join/leave sequence.  Not supported with ``virtual_nodes > 1``
        (handover would need to vacate several ring positions
        atomically, which this implementation does not model).
        """
        network = self._network
        if network.virtual_nodes > 1:
            raise NotImplementedError(
                "churn is not supported with virtual_nodes > 1")
        stream = network._churn_streams
        network._churn_streams += 1
        # The first process keeps the historical "churn" label (seed
        # compatibility); later ones get distinct derived streams instead
        # of replaying the same join/leave sequence.
        labels = ("churn",) if stream == 0 else ("churn", stream)
        return ChurnProcess(network.ring,
                            make_rng(network.seed, *labels),
                            on_handover=network._handover)

    # ------------------------------------------------------------------
    # Single-peer departures
    # ------------------------------------------------------------------

    def crash(self, peer_id: int) -> None:
        """Fail-stop ``peer_id``: no handover, no goodbye.

        Its index fragment, replicas and documents vanish with it; the
        ring and routing tables converge to the survivors.  In-flight
        async requests addressed to it resolve as ``"dropped"``
        outcomes (never exceptions).  Use
        :class:`repro.core.replication.ReplicationManager` beforehand to
        make the global index survive.
        """
        network = self._network
        if peer_id not in network._peers:
            raise KeyError(f"peer {peer_id} not present")
        if network.num_peers <= 1:
            raise ValueError("cannot crash the last peer")
        if network.virtual_nodes > 1:
            raise NotImplementedError(
                "fail_peer is not supported with virtual_nodes > 1")
        network.ring.remove_node(peer_id)
        network.ring.maintain()
        network._detach_peer(peer_id)
        network.note_index_update()

    def graceful_depart(self, peer_id: int) -> None:
        """``peer_id`` leaves cleanly: its key range is handed to its
        ring successor (byte-accounted ``IndexHandover`` messages)
        before the endpoint detaches.

        The deterministic, single-peer form of
        :meth:`~repro.dht.churn.ChurnProcess.leave` — no RNG draw, so
        scenario scripts can target a specific peer.
        """
        network = self._network
        if peer_id not in network._peers:
            raise KeyError(f"peer {peer_id} not present")
        if network.num_peers <= 1:
            raise ValueError("cannot remove the last peer")
        if network.virtual_nodes > 1:
            raise NotImplementedError(
                "graceful departure is not supported with "
                "virtual_nodes > 1")
        ring = network.ring
        predecessor = ring.predecessor_of(peer_id)
        ring.remove_node(peer_id)
        ring.maintain()
        new_owner = ring.successor_of(peer_id)
        # _handover moves the fragment, accounts the bytes and — because
        # the ring no longer contains peer_id — detaches the endpoint.
        network._handover(peer_id, new_owner, predecessor, peer_id)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def partition(self, *groups: Iterable[int]) -> None:
        """Split the network: each ``groups`` argument is an iterable of
        peer ids forming one side; peers not listed form the implicit
        majority side.

        Cross-group messages (and in-flight replies) are dropped by the
        transport: synchronous requests (indexing and maintenance flows)
        raise :class:`~repro.net.transport.DeliveryError`, async requests
        resolve as ``"dropped"`` outcomes, which the query engine
        surfaces as ``DROPPED`` probes.  Replaces any previous partition.
        """
        mapping = {}
        for index, group in enumerate(groups, start=1):
            for peer_id in group:
                mapping[peer_id] = index
        self._set_partition(mapping)

    def heal(self) -> None:
        """Reconnect all partitioned groups."""
        transport = self._network.transport
        clear = getattr(transport, "clear_partition", None)
        if clear is None:
            raise NotImplementedError(
                f"{type(transport).__name__} does not support "
                f"partition fault injection")
        clear()

    @property
    def partitioned(self) -> bool:
        """True while a transport partition is in effect."""
        return bool(getattr(self._network.transport, "partition_active",
                            False))

    def _set_partition(self, mapping) -> None:
        transport = self._network.transport
        setter = getattr(transport, "set_partition", None)
        if setter is None:
            raise NotImplementedError(
                f"{type(transport).__name__} does not support "
                f"partition fault injection")
        setter(mapping)

    # ------------------------------------------------------------------
    # Heterogeneity
    # ------------------------------------------------------------------

    def degrade(self, peer_id: int,
                service_rate: Optional[float] = None,
                cache_bytes: Optional[int] = None) -> None:
        """Make ``peer_id`` a weak peer.

        ``service_rate`` overrides its endpoint's request service rate
        (requires the bounded-service-queue model, i.e.
        ``config.service_rate > 0``); ``cache_bytes`` replaces its probe
        cache with a smaller (possibly zero) byte budget, dropping the
        current contents.
        """
        network = self._network
        if peer_id not in network._peers:
            raise KeyError(f"peer {peer_id} not present")
        if service_rate is not None:
            setter = getattr(network.transport, "set_service_rate", None)
            if setter is None:
                raise NotImplementedError(
                    f"{type(network.transport).__name__} does not "
                    f"support service-rate overrides")
            setter(peer_id, service_rate)
        if cache_bytes is not None:
            if cache_bytes < 0:
                raise ValueError(
                    f"cache_bytes must be >= 0, got {cache_bytes}")
            peer = network.peer(peer_id)
            peer.probe_cache = LRUByteCache(
                cache_bytes, ttl=network.config.cache_ttl)
