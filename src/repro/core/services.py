"""The narrow interface peers and protocol components use to reach the
network.

Keeping this a :class:`typing.Protocol` breaks the import cycle between
:mod:`repro.core.peer` (which needs to *initiate* traffic for QDI's
on-demand indexing) and :mod:`repro.core.network` (which owns transport
and ring) — and lets unit tests substitute an in-memory fake.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Protocol, Tuple

from repro.core.config import AlvisConfig

__all__ = ["NetworkServices"]


class NetworkServices(Protocol):
    """What a peer may ask of the network."""

    config: AlvisConfig

    def lookup_owners(self, origin: int,
                      key_ids: Iterable[int]) -> Tuple[Dict[int, int], int]:
        """Resolve a batch of keys (one key is a batch of one) in one
        shared routed round.

        Returns ``({key_id: owner_peer_id}, routed hop messages)`` — the
        message count is amortized across keys sharing hops; routing
        traffic is accounted by the implementation.
        """
        ...

    def send(self, origin: int, dst: int, kind: str,
             payload: Dict[str, Any]
             ) -> Tuple[Optional[Dict[str, Any]], float]:
        """Send one request and return ``(reply payload or None, rtt)``."""
        ...

    def note_index_update(self) -> None:
        """Record a global-index mutation (invalidates probe caches).

        Called by peers when they change the index outside the network
        facade's own flows — e.g. QDI's on-demand indexing/eviction.
        """
        ...
