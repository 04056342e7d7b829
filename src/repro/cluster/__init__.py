"""Process layer: real multi-process UDP clusters (opt-in).

Hosts N peers per OS process over the :mod:`repro.net.udp` backend while
the simulator remains the default everywhere else.  See
:class:`~repro.cluster.host.ClusterSpec` for the shared deterministic
build, :class:`~repro.cluster.driver.ClusterDriver` for the process that
spawns hosts and issues queries, and
:class:`~repro.cluster.realtime.RealtimeKernel` for how the unchanged
query engine is driven in wall-clock time.
"""

from repro.cluster.driver import ClusterDriver
from repro.cluster.host import (
    ClusterSpec,
    PeerProcessHost,
    build_network,
    peers_for_host,
    state_fingerprint,
)
from repro.cluster.realtime import RealtimeKernel

__all__ = [
    "ClusterDriver",
    "ClusterSpec",
    "PeerProcessHost",
    "RealtimeKernel",
    "build_network",
    "peers_for_host",
    "state_fingerprint",
]
