"""Transport layer (L1 of the AlvisP2P architecture).

Point-to-point messaging between peers with:

* an explicit per-message **byte-size model** (:mod:`repro.net.message`) so
  that bandwidth experiments measure realistic wire sizes,
* pluggable **latency models** (:mod:`repro.net.latency`),
* a **backend seam** (:class:`TransportBackend`) with two implementations:
  the default discrete-event :class:`SimTransport`
  (:mod:`repro.net.transport`) and a real asyncio/UDP backend
  (:mod:`repro.net.udp`), and
* a size-exact **wire codec** (:mod:`repro.net.wire`) shared by the real
  backend and the cluster handshake.

:class:`~repro.net.udp.UdpTransport` is imported lazily by the cluster
layer (it pulls in asyncio machinery the simulator never needs).
"""

from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.message import HEADER_BYTES, Message, encoded_size
from repro.net.transport import (
    DeliveryError,
    Endpoint,
    RequestOutcome,
    SimTransport,
    TransportBackend,
)

__all__ = [
    "ConstantLatency",
    "LatencyModel",
    "LogNormalLatency",
    "UniformLatency",
    "HEADER_BYTES",
    "Message",
    "encoded_size",
    "DeliveryError",
    "Endpoint",
    "RequestOutcome",
    "SimTransport",
    "TransportBackend",
]
