"""Cluster spec, deterministic network construction, and the peer host.

The cluster runs on the **twin-network** idiom: every OS process builds
the *same* :class:`~repro.core.network.AlvisNetwork` from the shared
:class:`ClusterSpec` (same seed, same corpus, same index build), then
swaps the simulated transport for a :class:`~repro.net.udp.UdpTransport`
that registers only the peer slice the process owns.  Identical builds
mean a probe served by host 2 answers from exactly the state the driver
would have consulted in the simulator — which is what makes the
cross-backend equivalence assertion (same seed, same top-k) possible.
Construction determinism is *verified*, not assumed: every host reports
a :func:`state_fingerprint` during the join handshake and the driver
refuses hosts whose digest differs from its own.

Peer ownership is positional — ``sorted(peer_ids)[i]`` belongs to host
``i % num_hosts`` — so the assignment needs no coordination, and host 0
(the driver process) always owns a slice too.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import AlvisConfig
from repro.core.fingerprint import state_fingerprint as _state_fingerprint
from repro.core.network import AlvisNetwork
from repro.corpus.loader import sample_documents
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.net import wire
from repro.net.udp import UdpTransport

__all__ = ["ClusterSpec", "PeerProcessHost", "build_network",
           "peers_for_host", "state_fingerprint"]


@dataclass
class ClusterSpec:
    """Everything a process needs to rebuild the shared network state.

    Serialized to JSON and passed to host subprocesses on their command
    line, so every field must stay JSON-representable.
    """

    num_peers: int = 10
    num_hosts: int = 2
    seed: int = 1234
    #: ``0`` indexes the built-in sample collection; otherwise a
    #: synthetic corpus of this many documents.
    num_docs: int = 0
    vocabulary_size: int = 600
    mode: str = "hdk"
    #: Per-request UDP timeout (wall-clock seconds).
    request_timeout: float = 5.0
    #: ``AlvisConfig.with_overrides`` keyword arguments.
    config_overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_hosts < 1:
            raise ValueError(
                f"num_hosts must be >= 1, got {self.num_hosts}")
        if self.num_peers < self.num_hosts:
            raise ValueError(
                f"need at least one peer per host: {self.num_peers} "
                f"peers over {self.num_hosts} hosts")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.mode == "qdi":
            raise ValueError(
                "mode 'qdi' is not supported on the UDP cluster: QDI "
                "activation runs a synchronous lookup on the transport's "
                "loop thread, where it would deadlock")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        return cls(**json.loads(text))


def build_network(spec: ClusterSpec) -> AlvisNetwork:
    """Build the deterministic network every cluster process shares."""
    config = AlvisConfig()
    if spec.config_overrides:
        config = config.with_overrides(**spec.config_overrides)
    network = AlvisNetwork(num_peers=spec.num_peers, config=config,
                           seed=spec.seed)
    if spec.num_docs > 0:
        corpus = SyntheticCorpus(SyntheticCorpusConfig(
            num_documents=spec.num_docs,
            vocabulary_size=spec.vocabulary_size,
            seed=spec.seed))
        documents = corpus.documents()
    else:
        documents = sample_documents()
    network.distribute_documents(documents)
    network.build_index(mode=spec.mode)
    return network


def peers_for_host(network: AlvisNetwork, host_index: int,
                   num_hosts: int) -> List[int]:
    """The peer ids owned by ``host_index`` (positional assignment)."""
    ordered = sorted(network.peer_ids())
    return [peer_id for position, peer_id in enumerate(ordered)
            if position % num_hosts == host_index]


# Canonical implementation lives in repro.core.fingerprint (the digest
# walks only core state, and the scale-sweep legs need it without
# reaching up into the cluster layer); re-exported here because the
# join handshake is its original home.
state_fingerprint = _state_fingerprint


class PeerProcessHost:
    """One cluster process serving its slice of peers over UDP.

    ``serve()`` builds the twin network, registers the owned peers on a
    fresh :class:`UdpTransport`, then runs the join handshake: it
    resends ``__hello__`` (host index, port, state fingerprint) to the
    driver until the driver's ``__welcome__`` arrives, and serves
    requests until ``__bye__`` (or until the driver kills the process).
    Incoming protocol requests are handled entirely by the transport's
    loop thread; the serve thread just parks.
    """

    def __init__(self, spec: ClusterSpec, host_index: int,
                 driver_address: Tuple[str, int],
                 bind_host: str = "127.0.0.1"):
        if not 0 < host_index < spec.num_hosts:
            raise ValueError(
                f"host_index must be in [1, {spec.num_hosts}), got "
                f"{host_index} (host 0 is the driver process)")
        self.spec = spec
        self.host_index = host_index
        self.driver_address = (driver_address[0], int(driver_address[1]))
        self.bind_host = bind_host
        self._welcomed = threading.Event()
        self._stopped = threading.Event()
        self._welcome_error: Optional[str] = None

    def serve(self, join_timeout: float = 30.0,
              serve_timeout: Optional[float] = None) -> int:
        """Run the host until the driver says goodbye; returns exit code."""
        network = build_network(self.spec)
        fingerprint = state_fingerprint(network)
        transport = UdpTransport(
            metrics=network.simulator.metrics,
            default_timeout=self.spec.request_timeout,
            bind_host=self.bind_host).start()
        network.attach_transport(transport)
        owned = peers_for_host(network, self.host_index,
                               self.spec.num_hosts)
        for peer_id in owned:
            transport.register(peer_id, network.peer(peer_id))

        def on_welcome(payload, _addr):
            if payload.get("ok"):
                self._welcome_error = None
            else:
                self._welcome_error = payload.get("error") or "rejected"
                self._stopped.set()
            self._welcomed.set()
            return None

        def on_bye(_payload, _addr):
            self._stopped.set()
            return None

        transport.on_control(wire.WELCOME, on_welcome)
        transport.on_control(wire.BYE, on_bye)
        hello = {"host": self.host_index,
                 "port": transport.local_address[1],
                 "fingerprint": fingerprint}
        try:
            # Datagrams drop; resend the hello until the driver answers.
            waited = 0.0
            while not self._welcomed.is_set():
                if waited >= join_timeout:
                    return 3
                transport.send_control(wire.HELLO, hello,
                                       self.driver_address)
                self._welcomed.wait(0.5)
                waited += 0.5
            if self._welcome_error is not None:
                return 4
            self._stopped.wait(serve_timeout)
            return 0
        finally:
            transport.close()
