"""The cluster driver: spawns peer hosts and runs queries over UDP.

The driver is host 0: it owns its own slice of peers, spawns one OS
process per remaining host (``python -m repro cluster --serve-host i``),
and runs the join handshake — each host repeats ``__hello__`` with its
port and state fingerprint until the driver's ``__welcome__`` lands.
The driver rejects any host whose fingerprint differs from its own
build (see :func:`~repro.cluster.host.state_fingerprint`); accepted
hosts become routes on the driver's transport, keyed by the peer ids
the positional assignment gives them.

All query traffic originates here: iterative DHT lookups execute in the
driver process and send per-hop ``LookupHop`` messages from the
driver's socket, probes/refinements go straight to the owning peer's
host, and hosts only ever *reply* — so no host needs a route table, and
churn on the driver's side (an unregistered peer) surfaces exactly like
the simulator's, as a nack.

Every query runs through the simulator's query engine
(``runtime.submit`` unchanged) under a
:class:`~repro.cluster.realtime.RealtimeKernel`, in two load shapes:

* :meth:`run_query` / :meth:`run_query_set` — closed loop, one query
  at a time, each waited for before the next is submitted;
* :meth:`run_open_workload` — overlapping queries with Poisson arrivals
  in wall-clock time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.host import (
    ClusterSpec,
    build_network,
    peers_for_host,
    state_fingerprint,
)
from repro.cluster.realtime import RealtimeKernel
from repro.core.runtime import QueryJob
from repro.net import wire
from repro.net.udp import UdpTransport
from repro.util.rng import make_rng

__all__ = ["ClusterDriver"]


class ClusterDriver:
    """Builds the twin network, spawns hosts, and issues queries."""

    def __init__(self, spec: ClusterSpec,
                 python: Optional[str] = None,
                 inherit_output: bool = False):
        self.spec = spec
        self.python = python or sys.executable
        self.inherit_output = inherit_output
        self.network = None
        self.transport: Optional[UdpTransport] = None
        self.sim_transport = None
        self.fingerprint: Optional[str] = None
        self._processes: List[subprocess.Popen] = []
        #: host index -> (address, reported fingerprint)
        self._hosts: Dict[int, Tuple[Tuple[str, int], str]] = {}
        self._host_errors: List[str] = []
        self._workload_streams = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, join_timeout: float = 60.0) -> "ClusterDriver":
        """Build state, spawn the hosts, and complete the handshake."""
        spec = self.spec
        self.network = build_network(spec)
        self.fingerprint = state_fingerprint(self.network)
        self.transport = UdpTransport(
            metrics=self.network.simulator.metrics,
            default_timeout=spec.request_timeout).start()
        self.sim_transport = self.network.attach_transport(self.transport)
        for peer_id in peers_for_host(self.network, 0, spec.num_hosts):
            self.transport.register(peer_id, self.network.peer(peer_id))
        self.transport.on_control(wire.HELLO, self._on_hello)
        try:
            self._spawn_hosts()
            self._await_hosts(join_timeout)
        except Exception:
            self.close()
            raise
        return self

    def _on_hello(self, payload, addr):
        host = int(payload.get("host", -1))
        fingerprint = str(payload.get("fingerprint", ""))
        if not 0 < host < self.spec.num_hosts:
            return wire.WELCOME, {"ok": False,
                                  "error": f"unknown host index {host}"}
        if fingerprint != self.fingerprint:
            self._host_errors.append(
                f"host {host} built divergent state "
                f"({fingerprint[:12]} != {self.fingerprint[:12]})")
            return wire.WELCOME, {"ok": False,
                                  "error": "state fingerprint mismatch"}
        # Reply to the socket the hello came from: on re-sent hellos this
        # is idempotent, the host just sees another welcome.
        self._hosts[host] = ((addr[0], int(payload["port"])), fingerprint)
        return wire.WELCOME, {"ok": True, "error": ""}

    def _spawn_hosts(self) -> None:
        driver_addr = self.transport.local_address
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "0"
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else os.pathsep.join([src_dir, existing]))
        sink = None if self.inherit_output else subprocess.DEVNULL
        for host in range(1, self.spec.num_hosts):
            command = [self.python, "-m", "repro", "cluster",
                       "--serve-host", str(host),
                       "--driver", f"{driver_addr[0]}:{driver_addr[1]}",
                       "--spec", self.spec.to_json()]
            self._processes.append(subprocess.Popen(
                command, env=env, stdout=sink, stderr=sink))

    def _await_hosts(self, join_timeout: float) -> None:
        expected = set(range(1, self.spec.num_hosts))
        deadline = time.monotonic() + join_timeout
        while set(self._hosts) != expected:
            if self._host_errors:
                raise RuntimeError("; ".join(self._host_errors))
            if time.monotonic() > deadline:
                missing = sorted(expected - set(self._hosts))
                raise RuntimeError(
                    f"hosts {missing} did not join within "
                    f"{join_timeout:.0f}s")
            time.sleep(0.05)
        for host, (addr, _fingerprint) in self._hosts.items():
            for peer_id in peers_for_host(self.network, host,
                                          self.spec.num_hosts):
                self.transport.add_route(peer_id, addr)

    def close(self) -> None:
        """Dismiss the hosts, reap the processes, free the socket."""
        if self.transport is not None:
            for addr, _fingerprint in self._hosts.values():
                self.transport.send_control(wire.BYE, {}, addr)
        deadline = time.monotonic() + 3.0
        for process in self._processes:
            try:
                process.wait(max(deadline - time.monotonic(), 0.1))
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
        self._processes = []
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        if self.network is not None and self.sim_transport is not None:
            # Leave the network usable in-process (e.g. for a simulator
            # comparison pass after the cluster run).
            self.network.attach_transport(self.sim_transport)
            self.sim_transport = None

    def __enter__(self) -> "ClusterDriver":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def run_query(self, origin: int,
                  query: Union[str, Sequence[str]],
                  refine: Optional[bool] = None,
                  timeout: float = 60.0):
        """One query over UDP, waited for; returns ``(results, trace)``."""
        job, = self._run_jobs([(0.0, origin, query)], refine, timeout)
        return job.results, job.trace

    def run_query_set(self, queries: Sequence[Union[str, Sequence[str]]],
                      origins: Optional[Sequence[int]] = None,
                      refine: Optional[bool] = None) -> List[tuple]:
        """Run ``queries`` back to back; origins round-robin if given."""
        peer_ids = sorted(self.network.peer_ids())
        outputs = []
        for index, query in enumerate(queries):
            if origins is not None:
                origin = origins[index % len(origins)]
            else:
                origin = peer_ids[index % len(peer_ids)]
            outputs.append(self.run_query(origin, query, refine=refine))
        return outputs

    def run_open_workload(self, queries: Sequence[Union[str,
                                                        Sequence[str]]],
                          origins: Optional[Sequence[int]] = None,
                          arrival_rate: float = 20.0,
                          refine: Optional[bool] = None,
                          timeout: float = 60.0) -> List[QueryJob]:
        """Overlapping queries through the query engine, over UDP.

        Mirrors :meth:`AlvisNetwork.run_workload` with
        :class:`~repro.core.workload.PoissonArrivals` at ``arrival_rate``
        per (now wall-clock) second.  Returns the
        completed jobs in submission order.
        """
        if arrival_rate <= 0:
            raise ValueError(
                f"arrival_rate must be positive, got {arrival_rate}")
        rng = make_rng(self.spec.seed, "udp-workload",
                       self._workload_streams)
        self._workload_streams += 1
        peer_ids = sorted(self.network.peer_ids())
        submissions = []
        arrival = 0.0
        for index, query in enumerate(queries):
            arrival += rng.expovariate(arrival_rate)
            if origins is not None:
                origin = origins[index % len(origins)]
            else:
                origin = rng.choice(peer_ids)
            submissions.append((arrival, origin, query))
        return self._run_jobs(submissions, refine, timeout)

    def _run_jobs(self, submissions: Sequence[tuple],
                  refine: Optional[bool],
                  timeout: float) -> List[QueryJob]:
        """Submit ``(delay, origin, query)`` triples through the query
        engine, driven by a :class:`RealtimeKernel` instead of
        ``simulator.run()``, and wait until every job completed."""
        network = self.network
        saved_config = network.config
        network.config = saved_config.with_overrides(
            request_timeout=self.spec.request_timeout)
        jobs: List[QueryJob] = []
        kernel = RealtimeKernel(network.simulator, self.transport)
        try:
            kernel.start()

            def submit_all() -> None:
                for delay, origin, query in submissions:
                    network.simulator.schedule(
                        delay,
                        lambda origin=origin, query=query:
                            jobs.append(network.runtime.submit(
                                origin, query, refine=refine)))

            kernel.submit(submit_all)
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if (len(jobs) == len(submissions)
                        and all(job.done for job in jobs)):
                    break
                time.sleep(0.01)
            else:
                pending = len(submissions) - sum(1 for job in jobs
                                                 if job.done)
                raise RuntimeError(
                    f"queries timed out: {pending} of "
                    f"{len(submissions)} still pending after "
                    f"{timeout:.0f}s")
        finally:
            kernel.stop()
            network.config = saved_config
        return jobs
