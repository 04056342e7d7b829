"""Goodput and waste of the query runtime under overload (experiment E8).

One origin submits an open Poisson stream of one single-key query, so
under the per-probe policy (``batch_lookups=False``) every query is one
lookup plus one ``ProbeKey`` and the key's owner, a bounded service
queue, is the bottleneck.  Every request the owner rejects, lookup hop
or probe, is retried by the origin's dispatch queue under
``congestion_max_retransmits``.  With ``congestion_control`` off the
retries are blind, after a doubling ``congestion_retransmit_timeout``;
with it on, the per-origin AIMD window (the NCA'06 controller the paper
integrates) counts each rejection as a drop and paces them.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Tuple

from repro.core.config import AlvisConfig
from repro.core.keys import Key
from repro.core.network import AlvisNetwork
from repro.core.workload import PoissonArrivals, RoundRobinOrigins, Workload
from repro.corpus import sample_documents
from repro.util.stats import percentile

__all__ = ["SERVICE_MODEL", "HotKey", "hot_key", "overload_point"]

#: Each endpoint serves 40 msgs/s with 10 queue slots; shedding an
#: overflow arrival costs half a service slot.
SERVICE_MODEL = dict(service_rate=40.0, queue_capacity=10,
                     service_reject_cost=0.5)
_TERMS = ("peer",)


def _network(seed: int, **overrides) -> AlvisNetwork:
    network = AlvisNetwork(num_peers=16, seed=seed, config=AlvisConfig(
        batch_lookups=False, **overrides))
    network.distribute_documents(sample_documents())
    network.build_index(mode="single")
    return network


class HotKey(NamedTuple):
    """One seed's load target, measured on an idle network."""

    seed: int
    origin: int                 #: a peer that does not own the key
    owner_messages: int         #: messages one query delivers to the owner
    capacity: float             #: queries/s the owner's queue sustains
    top_k: Tuple[int, ...]      #: the uncongested answer


def hot_key(seed: int) -> HotKey:
    """Query the hot key once from the first peer that does not own it.

    The capacity is ``service_rate`` over the messages the query
    delivered to its busiest endpoint (the owner: the lookup's last hop
    and the probe), derived from the service model, never fitted."""
    network = _network(seed)
    owner = network.owner_peer_of_key(Key(list(_TERMS)).key_id)
    origin = next(peer for peer in network.peer_ids() if peer != owner)
    network.transport.reset_load_counters()
    results, _trace = network.query(origin, list(_TERMS))
    owner_messages = max(network.transport.msgs_in.values())
    return HotKey(seed, origin, owner_messages,
                  SERVICE_MODEL["service_rate"] / owner_messages,
                  tuple(document.doc_id for document in results))


def overload_point(hot: HotKey, load: float, span: float,
                   congestion_control: bool) -> Dict[str, Any]:
    """Offer ``load`` times ``hot.capacity`` for ``span`` virtual seconds
    of Poisson arrivals on a fresh network with :data:`SERVICE_MODEL`,
    and run them to completion.

    ``offered`` is the arrivals per second of their actual span;
    ``goodput`` counts the queries answered *by the last arrival*, per
    second of that span, so work finished after the arrivals stop does
    not count; ``waste`` is the share of service-queue arrivals shed.
    ``results`` holds the distinct top-k tuples of answered queries.
    """
    network = _network(hot.seed, congestion_control=congestion_control,
                       **SERVICE_MODEL)
    rate = load * hot.capacity
    count = max(1, round(rate * span))
    start = network.simulator.now
    jobs = network.run_workload(Workload(
        queries=(_TERMS,) * count, arrival=PoissonArrivals(rate),
        origins=RoundRobinOrigins((hot.origin,))))
    last_arrival = max(job.trace.started_at for job in jobs)
    answered = [job for job in jobs if job.trace.dropped_count == 0]
    in_span = sum(job.trace.finished_at <= last_arrival for job in answered)
    service = network.transport.service_stats()
    congestion = network.runtime.congestion_summary()
    return {
        "queries": count,
        "offered": count / (last_arrival - start),
        "goodput": in_span / (last_arrival - start),
        "waste": service["dropped"] / max(1, service["arrived"]),
        "queue_drops": service["dropped"],
        "lost_probes": count - len(answered),
        "retransmissions": int(congestion["retransmissions"]),
        "window_decreases": int(congestion["window_decreases"]),
        "latency_p99": percentile([job.trace.latency for job in jobs], 99),
        "makespan": max(job.trace.finished_at for job in jobs) - start,
        "results": {tuple(document.doc_id for document in job.results)
                    for job in answered},
    }
