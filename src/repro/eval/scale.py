"""Scale-sweep leg runner: one network size per process.

The scale-out benchmark (``benchmarks/bench_scale.py``) sweeps network
sizes (1k -> 10k -> 100k peers).  Each leg runs in its own subprocess
so peak RSS is attributable::

    PYTHONPATH=src python -m repro.eval.scale \
        --peers 10000 --queries 36 --churn 90 --json -

A leg builds the network, runs the statistics phase and HDK index
build (each peer resolving its keys in one shared lookup round), then drives a *churning query
workload*: join/leave events interleaved with queries through the
query engine.  Routing derives every hop from the current
membership, so a membership change leaves no routing table to repair.

Reported per leg: wall-clock per phase, events processed, effective
events/sec over the workload phase (wall-clock including membership
changes), kernel-loop events/sec, bytes per query, peak RSS, the
``state_fingerprint`` of the built index and the exact top-k id/score
fingerprint of every query.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict

from repro.core.config import AlvisConfig
from repro.core.fingerprint import state_fingerprint
from repro.core.network import AlvisNetwork
from repro.core.workload import PoissonArrivals, Workload
from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.util.npcompat import HAVE_NUMPY
from repro.util.process import peak_rss_kb

__all__ = ["run_leg", "main"]


def run_leg(peers: int, documents: int = 240, queries: int = 36,
            churn_events: int = 90, seed: int = 1234,
            mode: str = "hdk") -> Dict[str, Any]:
    """Run one sweep leg and return its result record."""
    leg_started = time.perf_counter()
    corpus = SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=documents, vocabulary_size=1200, num_topics=8,
        seed=seed))
    workload = QueryWorkload.from_corpus(
        corpus, QueryWorkloadConfig(pool_size=max(queries, 1),
                                    min_terms=2, max_terms=3, seed=seed))
    timings: Dict[str, float] = {}

    config = AlvisConfig()

    started = time.perf_counter()
    network = AlvisNetwork(num_peers=peers, config=config, seed=seed)
    network.distribute_documents(corpus.documents())
    timings["build_s"] = time.perf_counter() - started

    started = time.perf_counter()
    network.run_statistics_phase()
    timings["stats_s"] = time.perf_counter() - started

    started = time.perf_counter()
    network.build_index(mode=mode)
    timings["hdk_s"] = time.perf_counter() - started
    timings["index_s"] = timings["stats_s"] + timings["hdk_s"]

    index_fingerprint = state_fingerprint(network)

    simulator = network.simulator
    churn = network.churn()
    events_before = simulator.events_processed
    kernel_wall_before = simulator.wall_seconds
    bytes_before = network.bytes_sent_total()
    fingerprints = []
    completed = 0

    def _run_query(index: int) -> None:
        jobs = network.run_workload(Workload(
            [list(workload.pool[index % len(workload.pool)])],
            PoissonArrivals(50.0)))
        fingerprints.append([[doc.doc_id, doc.score]
                             for doc in jobs[0].results])

    started = time.perf_counter()
    for step in range(churn_events):
        # Balanced churn: the membership oscillates around its initial
        # size.
        if step % 2 == 0:
            churn.join()
        else:
            churn.leave()
        due = ((step + 1) * queries) // max(churn_events, 1)
        while completed < due:
            _run_query(completed)
            completed += 1
    while completed < queries:
        _run_query(completed)
        completed += 1
    workload_wall = time.perf_counter() - started

    events = simulator.events_processed - events_before
    kernel_wall = simulator.wall_seconds - kernel_wall_before
    return {
        "peers": peers,
        "documents": documents,
        "queries": queries,
        "churn_events": churn_events,
        "numpy": HAVE_NUMPY,
        "seed": seed,
        "mode": mode,
        "timings": dict(timings, workload_s=workload_wall,
                        indexing_phase_s=timings["index_s"],
                        query_phase_s=workload_wall),
        "index_fingerprint": index_fingerprint,
        "wall_clock_s": time.perf_counter() - leg_started,
        "events_processed": events,
        "events_per_sec": events / workload_wall if workload_wall else 0.0,
        "kernel_events_per_sec": (events / kernel_wall
                                  if kernel_wall else 0.0),
        "bytes_per_query": ((network.bytes_sent_total() - bytes_before)
                            / max(queries, 1)),
        "peak_rss_kb": peak_rss_kb(),
        "top_k": fingerprints,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one scale-sweep leg (see benchmarks/"
                    "bench_scale.py for the full sweep driver)")
    parser.add_argument("--peers", type=int, required=True)
    parser.add_argument("--documents", type=int, default=240)
    parser.add_argument("--queries", type=int, default=36)
    parser.add_argument("--churn", type=int, default=90)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--mode", default="hdk")
    parser.add_argument("--json", default="-",
                        help="output path ('-' for stdout)")
    args = parser.parse_args(argv)
    leg = run_leg(peers=args.peers, documents=args.documents,
                  queries=args.queries, churn_events=args.churn,
                  seed=args.seed, mode=args.mode)
    payload = json.dumps(leg, indent=2, sort_keys=True)
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
