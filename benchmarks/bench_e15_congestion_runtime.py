"""E15 (extension) — congestion-aware query runtime at the knee.

E8 validates the NCA'06 AIMD controller against a single synthetic
queueing node; this experiment measures the same controller *grafted
onto the retrieval path* (``config.congestion_control``): every peer
endpoint is a bounded service queue (``service_rate``/
``queue_capacity``, with overflow shedding costing the server real
work), and a Poisson open workload of Zipf-skewed queries is swept
through the saturation knee under two dispatch disciplines:

* ``uncontrolled`` — the PR-2 async runtime plus blind timeout
  retransmission of overflow drops: the open-loop behaviour whose
  retransmission storms waste hot owners' capacity;
* ``aimd``         — the per-origin congestion window: outstanding
  dispatcher sends bounded, multiplicative decrease at most once per
  RTT, window-paced retransmission, backlog merging and size-triggered
  flushes.

Acceptance targets tracked by ``BENCH_congestion_runtime.json``:

* identical top-k results across both disciplines at every arrival
  rate (flow control changes timing, never retrieval semantics);
* at and past the saturation knee the AIMD discipline sustains goodput
  at or above the uncontrolled one, with a lower drop rate and bounded
  p99 latency.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (BENCH_SEED, make_network,
                                 write_bench_artifact)
from repro.core.config import AlvisConfig
from repro.eval.reporting import print_table
from repro.util.rng import make_rng
from repro.util.stats import percentile
from repro.util.zipf import ZipfSampler

#: Arrival rates (queries per virtual second) swept through the knee.
ARRIVAL_RATES = (20.0, 40.0, 60.0, 90.0, 150.0)

#: Shared service model: each endpoint serves 40 msgs/s with 6 queue
#: slots; shedding an overflow arrival costs half a service slot.
SERVICE_MODEL = dict(service_rate=40.0, queue_capacity=6,
                     service_reject_cost=0.5)

VARIANTS = {
    "uncontrolled": dict(congestion_control=False),
    "aimd": dict(congestion_control=True,
                 congestion_initial_window=2.0,
                 congestion_max_window=64.0),
}


@pytest.fixture(scope="module")
def e15_workload(bench_workload, bench_smoke):
    """A Zipf-skewed open query stream (hot queries arrive concurrently,
    concentrating load on their keys' owners)."""
    draws = 80 if bench_smoke else 240
    sampler = ZipfSampler(len(bench_workload.pool), exponent=1.1)
    rng = make_rng(BENCH_SEED, "e15-zipf")
    return [bench_workload.pool[rank]
            for rank in sampler.sample_many(rng, draws)]


def _run_point(bench_corpus, workload, rate, overrides):
    config = AlvisConfig(batch_lookups=True,
                         dispatch_window=0.02,
                         congestion_max_retransmits=100,
                         **SERVICE_MODEL, **overrides)
    network = make_network(bench_corpus, config=config)
    origins = network.peer_ids()[:4]
    clock_before = network.simulator.now
    started = time.perf_counter()
    jobs = network.run_queries(workload, origins=origins,
                               arrival_rate=rate)
    elapsed = time.perf_counter() - started
    makespan = network.simulator.now - clock_before
    latencies = [job.trace.latency for job in jobs]
    service = network.transport.service_stats()
    congestion = network.runtime.congestion_summary()
    return {
        "queries": len(jobs),
        "completed": sum(1 for job in jobs if job.done),
        "goodput": len(jobs) / makespan,
        "latency_p50": percentile(latencies, 50),
        "latency_p95": percentile(latencies, 95),
        "latency_p99": percentile(latencies, 99),
        "queue_drops": service["dropped"],
        "drop_rate": (service["dropped"] / service["arrived"]
                      if service["arrived"] else 0.0),
        "retransmissions": int(congestion["retransmissions"]),
        "window_decreases": int(congestion["window_decreases"]),
        "dropped_probes": sum(job.trace.dropped_count for job in jobs),
        "virtual_makespan_s": makespan,
        "wallclock_s": elapsed,
        "top_k": [[doc.doc_id for doc in job.results] for job in jobs],
    }


@pytest.fixture(scope="module")
def e15_runs(bench_corpus, e15_workload):
    """Both dispatch disciplines at every arrival rate."""
    runs = {label: {} for label in VARIANTS}
    for rate in ARRIVAL_RATES:
        for label, overrides in VARIANTS.items():
            runs[label][rate] = _run_point(bench_corpus, e15_workload,
                                           rate, overrides)
    return runs


def _knee_rate(runs):
    """The first swept rate where the uncontrolled discipline sheds a
    non-trivial share of arrivals — the saturation knee."""
    for rate in ARRIVAL_RATES:
        if runs["uncontrolled"][rate]["drop_rate"] > 0.01:
            return rate
    return ARRIVAL_RATES[-1]


def test_e15_congestion_runtime(capsys, e15_runs):
    knee = _knee_rate(e15_runs)
    rows = []
    for rate in ARRIVAL_RATES:
        open_loop = e15_runs["uncontrolled"][rate]
        aimd = e15_runs["aimd"][rate]
        rows.append([rate,
                     round(open_loop["goodput"], 2),
                     round(open_loop["latency_p99"], 2),
                     round(open_loop["drop_rate"], 3),
                     round(aimd["goodput"], 2),
                     round(aimd["latency_p99"], 2),
                     round(aimd["drop_rate"], 3),
                     aimd["retransmissions"]])
    with capsys.disabled():
        print_table(
            f"E15 congestion-aware dispatch (knee at {knee:.0f} q/s; "
            f"service {SERVICE_MODEL['service_rate']:.0f} msg/s per "
            f"endpoint)",
            ["arrival q/s", "open goodput", "open p99", "open droprate",
             "AIMD goodput", "AIMD p99", "AIMD droprate", "AIMD rtx"],
            rows)
    write_bench_artifact("congestion_runtime", {
        "arrival_rates": list(ARRIVAL_RATES),
        "knee_rate": knee,
        "service_model": SERVICE_MODEL,
        "identical_top_k": all(
            e15_runs["uncontrolled"][rate]["top_k"]
            == e15_runs["aimd"][rate]["top_k"]
            for rate in ARRIVAL_RATES),
        "runs": {
            label: {str(int(rate)): {name: value
                                     for name, value in point.items()
                                     if name != "top_k"}
                    for rate, point in by_rate.items()}
            for label, by_rate in e15_runs.items()
        },
    })


def test_e15_acceptance(e15_runs):
    knee = _knee_rate(e15_runs)
    pre_knee_p99 = e15_runs["aimd"][ARRIVAL_RATES[0]]["latency_p99"]
    for rate in ARRIVAL_RATES:
        open_loop = e15_runs["uncontrolled"][rate]
        aimd = e15_runs["aimd"][rate]
        # The open workload is sustained and semantics-preserving:
        # every query completes, identical top-k, no probe ever lost.
        assert open_loop["completed"] == open_loop["queries"]
        assert aimd["completed"] == aimd["queries"]
        assert open_loop["top_k"] == aimd["top_k"]
        assert aimd["dropped_probes"] == 0
        if rate < knee:
            continue
        # At and past the knee: AIMD sustains goodput at or above the
        # open-loop discipline, sheds fewer arrivals, and keeps p99
        # bounded (below the collapsing open loop, and within a small
        # multiple of the uncongested latency).
        assert aimd["goodput"] >= open_loop["goodput"]
        assert aimd["drop_rate"] < open_loop["drop_rate"]
        assert aimd["latency_p99"] <= open_loop["latency_p99"]
        assert aimd["latency_p99"] <= 5.0 * pre_knee_p99
    # The knee is actually inside the sweep (the experiment saturates).
    assert knee < ARRIVAL_RATES[-1]
    # Congestion really happened and the controller really reacted.
    worst = e15_runs["aimd"][ARRIVAL_RATES[-1]]
    assert worst["queue_drops"] > 0
    assert worst["window_decreases"] > 0
