"""E8 — congestion control prevents congestion collapse.

"We integrated a congestion control mechanism into our DHT to efficiently
handle the large amounts of messages generated by the information
retrieval application and to prevent the DHT from congestion collapses"
(Section 3, citing Klemm et al., NCA 2006).

Series reproduced on the running overlay (:mod:`repro.eval.congestion`):
goodput and wasted work vs. offered load for one origin querying one hot
key on a 16-peer ``AlvisNetwork`` whose endpoints are bounded service
queues, with the per-origin AIMD window (``congestion_control``) off —
blind timeout retransmission — and on.  Every query is one
lookup plus one ``ProbeKey`` (the paper's per-probe policy), so the
owner, which receives the lookup's last hop and the probe, serves at
most ``service_rate / 2`` queries/s: the capacity the load factors
scale.  Goodput counts the queries answered while arrivals last, per
second of the arrival span; waste is the share of service-queue
arrivals shed.

Expected shape: below saturation both disciplines deliver the offered
load; past it the open loop's retransmissions fill the owner's queue and
its shedding work, so goodput collapses and nearly every arrival is
wasted, while AIMD holds goodput near capacity with little waste, loses
no probe and returns the uncongested top-k.

Both series measure the declared retry policy and nothing else: every
request the owner's full queue rejects — the lookup's last
``LookupHop`` as much as the probe — is retried by the origin's dispatch
queue at most ``congestion_max_retransmits`` times, and a query whose
budget runs out counts as lost.  The open loop waits
``congestion_retransmit_timeout`` before a request's first retry and
doubles the wait for each later one, up to four timeouts; AIMD counts
every rejection as a drop (halving its window at most once per RTT) and
paces the retries.

Smoke mode runs one seed over 4 virtual seconds of arrivals and writes
nothing.  ``BENCH_FULL=1`` runs three seeds over 8 s at more load points
and writes ``BENCH_congestion.json`` (median, min and max over the
seeds, stamped with commit, Python, numpy and host).
"""

from __future__ import annotations

import statistics

import pytest

from benchmarks.conftest import (BENCH_SEED, BENCH_SMOKE, bench_stamp,
                                 write_bench_artifact)
from repro.eval.congestion import SERVICE_MODEL, hot_key, overload_point
from repro.eval.reporting import print_table

SEEDS = (BENCH_SEED,) if BENCH_SMOKE else (BENCH_SEED, 1, 2)
SPAN = 4.0 if BENCH_SMOKE else 8.0
LOAD_FACTORS = ((0.5, 1.0, 2.0, 5.0, 10.0) if BENCH_SMOKE
                else (0.5, 0.8, 1.0, 1.5, 2.0, 5.0, 10.0))
DISCIPLINES = {"open": False, "aimd": True}
#: Point metrics summarised in the artifact.
METRICS = ("offered", "goodput", "waste", "queue_drops", "lost_probes",
           "retransmissions", "window_decreases", "latency_p99",
           "makespan")


def _sweep(seed):
    hot = hot_key(seed)
    points = {
        factor: {label: overload_point(hot, factor, SPAN, controlled)
                 for label, controlled in DISCIPLINES.items()}
        for factor in LOAD_FACTORS}
    return {"capacity": hot.capacity, "top_k": hot.top_k, "points": points}


@pytest.fixture(scope="module")
def e8_runs():
    return {seed: _sweep(seed) for seed in SEEDS}


def _knee(run):
    """The first load factor at which the open loop sheds more than 1 %
    of its service-queue arrivals."""
    return next((factor for factor in LOAD_FACTORS
                 if run["points"][factor]["open"]["waste"] > 0.01),
                None)


def _summary(e8_runs, factor, label, metric):
    values = [run["points"][factor][label][metric]
              for run in e8_runs.values()]
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def test_e8_congestion_collapse(capsys, e8_runs):
    capacity = statistics.median(run["capacity"] for run in e8_runs.values())
    rows = []
    for factor in LOAD_FACTORS:
        def median(label, metric):
            return _summary(e8_runs, factor, label, metric)["median"]
        rows.append([factor, round(median("open", "offered"), 1),
                     round(median("open", "goodput"), 2),
                     round(median("open", "waste"), 3),
                     median("open", "lost_probes"),
                     round(median("aimd", "goodput"), 2),
                     round(median("aimd", "waste"), 3),
                     median("aimd", "lost_probes"),
                     median("aimd", "window_decreases")])
    with capsys.disabled():
        print_table(
            f"E8 goodput vs offered load on the query runtime (capacity "
            f"{capacity:.1f} q/s; median of {len(SEEDS)} seed(s))",
            ["offered/capacity", "offered q/s", "open goodput",
             "open waste", "open lost", "AIMD goodput", "AIMD waste",
             "AIMD lost", "AIMD decreases"],
            rows)
    write_bench_artifact("congestion", {
        "stamp": bench_stamp(),
        "seeds": list(SEEDS),
        "span_s": SPAN,
        "service_model": SERVICE_MODEL,
        "capacity_qps": {str(seed): run["capacity"]
                         for seed, run in e8_runs.items()},
        "knee": {str(seed): _knee(run) for seed, run in e8_runs.items()},
        "points": {str(factor): {label: {metric: _summary(
            e8_runs, factor, label, metric) for metric in METRICS}
            for label in DISCIPLINES} for factor in LOAD_FACTORS},
    })


@pytest.mark.parametrize("seed", SEEDS)
def test_e8_shape_holds(e8_runs, seed):
    run = e8_runs[seed]
    capacity = run["capacity"]
    # Below saturation both deliver the offered load.
    low = run["points"][LOAD_FACTORS[0]]
    for point in low.values():
        assert point["offered"] < capacity
        assert point["goodput"] == pytest.approx(point["offered"],
                                                 rel=0.1)
    # Far past saturation: AIMD sustains ~capacity goodput with little
    # waste; the open loop sheds most of its arrivals.
    worst = run["points"][LOAD_FACTORS[-1]]
    assert worst["aimd"]["goodput"] >= 0.8 * capacity
    assert worst["aimd"]["waste"] < 0.2
    assert worst["open"]["waste"] > 0.5
    assert worst["aimd"]["goodput"] >= 0.95 * worst["open"]["goodput"]
    assert worst["open"]["waste"] > 10 * worst["aimd"]["waste"]


@pytest.mark.parametrize("seed", SEEDS)
def test_e8_controller_on_the_runtime(e8_runs, seed):
    run = e8_runs[seed]
    # The sweep starts below saturation and ends past it.
    knee = _knee(run)
    assert knee is not None
    assert LOAD_FACTORS[0] < knee < LOAD_FACTORS[-1]
    # Flow control changes timing, never retrieval: AIMD answers every
    # probe with the uncongested reference's top-k at every load.
    for points in run["points"].values():
        assert points["aimd"]["lost_probes"] == 0
        assert points["aimd"]["results"] == {run["top_k"]}
    # Congestion really happened and the controller really reacted.
    worst = run["points"][LOAD_FACTORS[-1]]["aimd"]
    assert worst["queue_drops"] > 0
    assert worst["window_decreases"] > 0
