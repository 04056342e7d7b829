"""Times one workload and turns what it recorded into named metrics.

A run is: set-up (several times; ``setup_s`` is the median), untimed
warm-up, then fixed-size rounds until ``--seconds`` of timed wall clock
are used.  ``ops_per_s`` is the upper quartile of the rounds' rates
(see :func:`_end_to_end`); simulator outputs come from round 0 alone,
so they do not depend on how many rounds the clock allowed.  A traced
run spends half its budget on untraced rounds (the counters marked *u*
in ``perf/README.md`` and the per-operation baseline) and half with
:class:`perf.tracer.Tracer` installed; end-to-end metrics are never
taken from it.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from perf import spec
from perf.tracer import LAYERS, Tracer
from perf.workloads import (UPDATES, WORKLOADS, Workload, current_rss_mb,
                            percentile_or_zero)
from repro.util.process import peak_rss_kb
from repro.util.stats import percentile

__all__ = ["measure"]


def _run_rounds(workload: Workload, budget_s: float, first_index: int,
                after_first: Optional[Callable[[], None]] = None
                ) -> List[Dict[str, Any]]:
    """Rounds until the timed wall clock is as close to ``budget_s`` as
    whole rounds get (always at least one)."""
    records: List[Dict[str, Any]] = []
    spent = 0.0
    while True:
        records.append(workload.round(first_index + len(records)))
        spent += records[-1]["wall_s"]
        if after_first is not None and len(records) == 1:
            after_first()
        typical = statistics.median(record["wall_s"] for record in records)
        if spent + typical / 2.0 > budget_s:
            return records


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_us(calls_and_seconds) -> float:
    calls, seconds = calls_and_seconds
    return _ratio(seconds * 1e6, calls)


def _end_to_end(setup_s: Sequence[float], rounds: Sequence[Dict[str, Any]],
                exact: Dict[str, float]) -> Dict[str, float]:
    # Other tenants of the machine only ever slow a round down, so the
    # upper quartile of the per-round rates repeats between runs about
    # twice as well as their median (measured: 4-5 % against 7-8 % on a
    # noisy hour).
    return dict(exact,
                setup_s=statistics.median(setup_s),
                ops_per_s=percentile(
                    [record["ops"] / record["wall_s"] for record in rounds],
                    75),
                peak_rss_mb=peak_rss_kb() / 1024.0)


def _per_layer(workload: Workload, rounds: Sequence[Dict[str, Any]],
               traced_rounds: Sequence[Dict[str, Any]], tracer: Tracer,
               phases: Dict[str, float], run_mb: float) -> Dict[str, float]:
    """The per-layer metrics but the rate ladder's: counters of round 0
    and timers of the untraced rounds (*u*), the rest from the tracer's
    aggregates."""
    first = rounds[0]
    counters = first["counters"]
    queries = first.get("queries", 0)
    call_us = [seconds * 1e6 for record in rounds
               for seconds in record.get("call_s", ())]
    update_s = {kind: [seconds for record in rounds
                       for seconds in record.get("update_s", {}).get(kind, ())]
                for kind in UPDATES}

    traced_wall = sum(record["wall_s"] for record in traced_rounds)
    traced_ops = sum(record["ops"] for record in traced_rounds)
    untraced_per_op = statistics.median(
        record["wall_s"] / record["ops"] for record in rounds)
    # Every span costs wall clock of its own, most of it landing in the
    # self time of the layer that made the span.  The untraced rounds
    # say how much the traced ones should have taken; the excess is
    # taken back out in proportion to each layer's span count, so a
    # layer of many short spans (net: Message.size_bytes) does not read
    # larger than it is.
    totals = tracer.layer_totals()
    overhead_s = max(0.0, traced_wall - traced_ops * untraced_per_op)
    per_span_s = _ratio(overhead_s,
                        sum(cell["spans"] for cell in totals.values()))
    self_s = {layer: max(0.0, totals[layer]["self_s"]
                         - per_span_s * totals[layer]["spans"])
              for layer in LAYERS}
    corrected_wall = traced_wall - overhead_s
    span = tracer.span_totals
    lookups = span("DHTRing.lookup", "DHTRing.lookup_many",
                   "DHTRing.lookup_many_async")
    membership_ops = span("DHTRing.add_node", "DHTRing.remove_node")[0]
    membership_s = span("DHTRing.add_node", "DHTRing.remove_node",
                        "DHTRing.maintain")[1]
    counts = tracer.counts

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = totals[layer]["calls"]
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_share"] = _ratio(self_s[layer],
                                                corrected_wall)
    metrics.update({
        "sim.events": counters["events"],
        "sim.events_per_s": statistics.median(
            record["counters"]["events"] / record["wall_s"]
            for record in rounds),
        "sim.events_per_query": _ratio(counters["events"], queries),
        "sim.virtual_latency_p50_ms":
            percentile_or_zero(first.get("latencies_ms", ()), 50),
        "sim.virtual_latency_p99_ms":
            percentile_or_zero(first.get("latencies_ms", ()), 99),
        "dht.lookups": lookups[0],
        "dht.lookup_us": _per_us(lookups),
        "dht.hops_per_lookup": _ratio(counts["dht.hops"],
                                      counts["dht.keys"]),
        "dht.lookup_hop_bytes_share": _ratio(counters["hop_bytes"],
                                             counters["bytes"]),
        "dht.zero_traffic_lookup_share": _ratio(counts["dht.zero_hop_keys"],
                                                counts["dht.keys"]),
        "dht.membership_ops": membership_ops,
        "dht.membership_us": _ratio(membership_s * 1e6, membership_ops),
        "net.messages": counters["messages"],
        "net.bytes": counters["bytes"],
        "net.messages_per_query": _ratio(counters["messages"], queries),
        # send_async runs inside request_async, so it is not added again.
        "net.request_us": _per_us(span("SimTransport.request",
                                       "SimTransport.request_async")),
        "net.sizing_calls": span("Message.size_bytes")[0],
        "net.sizing_us": _per_us(span("Message.size_bytes")),
        "net.queue_drop_share": _ratio(counters["queue_dropped"],
                                       counters["queue_arrived"]),
        "net.retransmissions": counters["retransmissions"],
        "net.timeouts": float(first.get("dropped_probes", 0)),
        "ir.analyze_calls": span("Analyzer.analyze")[0],
        "ir.analyze_us": _per_us(span("Analyzer.analyze")),
        "ir.topk_calls": span("LocalSearchEngine.top_k_for_key")[0],
        "ir.topk_us": _per_us(span("LocalSearchEngine.top_k_for_key")),
        "ir.merge_calls": span("PostingList.merge")[0],
        "ir.merge_us": _per_us(span("PostingList.merge")),
        "ir.cooccur_calls": span("InvertedIndex.cooccurring_terms")[0],
        "ir.cooccur_us": _per_us(span("InvertedIndex.cooccurring_terms")),
        "core.distribute_s": phases["distribute_s"],
        "core.stats_phase_s": phases["stats_phase_s"],
        "core.hdk_phase_s": phases["hdk_phase_s"],
        "core.hdk_keys": phases["hdk_keys"],
        "core.probes_per_query": _ratio(first.get("probed", 0), queries),
        "core.skipped_share": _ratio(first.get("skipped", 0),
                                     first.get("lattice_nodes", 0)),
        "core.cache_hit_share": _ratio(
            first.get("cache_hits", 0),
            first.get("cache_hits", 0) + first.get("cache_misses", 0)),
        "core.coalesced_probe_keys": counters["coalesced_keys"],
        "core.rank_us": _per_us(span("ranking.merge_and_rank",
                                     "ranking.rank_with_margin")),
        "core.publish_us": _ratio(sum(update_s["publish"]) * 1e6,
                                  len(update_s["publish"])),
        "core.unpublish_us": _ratio(sum(update_s["unpublish"]) * 1e6,
                                    len(update_s["unpublish"])),
        "core.handover_bytes_per_leave": _ratio(
            sum(record.get("leave_handover_bytes", 0.0)
                for record in rounds), len(update_s["leave"])),
        "core.query_wall_p50_us": percentile_or_zero(call_us, 50),
        "core.query_wall_p99_us": percentile_or_zero(call_us, 99),
        "core.queries_per_s": _ratio(len(call_us), sum(call_us) / 1e6),
        "core.update_ops_per_s": _ratio(
            sum(len(timings) for timings in update_s.values()),
            sum(sum(timings) for timings in update_s.values())),
        "load.generator_lateness_ms": workload.lateness_ms,
        "mem.build_mb": phases["build_mb"],
        "mem.index_mb": phases["index_mb"],
        "mem.run_mb": run_mb,
        "trace.overhead_share": _ratio(
            _ratio(traced_wall, traced_ops) - untraced_per_op,
            untraced_per_op),
        "trace.span_cost_us": per_span_s * 1e6,
        "trace.unattributed_share": _ratio(
            traced_wall - sum(cell["self_s"] for cell in totals.values()),
            traced_wall),
        "trace.missing_entry_points": float(len(tracer.missing)),
    })
    return metrics


def measure(name: str, mode: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Run workload ``name`` once; return its full result record."""
    clock = time.perf_counter
    run_started = clock()
    workload = WORKLOADS[name](mode, seed, traced=trace)
    setup_s: List[float] = []
    for _ in range(1 if trace else spec.SETUP_REPEATS[mode]):
        workload.release()
        started = clock()
        workload.setup()
        setup_s.append(clock() - started)
    rss_ready = current_rss_mb()
    workload.warmup()

    exact: Dict[str, float] = {}
    phases: Dict[str, float] = {}

    def after_round_0() -> None:
        # The index build the counters describe: round 0's own for
        # index_build, the set-up's for the query workloads.
        phases.update(workload.phases)
        exact.update(workload.reference())

    budget_s = seconds / 2.0 if trace else seconds
    rounds = _run_rounds(workload, budget_s, 0, after_first=after_round_0)
    record: Dict[str, Any] = {
        "workload": name, "mode": mode, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes": dict(workload.sizes),
        "setup_s_each": setup_s,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_ops_per_s": [r["ops"] / r["wall_s"] for r in rounds],
    }
    if trace:
        tracer = Tracer()
        with tracer:
            traced_rounds = _run_rounds(workload, seconds - budget_s,
                                        len(rounds))
        run_mb = current_rss_mb() - rss_ready
        # The tracer is read before finish() runs more operations:
        # processes and callbacks wrapped during the traced rounds that
        # are still pending go on recording spans, and those have no
        # traced wall clock to be a share of.
        record["metrics"] = _per_layer(workload, rounds, traced_rounds,
                                       tracer, phases, run_mb)
        record["traced_round_wall_s"] = [r["wall_s"] for r in traced_rounds]
        record["trace_report"] = tracer.report()
        workload.finish()
        record["metrics"]["load.max_rate_within_limit_qps"] = \
            workload.max_rate_within_limit()
        record["ladder"] = workload.ladder
    else:
        workload.finish()
        record["metrics"] = _end_to_end(setup_s, rounds, exact)
    workload.check("no_failed_operations", workload.failed == 0,
                   f"{workload.failed} of {workload.attempted} operations "
                   "failed")
    record.update(
        exact_metrics=exact,
        attempted=workload.attempted, failed=workload.failed,
        first_error=workload.first_error,
        checks=[{"name": check, "passed": passed, "detail": detail}
                for check, passed, detail in workload.checks],
        correct=all(passed for _check, passed, _detail in workload.checks),
        wall_s=clock() - run_started)
    return record
