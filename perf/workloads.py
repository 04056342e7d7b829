"""The four workloads, driven through the ``AlvisNetwork`` facade only.

Every workload has the same shape, so ``perf/harness.py`` can time
them alike:

* :meth:`Workload.setup` — generate the dataset and (for the three
  query workloads) build and index the network.  Timed by the harness,
  several times per run;
* :meth:`Workload.warmup` — untimed conditioning (lazy routing tables,
  probe caches);
* :meth:`Workload.round` — one fixed-size batch of operations with its
  own wall-clock timer.  The harness repeats rounds until ``--seconds``
  is used up;
* :meth:`Workload.reference` — after round 0 only: the simulator-output
  ("exact") metrics and the correctness checks.  Round 0 is identical
  for a given seed however many rounds the clock later allows, so these
  repeat bit-for-bit.

Only facade calls that ROADMAP items 2-3 keep are used; ``AlvisConfig``
is built from the fields it still defines.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import sys
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.baselines.centralized import CentralizedEngine
from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.core.workload import (PoissonArrivals, RoundRobinOrigins,
                                 Workload as OpenWorkload)
from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.dht import ID_SPACE
from repro.eval.quality import overlap_at_k
from repro.ir.documents import Document
from repro.util.rng import make_rng
from repro.util.stats import percentile

from perf import spec

__all__ = ["UPDATES", "WORKLOADS", "Workload", "current_rss_mb",
           "percentile_or_zero"]

Query = Tuple[int, List[str]]          #: (origin peer, query terms)

#: The update a churn_mix step makes, cycling in this order.
UPDATES = ("join", "publish", "leave", "unpublish")


def make_config(**wanted: Any) -> AlvisConfig:
    """An ``AlvisConfig`` from the wanted fields it still defines."""
    known = {field.name for field in dataclasses.fields(AlvisConfig)}
    return AlvisConfig(**{name: value for name, value in wanted.items()
                          if name in known})


def _placement(peers: int) -> List[int]:
    """The peers' ring positions: part of the fixed dataset, like the
    collection (see ``spec.CORPUS_SEED``)."""
    rng = make_rng(spec.CORPUS_SEED, "perf", "placement")
    positions: set = set()
    while len(positions) < peers:
        positions.add(rng.randrange(ID_SPACE))
    return sorted(positions)


def current_rss_mb() -> float:
    """Resident set size right now (0.0 where /proc is unavailable)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    import resource
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


def percentile_or_zero(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0..100); 0.0 where nothing was sampled."""
    return percentile(values, q) if values else 0.0


def _counters(network: AlvisNetwork) -> Dict[str, float]:
    """The program's own read-only counters, read once (never inside a
    timed region)."""
    metrics = network.simulator.metrics
    service = network.transport.service_stats()
    return {"bytes": metrics.counter_value("net.bytes.sent"),
            "messages": metrics.counter_value("net.msgs.sent"),
            "hop_bytes": metrics.counter_value("net.bytes.sent.LookupHop"),
            "hop_messages": metrics.counter_value("net.msgs.sent.LookupHop"),
            "events": float(network.simulator.events_processed),
            "queue_arrived": float(service["arrived"]),
            "queue_dropped": float(service["dropped"]),
            "retransmissions":
                network.runtime.congestion_summary()["retransmissions"],
            "coalesced_keys": float(network.runtime.coalesced_probe_keys())}


def _delta(before: Dict[str, float],
           after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in after}


class _RecordingArrivals:
    """Poisson arrivals that remember the gaps they handed out, so the
    scheduled arrival time of every query is known outside the program."""

    def __init__(self, rate: float):
        self._inner = PoissonArrivals(rate)
        self.gaps_drawn: List[float] = []

    def gaps(self, rng, count: int) -> List[float]:
        self.gaps_drawn = self._inner.gaps(rng, count)
        return self.gaps_drawn


class Workload:
    """Common state and helpers of the four workloads."""

    name = ""

    def __init__(self, mode: str, seed: int, traced: bool = False):
        self.mode = mode
        self.seed = seed
        #: A traced run also does what only per-layer metrics need.
        self.traced = traced
        self.sizes: Dict[str, Any] = spec.SIZES[self.name][mode]
        self.network: Optional[AlvisNetwork] = None
        self.documents: List[Document] = []
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None
        #: Phase timers and RSS deltas of the latest index build.
        self.phases: Dict[str, float] = {}
        #: (name, passed, detail) of every correctness check made.
        self.checks: List[Tuple[str, bool, str]] = []
        #: Open loop only: the rate ladder's rungs, and how late the
        #: arrival generator ever ran.
        self.ladder: List[Dict[str, Any]] = []
        self.lateness_ms = 0.0

    # -- the harness interface -----------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed conditioning before round 0."""

    def round(self, index: int) -> Dict[str, Any]:
        raise NotImplementedError

    def reference(self) -> Dict[str, float]:
        raise NotImplementedError

    def finish(self) -> None:
        """After the last round: checks that span the whole run."""

    def release(self) -> None:
        """Drop the network so the next set-up starts from a clean heap."""
        self.network = None
        self.documents = []
        gc.collect()

    # -- shared helpers -------------------------------------------------

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def _fail(self, count: int = 1) -> None:
        """Count failed operations; keep the first traceback, if any."""
        self.failed += count
        if self.first_error is None and sys.exc_info()[0] is not None:
            self.first_error = traceback.format_exc()

    def _dataset(self, docs: int, log: int = 0) -> SyntheticCorpus:
        """The fixed collection, its query pool and a query log of
        ``log`` Zipf(0.9) draws from the pool (see CORPUS_SEED)."""
        vocabulary = 3 * docs
        corpus = SyntheticCorpus(SyntheticCorpusConfig(
            num_documents=docs, vocabulary_size=vocabulary,
            num_topics=max(1, docs // 100),
            topic_vocabulary_size=min(300, vocabulary // 2),
            seed=spec.CORPUS_SEED))
        self.pool = QueryWorkload.from_corpus(
            corpus, QueryWorkloadConfig(
                pool_size=self.sizes["pool"], min_terms=2, max_terms=3,
                popularity_exponent=0.9, seed=spec.CORPUS_SEED))
        log_rng = make_rng(spec.CORPUS_SEED, "perf", "query-log")
        self._query_log = [list(self.pool.sample(log_rng))
                           for _ in range(log)]
        self._order_rng = make_rng(spec.CORPUS_SEED, "perf", "query-order")
        self._origin_rng = make_rng(self.seed, "perf", "origins")
        return corpus

    def _build(self, documents: List[Document], peers: int,
               config: AlvisConfig) -> AlvisNetwork:
        """Construct, distribute, statistics phase, HDK build — the
        write path, with a timer and an RSS reading per phase."""
        clock = time.perf_counter
        rss_start = current_rss_mb()
        started = clock()
        network = AlvisNetwork(num_peers=peers, config=config,
                               seed=self.seed, peer_ids=_placement(peers))
        network.distribute_documents(documents)
        distributed = clock()
        rss_built = current_rss_mb()
        network.run_statistics_phase()
        statistics_done = clock()
        hdk = network.build_index("hdk")
        indexed = clock()
        self.phases = {
            "distribute_s": distributed - started,
            "stats_phase_s": statistics_done - distributed,
            "hdk_phase_s": indexed - statistics_done,
            "hdk_keys": float(hdk.keys_published),
            "build_mb": rss_built - rss_start,
            "index_mb": current_rss_mb() - rss_built,
            "index_bytes": network.bytes_sent_total(),
        }
        return network

    def _replay(self, count: int) -> List[List[str]]:
        """The first ``count`` queries of the log in its next order.

        The orders are part of the dataset too (a fixed sequence of
        permutations), and a whole round replays the whole log: every
        round of every seed asks the same queries equally often, and
        the n-th round of every seed asks them in the same order.  Only
        origins, arrival times and updates follow ``--seed``, which
        keeps the simulator-output metrics within about a percent
        between seeds even where per-origin caches make them depend on
        who asked what before."""
        order = list(self._query_log)
        self._order_rng.shuffle(order)
        return [list(terms) for terms in order[:count]]

    def _replay_from(self, count: int,
                     origins: Sequence[int]) -> List[Query]:
        """:meth:`_replay` with an origin drawn per query from this
        run's seeded stream."""
        return [(self._origin_rng.choice(origins), terms)
                for terms in self._replay(count)]

    def _sample_queries(self) -> List[List[str]]:
        """The fixed sample recall is scored on: the pool's head."""
        return [list(query)
                for query in self.pool.pool[: self.sizes["sample"]]]

    def _closed_loop(self, batch: Sequence[Query]) -> Dict[str, Any]:
        """One client: the next query is sent when the previous one
        completed.  Returns per-call wall times and the traces."""
        assert self.network is not None
        query = self.network.query
        clock = time.perf_counter
        call_s: List[float] = []
        traces = []
        results = []
        loop_started = clock()
        for origin, terms in batch:
            started = clock()
            try:
                ranked, trace = query(origin, terms)
            except Exception:   # the benchmark counts failures, never dies
                self._fail()
                results.append([])      # keeps results aligned with batch
                continue
            call_s.append(clock() - started)
            traces.append(trace)
            results.append(ranked)
        wall_s = clock() - loop_started
        self.attempted += len(batch)
        self._fail(sum(1 for trace in traces if trace.dropped_count))
        return {"wall_s": wall_s, "call_s": call_s, "traces": traces,
                "results": results}

    @staticmethod
    def _fold_traces(traces: Sequence[Any]) -> Dict[str, Any]:
        """Sum what the program recorded about a batch of queries."""
        probes = sum(len(trace.probes) for trace in traces)
        return {
            "queries": len(traces),
            "latencies_ms": [trace.latency * 1000.0 for trace in traces],
            "trace_bytes": float(sum(trace.bytes_sent for trace in traces)),
            "lattice_nodes": probes,
            "probed": sum(trace.probed_count for trace in traces),
            "skipped": sum(trace.skipped_count for trace in traces),
            "cache_hits": sum(trace.cache_hits for trace in traces),
            "cache_misses": sum(trace.cache_misses for trace in traces),
            "dropped_probes": sum(trace.dropped_count for trace in traces),
        }

    def _recall(self, pairs: Sequence[Tuple[List[str], Sequence[Any]]],
                live_documents: Sequence[Document]) -> float:
        """Mean overlap@10 against a centralized engine over the
        documents live right now (scored outside every timed region)."""
        reference = CentralizedEngine(live_documents)
        expected: Dict[Tuple[str, ...], List[int]] = {}
        overlaps = []
        for terms, results in pairs:
            key = tuple(terms)
            if key not in expected:
                expected[key] = reference.top_doc_ids(terms, 10)
            overlaps.append(overlap_at_k(
                [ranked.doc_id for ranked in results], expected[key], 10))
        recall = statistics.fmean(overlaps)
        floor = spec.RECALL_FLOOR[self.mode][self.name]
        self.check("recall_floor", recall >= floor,
                   f"recall_at_10 {recall:.4f} vs floor {floor}")
        return recall

    def _exact(self, bytes_per_op: float, live_documents: List[Document],
               pairs: Sequence[Tuple[List[str], Sequence[Any]]],
               latencies_ms: Sequence[float]) -> Dict[str, float]:
        """The simulator-output metrics, all taken after round 0."""
        assert self.network is not None
        stored = sum(self.network.per_peer_index_storage().values())
        # Virtual latencies are multiples of the 20 ms link delay, so a
        # percentile sits on one value whatever the seed; the mean of
        # the slowest 5 % (15 samples or more on every workload) moves
        # with every query that enters or leaves it.
        slowest = sorted(latencies_ms)[-max(1, len(latencies_ms) // 20):]
        return {
            "bytes_per_op": bytes_per_op,
            "storage_bytes_per_doc": stored / len(live_documents),
            "recall_at_10": self._recall(pairs, live_documents),
            "sim_latency_mean_ms": statistics.fmean(latencies_ms),
            "sim_latency_tail_ms": statistics.fmean(slowest),
        }

    def max_rate_within_limit(self) -> float:
        """Highest ladder rung below which every rung met the limit."""
        best = 0.0
        for rung in self.ladder:
            if not rung["within_limit"]:
                break
            best = rung["rate_qps"]
        return best


# ----------------------------------------------------------------------


class IndexBuild(Workload):
    """The write path: distribute -> statistics phase -> HDK build."""

    name = "index_build"

    def setup(self) -> None:
        corpus = self._dataset(self.sizes["docs"])
        self._base_documents = corpus.documents()
        self._index_bytes: List[float] = []

    def round(self, index: int) -> Dict[str, Any]:
        self.release()
        # Publishing assigns ids in place, so every build gets copies.
        self.documents = [dataclasses.replace(document)
                          for document in self._base_documents]
        started = time.perf_counter()
        self.network = self._build(self.documents, self.sizes["peers"],
                                   make_config(**spec.SCALE_OUT))
        wall_s = time.perf_counter() - started
        self.attempted += len(self.documents)
        self._fail(sum(1 for document in self.documents
                       if self.network.doc_owner(document.doc_id) is None))
        self._index_bytes.append(self.phases["index_bytes"])
        return {"ops": len(self.documents), "wall_s": wall_s,
                "counters": _counters(self.network)}

    def reference(self) -> Dict[str, float]:
        """Cold verification queries against the index round 0 built."""
        assert self.network is not None
        origins = self.network.peer_ids()
        sample = self._sample_queries()
        run = self._closed_loop([(self._origin_rng.choice(origins), terms)
                                 for terms in sample])
        return self._exact(
            self.phases["index_bytes"] / len(self.documents),
            self.documents, list(zip(sample, run["results"])),
            self._fold_traces(run["traces"])["latencies_ms"])

    def finish(self) -> None:
        """Every round built the same network from the same seed."""
        self.check("builds_identical", len(set(self._index_bytes)) == 1,
                   f"index bytes per build: {sorted(set(self._index_bytes))}")


# ----------------------------------------------------------------------


class _QueryWorkload(Workload):
    """Set-up shared by the workloads that query a prebuilt index."""

    config_fields: Dict[str, Any] = {}
    queries_per_round = 1       #: queries per operation of a round

    def setup(self) -> None:
        corpus = self._dataset(
            self.sizes["docs"] + self.sizes.get("held_back", 0),
            log=self.queries_per_round * self.sizes["round_ops"])
        documents = corpus.documents()
        self.documents = documents[: self.sizes["docs"]]
        self._held_back: Deque[Document] = deque(
            documents[self.sizes["docs"]:])
        self.network = self._build(
            self.documents, self.sizes["peers"],
            make_config(**spec.SCALE_OUT, **self.config_fields))
        self._origins = self.network.peer_ids()
        self._reference_round: Dict[str, Any] = {}

    def reference(self) -> Dict[str, float]:
        """Round 0: its traffic, its latencies and its own results."""
        first = self._reference_round
        return self._exact(first["counters"]["bytes"] / first["ops"],
                           self.documents, first["pairs"],
                           first["latencies_ms"])


class QueryClosed(_QueryWorkload):
    """Closed loop, one client, cold per-query path (cache off)."""

    name = "query_closed"
    config_fields = dict(cache_bytes=0, dispatch_window=0.0)

    def setup(self) -> None:
        super().setup()
        self._violations: Dict[str, List[str]] = {"byte_conservation": [],
                                                  "cache_off": []}

    def warmup(self) -> None:
        self._closed_loop(self._replay_from(self.sizes["warmup_ops"],
                                            self._origins))

    def round(self, index: int) -> Dict[str, Any]:
        assert self.network is not None
        batch = self._replay_from(self.sizes["round_ops"], self._origins)
        before = _counters(self.network)
        run = self._closed_loop(batch)
        counters = _delta(before, _counters(self.network))
        folded = self._fold_traces(run["traces"])
        record = dict(folded, ops=len(batch), wall_s=run["wall_s"],
                      call_s=run["call_s"], counters=counters)
        # Byte conservation: what the traces were charged is what the
        # transport counted, on every round.
        if folded["trace_bytes"] != counters["bytes"]:
            self._violations["byte_conservation"].append(
                f"round {index}: traces {folded['trace_bytes']} != "
                f"transport {counters['bytes']}")
        if folded["cache_hits"] or folded["cache_misses"]:
            self._violations["cache_off"].append(
                f"round {index}: cache counters "
                f"{folded['cache_hits']}/{folded['cache_misses']}")
        if index == 0:
            self._reference_round = dict(
                record, pairs=[(terms, ranked) for (_origin, terms), ranked
                               in zip(batch, run["results"])])
        return record

    def finish(self) -> None:
        for name, details in self._violations.items():
            self.check(name, not details,
                       "; ".join(details[:3]) or "held on every round")


class QueryOpen(_QueryWorkload):
    """Open loop: Poisson arrivals in virtual time, warm probe caches,
    cross-query coalescing, bounded owner queues, AIMD dispatch."""

    name = "query_open"
    config_fields = spec.OPEN_LOOP

    def setup(self) -> None:
        super().setup()
        # Every n-th peer in id order: origins spread round the ring.
        stride = max(1, len(self._origins) // self.sizes["origins"])
        self._origins = self._origins[::stride][: self.sizes["origins"]]

    def _open_loop(self, count: int, rate: float,
                   counted: bool = True) -> Dict[str, Any]:
        """``count`` arrivals at ``rate`` per virtual second, origins
        round-robin; latency counts from the scheduled arrival.  A
        ladder rung is not ``counted``: it overloads on purpose, so its
        failures are its own result, not the run's."""
        network = self.network
        assert network is not None
        queries = self._replay(count)
        arrivals = _RecordingArrivals(rate)
        workload = OpenWorkload(queries=tuple(queries), arrival=arrivals,
                                origins=RoundRobinOrigins(
                                    tuple(self._origins)))
        before = _counters(network)
        virtual_start = network.simulator.now
        started = time.perf_counter()
        jobs = network.run_workload(workload)
        wall_s = time.perf_counter() - started
        failed = sum(1 for job in jobs
                     if not job.done or job.trace.dropped_count)
        failed += count - len(jobs)
        if counted:
            self.attempted += count
            self._fail(failed)
        # Scheduled arrival i is the running sum of the recorded gaps
        # (summed the way Workload.compile sums them, so a punctual
        # generator reads exactly 0 late).
        offset = 0.0
        virtual_end = network.simulator.now
        latencies_ms = []
        lateness_ms = []
        for job, gap in zip(jobs, arrivals.gaps_drawn):
            offset += gap
            due = virtual_start + offset
            lateness_ms.append((job.trace.started_at - due) * 1000.0)
            finished = job.trace.finished_at if job.done else virtual_end
            latencies_ms.append((finished - due) * 1000.0)
        folded = self._fold_traces([job.trace for job in jobs])
        return dict(
            folded, ops=count, wall_s=wall_s, failed=failed,
            latencies_ms=latencies_ms, lateness_ms=max(lateness_ms),
            counters=_delta(before, _counters(network)),
            backlog=(network.transport.service_stats()["queued"]
                     + network.runtime.congestion_summary()["backlog"]),
            pairs=list(zip(queries, (job.results or [] for job in jobs))))

    def warmup(self) -> None:
        self._open_loop(self.sizes["warmup_ops"], spec.OPEN_BASE_RATE)

    def round(self, index: int) -> Dict[str, Any]:
        record = self._open_loop(self.sizes["round_ops"],
                                 spec.OPEN_BASE_RATE)
        self.lateness_ms = max(self.lateness_ms, record["lateness_ms"])
        if index == 0:
            self._reference_round = record
        record = dict(record)
        del record["pairs"]
        return record

    def _within_limit(self, record: Dict[str, Any]) -> bool:
        return (percentile(record["latencies_ms"], 99)
                <= spec.OPEN_LATENCY_LIMIT_MS
                and record["failed"] / record["ops"]
                <= spec.OPEN_FAILED_SHARE_LIMIT
                and record["backlog"] == 0)

    def finish(self) -> None:
        """Traced runs end by climbing the rate ladder: the base rung
        (round 0) plus two short ones, lowest first, on the same warm
        network — after every round, so no round sees their backlog."""
        if not self.traced:
            return
        rungs = [(spec.OPEN_LADDER[0], self._reference_round)]
        for rate in spec.OPEN_LADDER[1:]:
            rungs.append((rate, self._open_loop(self.sizes["ladder_ops"],
                                                rate, counted=False)))
        for rate, record in rungs:
            self.ladder.append({
                "rate_qps": rate,
                "p99_ms": percentile(record["latencies_ms"], 99),
                "failed_share": record["failed"] / record["ops"],
                "queue_drops": record["counters"]["queue_dropped"],
                "within_limit": self._within_limit(record)})
        if self.mode != "full":
            return      # a smoke rung is too short to fill a queue
        lowest, highest = self.ladder[0], self.ladder[-1]
        self.check("ladder_brackets_knee",
                   lowest["within_limit"] and lowest["queue_drops"] == 0
                   and not highest["within_limit"],
                   f"ladder {self.ladder}")


class ChurnMix(_QueryWorkload):
    """Writes beside reads: every step is one membership or document
    update (join / publish / leave / unpublish, cycling) followed by two
    queries from peers that stay."""

    name = "churn_mix"
    config_fields = dict(cache_bytes=0, dispatch_window=0.0)
    queries_per_round = 2

    def setup(self) -> None:
        super().setup()
        assert self.network is not None
        self._churn = self.network.faults.churn()
        self._joined: Deque[int] = deque()
        self._published: Deque[Tuple[int, Document]] = deque()
        self._steps = 0
        self._publish_rng = make_rng(self.seed, "perf", "publish")

    def _update(self, kind: int) -> None:
        """One update.  Joined nodes leave again (oldest first) and
        published documents are unpublished again (oldest first), so
        the collection and the ring stay the same size round after
        round; the original peers, which hold the documents and issue
        the queries, never leave."""
        network = self.network
        assert network is not None
        if kind == 0:
            self._joined.append(self._churn.join())
        elif kind == 1:
            document = self._held_back.popleft()
            peer_id = self._publish_rng.choice(self._origins)
            network.publish_incremental(peer_id, document)
            self._published.append((peer_id, document))
        elif kind == 2:
            self._churn.leave(self._joined.popleft())
        else:
            peer_id, document = self._published.popleft()
            network.unpublish(peer_id, document.doc_id)
            self._held_back.append(dataclasses.replace(document))

    def _steps_batch(self, steps: int) -> Dict[str, Any]:
        assert self.network is not None
        network = self.network
        clock = time.perf_counter
        queries = self._replay_from(2 * steps, self._origins)
        update_s: Dict[str, List[float]] = {kind: [] for kind in UPDATES}
        handover = network.simulator.metrics.counter(
            "net.bytes.sent.IndexHandover")
        handover_bytes = 0.0
        call_s: List[float] = []
        traces = []
        before = _counters(network)
        loop_started = clock()
        for step in range(steps):
            kind = self._steps % 4
            self._steps += 1
            handed_over = handover.value
            started = clock()
            try:
                self._update(kind)
            except Exception:
                self._fail()
            update_s[UPDATES[kind]].append(clock() - started)
            if kind == 2:
                handover_bytes += handover.value - handed_over
            for origin, terms in queries[2 * step: 2 * step + 2]:
                started = clock()
                try:
                    _ranked, trace = network.query(origin, terms)
                except Exception:
                    self._fail()
                    continue
                call_s.append(clock() - started)
                traces.append(trace)
        wall_s = clock() - loop_started
        self.attempted += 3 * steps
        self._fail(sum(1 for trace in traces if trace.dropped_count))
        folded = self._fold_traces(traces)
        return dict(folded, ops=3 * steps, wall_s=wall_s, call_s=call_s,
                    update_s=update_s,
                    leave_handover_bytes=handover_bytes,
                    counters=_delta(before, _counters(network)))

    def warmup(self) -> None:
        """A standing population of joined nodes and published
        documents, so each lives for several cycles before it goes."""
        assert self.network is not None
        for _ in range(self.sizes["standing"]):
            self._joined.append(self._churn.join())
            document = self._held_back.popleft()
            peer_id = self._publish_rng.choice(self._origins)
            self.network.publish_incremental(peer_id, document)
            self._published.append((peer_id, document))
        self._steps_batch(self.sizes["warmup_ops"])

    def round(self, index: int) -> Dict[str, Any]:
        record = self._steps_batch(self.sizes["round_ops"])
        if index == 0:
            self._reference_round = record
        return record

    def reference(self) -> Dict[str, float]:
        """Scored against the documents live after round 0."""
        assert self.network is not None
        first = self._reference_round
        live = self.documents + [document
                                 for _peer, document in self._published]
        self.check("live_documents",
                   self.network.total_documents() == len(live),
                   f"network holds {self.network.total_documents()} "
                   f"documents, benchmark expects {len(live)}")
        sample = self._sample_queries()
        origin = self._origins[0]
        run = self._closed_loop([(origin, terms) for terms in sample])
        return self._exact(first["counters"]["bytes"] / first["ops"], live,
                           list(zip(sample, run["results"])),
                           first["latencies_ms"])


WORKLOADS = {workload.name: workload
             for workload in (IndexBuild, QueryClosed, QueryOpen, ChurnMix)}
