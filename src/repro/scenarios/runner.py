"""Compile a :class:`Scenario` onto the event kernel and evaluate it.

Determinism contract: everything stochastic draws from a stream derived
from ``(seed, "scenario", name, ...)`` — the corpus, the query pool, the
base/flash query streams, and *one stream per timeline event* (wave
offsets at compile time, victim selection at fire time).  Two runs at
the same seed therefore produce byte-identical
:class:`~repro.scenarios.report.ScenarioReport` JSON.

The run proceeds in four phases:

1. **build** — fresh network + synthetic corpus + global index;
2. **oracle** — every distinct query of the compiled streams runs once
   against the fault-free network; its top-k is the recall reference.
   Traffic counters reset afterwards, so the report accounts only the
   adversarial window;
3. **timeline** — workloads are submitted
   (:meth:`~repro.core.network.AlvisNetwork.submit_workload`) and every
   timeline event is scheduled, then one ``simulator.run()`` drives the
   whole story;
4. **evaluate** — measured recall/latency/goodput/handover-bytes are
   checked against the scenario's :class:`PassCriteria`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.core.workload import (PoissonArrivals, RoundRobinOrigins,
                                 UniformOrigins, Workload)
from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.net import protocol
from repro.scenarios.report import ScenarioReport, overlap_at_k
from repro.scenarios.spec import (FlashCrowd, GracefulDeparture, Heal,
                                  JoinWave, LeaveWave, Partition,
                                  Scenario, SlowPeers)
from repro.util.rng import derive_seed, make_rng
from repro.util.stats import percentile

__all__ = ["ScenarioRunner"]


class ScenarioRunner:
    """Runs one :class:`Scenario` at one seed."""

    def __init__(self, scenario: Scenario, seed: int = 0):
        self.scenario = scenario
        self.seed = seed
        config_overrides = dict(scenario.config_overrides)
        if any(isinstance(event, SlowPeers)
               and event.service_rate_factor is not None
               for event in scenario.timeline) \
                and config_overrides.get("service_rate", 0.0) <= 0:
            raise ValueError(
                f"scenario {scenario.name!r} uses SlowPeers with a "
                f"service_rate_factor but config.service_rate is 0 "
                f"(no service model to slow down)")
        self._config_overrides = config_overrides
        # Populated by run() — the benchmark layer reads these to
        # replay the base stream as a plain Poisson run_workload.
        self.network: AlvisNetwork = None
        self.base_queries: List[Tuple[str, ...]] = []
        self.base_jobs: List = []
        self.flash_jobs: List = []
        self.oracle: Dict[Tuple[str, ...], List[int]] = {}
        self._joins = 0
        self._crashes = 0
        self._graceful = 0
        self._partitions = 0
        self._degraded = 0

    # ------------------------------------------------------------------
    # Phase 1: build
    # ------------------------------------------------------------------

    def build_network(self) -> AlvisNetwork:
        """A fresh network + corpus + index for this scenario/seed.

        Repeated calls build identical networks (the benchmark uses a
        second one to replay the base stream through ``run_workload``).
        """
        scenario = self.scenario
        config = AlvisConfig(**dict(self._config_overrides))
        network = AlvisNetwork(num_peers=scenario.num_peers,
                               config=config, seed=self.seed)
        corpus = SyntheticCorpus(SyntheticCorpusConfig(
            num_documents=scenario.num_documents,
            vocabulary_size=scenario.vocabulary_size,
            num_topics=scenario.num_topics,
            seed=derive_seed(self.seed, "scenario", scenario.name,
                             "corpus")))
        network.distribute_documents(corpus.documents())
        network.build_index(mode=scenario.index_mode)
        return network

    def build_pool(self) -> QueryWorkload:
        """The scenario's Zipf query pool (answerable multi-term
        queries over its own corpus)."""
        scenario = self.scenario
        corpus = SyntheticCorpus(SyntheticCorpusConfig(
            num_documents=scenario.num_documents,
            vocabulary_size=scenario.vocabulary_size,
            num_topics=scenario.num_topics,
            seed=derive_seed(self.seed, "scenario", scenario.name,
                             "corpus")))
        return QueryWorkload.from_corpus(
            corpus,
            QueryWorkloadConfig(
                pool_size=scenario.pool_size,
                seed=derive_seed(self.seed, "scenario", scenario.name,
                                 "pool")))

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def run(self) -> ScenarioReport:
        scenario = self.scenario
        network = self.build_network()
        self.network = network
        pool = self.build_pool()
        peer_ids = network.peer_ids()

        # Compile the query streams (base + flash crowds) up front.
        spec = scenario.workload
        stream_rng = make_rng(self.seed, "scenario", scenario.name,
                              "base-queries")
        self.base_queries = list(pool.stream(stream_rng, spec.queries,
                                             spec.drift_per_query))
        pinned = tuple(peer_ids[:spec.pinned_origins]) \
            if spec.pinned_origins else ()
        flash_streams: List[Tuple[int, FlashCrowd,
                                  List[Tuple[str, ...]]]] = []
        for index, event in enumerate(scenario.timeline):
            if isinstance(event, FlashCrowd):
                rng = self._event_rng(index)
                flash_streams.append(
                    (index, event,
                     list(pool.stream(rng, event.queries,
                                      event.drift_per_query))))

        # Peers the adversary never removes or isolates: the pinned
        # origins (the surviving clients whose experience the criteria
        # measure) and the oracle origin.
        protected: Set[int] = set(pinned) | {peer_ids[0]}

        # Phase 2: the fault-free oracle.  One sync-completing run per
        # distinct query, then zero the counters so the report measures
        # only the adversarial window.
        k = network.config.result_k
        distinct = list(dict.fromkeys(
            self.base_queries
            + [query for _, _, queries in flash_streams
               for query in queries]))
        for query in distinct:
            results, _trace = network.query(peer_ids[0], query)
            self.oracle[tuple(query)] = \
                [document.doc_id for document in results[:k]]
        network.reset_traffic()

        # Phase 3: schedule the whole story, then run it.
        origin_policy = RoundRobinOrigins(pinned) if pinned \
            else UniformOrigins()
        self.base_jobs = network.submit_workload(
            Workload(queries=tuple(self.base_queries),
                     arrival=PoissonArrivals(spec.arrival_rate),
                     origins=origin_policy))
        self.flash_jobs = []
        for index, event, queries in flash_streams:
            self.flash_jobs.append(network.submit_workload(
                Workload(queries=tuple(queries),
                         arrival=PoissonArrivals(event.arrival_rate)),
                start=event.at))
        for index, event in enumerate(scenario.timeline):
            if not isinstance(event, FlashCrowd):
                self._schedule_event(network, index, event, protected)
        start = network.simulator.now
        network.simulator.run()

        # Phase 4: measure and judge.
        return self._evaluate(network, start, k)

    # ------------------------------------------------------------------
    # Timeline compilation
    # ------------------------------------------------------------------

    def _event_rng(self, index: int) -> random.Random:
        """One derived stream per scripted timeline event."""
        return make_rng(self.seed, "scenario", self.scenario.name,
                        "event", index)

    def _wave_offsets(self, rng: random.Random, count: int,
                      spread: float) -> List[float]:
        if spread <= 0 or count == 1:
            return [0.0] * count
        return sorted(rng.uniform(0.0, spread) for _ in range(count))

    def _schedule_event(self, network: AlvisNetwork, index: int,
                        event, protected: Set[int]) -> None:
        simulator = network.simulator
        rng = self._event_rng(index)
        if isinstance(event, JoinWave):
            # The churn process is created at compile time so its
            # derived stream index depends only on timeline order.
            process = network.faults.churn()
            for offset in self._wave_offsets(rng, event.count,
                                             event.spread):
                simulator.schedule(
                    event.at + offset,
                    lambda process=process: self._fire_join(process))
        elif isinstance(event, LeaveWave):
            for offset in self._wave_offsets(rng, event.count,
                                             event.spread):
                simulator.schedule(
                    event.at + offset,
                    lambda: self._fire_crash(network, rng, protected))
        elif isinstance(event, GracefulDeparture):
            for offset in self._wave_offsets(rng, event.count,
                                             event.spread):
                simulator.schedule(
                    event.at + offset,
                    lambda: self._fire_graceful(network, rng, protected))
        elif isinstance(event, Partition):
            simulator.schedule(
                event.at,
                lambda: self._fire_partition(network, rng,
                                             event.fraction, protected))
        elif isinstance(event, Heal):
            simulator.schedule(event.at,
                               lambda: self._fire_heal(network))
        elif isinstance(event, SlowPeers):
            simulator.schedule(
                event.at,
                lambda: self._fire_slow(network, rng, event, protected))
        else:  # pragma: no cover - exhaustive over TimelineEvent
            raise TypeError(f"unknown timeline event {event!r}")

    # ------------------------------------------------------------------
    # Event firing (runs on the event kernel)
    # ------------------------------------------------------------------

    def _fire_join(self, process) -> None:
        process.join()
        self._joins += 1

    def _victims(self, network: AlvisNetwork, rng: random.Random,
                 count: int, protected: Set[int]) -> List[int]:
        candidates = [peer_id for peer_id in network.peer_ids()
                      if peer_id not in protected]
        # Never shrink the network to (or below) one peer.
        count = min(count, len(candidates), network.num_peers - 1)
        if count <= 0:
            return []
        return rng.sample(candidates, count)

    def _fire_crash(self, network: AlvisNetwork, rng: random.Random,
                    protected: Set[int]) -> None:
        victims = self._victims(network, rng, 1, protected)
        if victims:
            network.faults.crash(victims[0])
            self._crashes += 1

    def _fire_graceful(self, network: AlvisNetwork, rng: random.Random,
                       protected: Set[int]) -> None:
        victims = self._victims(network, rng, 1, protected)
        if victims:
            network.faults.graceful_depart(victims[0])
            self._graceful += 1

    def _fire_partition(self, network: AlvisNetwork, rng: random.Random,
                        fraction: float, protected: Set[int]) -> None:
        count = max(1, int(network.num_peers * fraction))
        isolated = self._victims(network, rng, count, protected)
        if isolated:
            network.faults.partition(isolated)
            self._partitions += 1

    def _fire_heal(self, network: AlvisNetwork) -> None:
        if network.faults.partitioned:
            network.faults.heal()

    def _fire_slow(self, network: AlvisNetwork, rng: random.Random,
                   event: SlowPeers, protected: Set[int]) -> None:
        count = max(1, int(network.num_peers * event.fraction))
        victims = self._victims(network, rng, count, protected)
        service_rate = None
        if event.service_rate_factor is not None:
            service_rate = (network.config.service_rate
                            * event.service_rate_factor)
        for victim in victims:
            network.faults.degrade(victim, service_rate=service_rate,
                                   cache_bytes=event.cache_bytes)
        self._degraded += len(victims)

    # ------------------------------------------------------------------
    # Phase 4: evaluation
    # ------------------------------------------------------------------

    def _evaluate(self, network: AlvisNetwork, start: float,
                  k: int) -> ScenarioReport:
        scenario = self.scenario
        all_jobs = list(self.base_jobs)
        for jobs in self.flash_jobs:
            all_jobs.extend(jobs)
        submitted = (scenario.workload.queries
                     + sum(event.queries for event in scenario.timeline
                           if isinstance(event, FlashCrowd)))
        completed = [job for job in all_jobs if job.done]
        recalls = []
        for job in completed:
            expected = self.oracle.get(tuple(job.terms))
            if expected is None:  # pragma: no cover - oracle covers all
                continue
            got = [document.doc_id for document in (job.results or [])[:k]]
            recalls.append(overlap_at_k(expected, got))
        recall = sum(recalls) / len(recalls) if recalls else 0.0
        latencies = [job.trace.latency for job in completed]
        p50 = percentile(latencies, 50) if latencies else 0.0
        p95 = percentile(latencies, 95) if latencies else 0.0
        p99 = percentile(latencies, 99) if latencies else 0.0
        makespan = network.simulator.now - start
        goodput = len(completed) / makespan if makespan > 0 \
            else float(len(completed))
        handover_bytes = int(network.bytes_by_kind()
                             .get(protocol.HANDOVER, 0))
        dropped = sum(job.trace.dropped_count for job in completed)
        completed_fraction = (len(completed) / submitted
                              if submitted else 1.0)
        criteria = scenario.criteria.evaluate(
            recall_at_k=recall, latency_p99=p99, goodput_qps=goodput,
            handover_bytes=handover_bytes,
            completed_fraction=completed_fraction)
        return ScenarioReport(
            scenario=scenario.name,
            seed=self.seed,
            k=k,
            peers_start=scenario.num_peers,
            peers_end=network.num_peers,
            queries_submitted=submitted,
            queries_completed=len(completed),
            dropped_probes=dropped,
            recall_at_k=recall,
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            makespan=makespan,
            goodput_qps=goodput,
            bytes_total=int(network.bytes_sent_total()),
            messages_total=int(network.messages_sent_total()),
            handover_bytes=handover_bytes,
            joins=self._joins,
            crashes=self._crashes,
            graceful_departures=self._graceful,
            partitions=self._partitions,
            degraded_peers=self._degraded,
            criteria=criteria,
            passed=all(criterion.passed for criterion in criteria))
