"""Tests for the redesigned workload API (``repro.core.workload``).

The load-bearing properties: the specs compile to a pure, ordered
arrival schedule, and origin selection never shares an RNG stream with
interarrival gaps (a shared stream made arrival times depend on whether
origins were pinned).
"""

import pytest

from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.core.workload import (PoissonArrivals, RoundRobinOrigins,
                                 Submission, UniformOrigins, Workload)
from repro.corpus import sample_documents
from repro.util.rng import make_rng

QUERIES = ["scalable peer retrieval",
           "posting list truncation",
           "congestion control",
           "latent semantic indexing"]


def build_network(**overrides):
    config = AlvisConfig(**overrides)
    network = AlvisNetwork(num_peers=8, config=config, seed=42)
    network.distribute_documents(sample_documents())
    network.build_index(mode="hdk")
    return network


def doc_ids(jobs):
    return [[document.doc_id for document in job.results]
            for job in jobs]


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------

class TestSpecs:
    def test_poisson_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            PoissonArrivals(rate=0.0)
        with pytest.raises(ValueError, match="arrival_rate"):
            PoissonArrivals(rate=-3.0)

    def test_round_robin_needs_origins(self):
        with pytest.raises(ValueError, match="origins"):
            RoundRobinOrigins(())

    def test_round_robin_cycles(self):
        policy = RoundRobinOrigins((3, 7))
        rng = make_rng(0, "unused")
        picks = [policy.pick(rng, index, [0, 1, 2, 3, 7])
                 for index in range(5)]
        assert picks == [3, 7, 3, 7, 3]

    def test_compile_is_pure_and_ordered(self):
        workload = Workload(queries=(("a",), ("b",), ("c",)),
                            arrival=PoissonArrivals(rate=10.0),
                            origins=RoundRobinOrigins((1, 2)))
        submissions = workload.compile(make_rng(0, "arrivals"),
                                       make_rng(0, "origins"),
                                       [1, 2, 3], start=5.0)
        assert [s.query for s in submissions] == [("a",), ("b",), ("c",)]
        assert [s.origin for s in submissions] == [1, 2, 1]
        assert all(isinstance(s, Submission) for s in submissions)
        arrivals = [s.at for s in submissions]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 5.0


# ----------------------------------------------------------------------
# The RNG-stream bugfix: origin choice no longer perturbs arrivals
# ----------------------------------------------------------------------

class TestStreamSeparation:
    def test_arrival_times_independent_of_origin_policy(self):
        """Pinning origins must not change *when* queries arrive.

        Were the uniform origin draws and the exponential gap draws
        interleaved on one stream, the two origin policies would
        produce different arrival schedules.  With derived per-purpose
        streams the schedules are identical.
        """
        uniform = build_network()
        pinned = build_network()
        uniform_jobs = uniform.run_workload(
            Workload(QUERIES, PoissonArrivals(40.0), UniformOrigins()))
        pinned_jobs = pinned.run_workload(Workload(
            QUERIES, PoissonArrivals(40.0),
            RoundRobinOrigins(pinned.peer_ids()[:2])))
        assert [job.trace.started_at for job in uniform_jobs] == \
            [job.trace.started_at for job in pinned_jobs]

    def test_consecutive_workloads_use_fresh_streams(self):
        network = build_network()
        workload = Workload(QUERIES, PoissonArrivals(40.0))
        first = network.run_workload(workload)
        second = network.run_workload(workload)
        # Different derived streams: same queries, fresh schedule.
        gaps_first = [job.trace.started_at for job in first]
        start = gaps_first[-1]
        gaps_second = [job.trace.started_at - start for job in second]
        assert gaps_first != gaps_second
        # But both complete with identical result sets per query.
        assert doc_ids(first) == doc_ids(second)
