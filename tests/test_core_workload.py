"""Tests for the redesigned workload API (``repro.core.workload``).

The load-bearing properties: the legacy ``run_queries`` signature is now
a thin shim over ``Workload``/``run_workload`` with *identical* traffic
and traces under a fixed seed, and origin selection no longer shares an
RNG stream with interarrival gaps (the old coupling made arrival times
depend on whether origins were pinned).
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


def trace_fingerprint(jobs):
    return [(job.origin, tuple(job.terms), job.trace.started_at,
             job.trace.latency, job.trace.bytes_sent,
             job.trace.probes) for job in jobs]


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
# Shim equivalence: old signature == new API, byte for byte
# ----------------------------------------------------------------------

class TestShimEquivalence:
    def test_uniform_origins_identical(self):
        old = build_network()
        new = build_network()
        old_jobs = old.run_queries(QUERIES, arrival_rate=40.0)
        new_jobs = new.run_workload(
            Workload(queries=tuple(QUERIES),
                     arrival=PoissonArrivals(rate=40.0),
                     origins=UniformOrigins()))
        assert doc_ids(old_jobs) == doc_ids(new_jobs)
        assert trace_fingerprint(old_jobs) == trace_fingerprint(new_jobs)
        assert old.bytes_by_kind() == new.bytes_by_kind()

    def test_pinned_origins_identical(self):
        old = build_network()
        new = build_network()
        origins = old.peer_ids()[:3]
        old_jobs = old.run_queries(QUERIES, origins=origins,
                                   arrival_rate=40.0)
        new_jobs = new.run_workload(
            Workload(queries=tuple(QUERIES),
                     arrival=PoissonArrivals(rate=40.0),
                     origins=RoundRobinOrigins(tuple(origins))))
        assert doc_ids(old_jobs) == doc_ids(new_jobs)
        assert trace_fingerprint(old_jobs) == trace_fingerprint(new_jobs)
        assert old.bytes_by_kind() == new.bytes_by_kind()


# ----------------------------------------------------------------------
# The RNG-stream bugfix: origin choice no longer perturbs arrivals
# ----------------------------------------------------------------------

class TestStreamSeparation:
    def test_arrival_times_independent_of_origin_policy(self):
        """Pinning origins must not change *when* queries arrive.

        In the old ``run_queries`` the uniform origin draws and the
        exponential gap draws interleaved on one stream, so the two
        call forms produced different arrival schedules.  With derived
        per-purpose streams the schedules are identical.
        """
        uniform = build_network()
        pinned = build_network()
        uniform_jobs = uniform.run_queries(QUERIES, arrival_rate=40.0)
        pinned_jobs = pinned.run_queries(
            QUERIES, origins=pinned.peer_ids()[:2], arrival_rate=40.0)
        assert [job.trace.started_at for job in uniform_jobs] == \
            [job.trace.started_at for job in pinned_jobs]

    def test_consecutive_workloads_use_fresh_streams(self):
        network = build_network()
        first = network.run_queries(QUERIES, arrival_rate=40.0)
        second = network.run_queries(QUERIES, arrival_rate=40.0)
        # Different derived streams: same queries, fresh schedule.
        gaps_first = [job.trace.started_at for job in first]
        start = gaps_first[-1]
        gaps_second = [job.trace.started_at - start for job in second]
        assert gaps_first != gaps_second
        # But both complete with identical result sets per query.
        assert doc_ids(first) == doc_ids(second)
