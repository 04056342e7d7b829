"""Cross-backend equivalence: simulator vs a real multi-process cluster.

Spawns an actual second OS process hosting half the peers, runs the
same fixed-seed query set against the discrete-event simulator and over
localhost UDP, and asserts identical top-k result lists — the
acceptance bar for the pluggable-transport refactor.  Kept small (one
extra process, built-in sample corpus) so the whole file stays well
inside the CI smoke job's 90-second budget.
"""

import pytest

from repro.cluster import ClusterDriver, ClusterSpec, build_network
from repro.cluster.host import peers_for_host, state_fingerprint

SPEC = dict(num_peers=8, num_hosts=2, seed=7, mode="hdk",
            request_timeout=5.0)
QUERIES = [["peer", "retrieval"], ["index"], ["network", "peer"],
           ["document", "ranking"]]


def _top_k(results):
    return [(document.doc_id, round(document.score, 9))
            for document in results]


@pytest.fixture(scope="module")
def sim_reference():
    """Top-k lists from the default (simulator) backend."""
    network = build_network(ClusterSpec(**SPEC))
    origin = sorted(network.peer_ids())[0]
    return origin, [_top_k(network.query(origin, query)[0])
                    for query in QUERIES]


@pytest.fixture(scope="module")
def cluster():
    driver = ClusterDriver(ClusterSpec(**SPEC))
    driver.start(join_timeout=60.0)
    yield driver
    driver.close()


class TestDeterministicBuild:
    def test_twin_builds_share_a_fingerprint(self):
        spec = ClusterSpec(**SPEC)
        assert state_fingerprint(build_network(spec)) == \
            state_fingerprint(build_network(spec))

    def test_qdi_mode_rejected(self):
        # QDI activation would run a synchronous lookup on the UDP
        # loop thread and hang the query that triggered it.
        with pytest.raises(ValueError, match="qdi"):
            ClusterSpec(**dict(SPEC, mode="qdi"))

    def test_positional_assignment_partitions_peers(self):
        network = build_network(ClusterSpec(**SPEC))
        slices = [peers_for_host(network, host, 2) for host in range(2)]
        assert sorted(slices[0] + slices[1]) == sorted(network.peer_ids())
        assert not set(slices[0]) & set(slices[1])


class TestCrossBackendEquivalence:
    def test_hosts_joined_with_matching_state(self, cluster):
        assert set(cluster._hosts) == {1}
        _addr, fingerprint = cluster._hosts[1]
        assert fingerprint == cluster.fingerprint

    def test_closed_loop_top_k_identical_to_simulator(self, cluster,
                                                      sim_reference):
        # One query at a time over UDP, each waited for: the closed-loop
        # twin of the open workload below.
        origin, expected = sim_reference
        latencies = []
        for query, reference in zip(QUERIES, expected):
            results, trace = cluster.run_query(origin, query)
            assert _top_k(results) == reference
            assert trace.dropped_count == 0
            latencies.append(trace.latency)
        # Wall-clock latencies, zero only for queries the origin answers
        # itself.
        assert all(latency >= 0 for latency in latencies)
        assert any(latency > 0 for latency in latencies)
        outputs = cluster.run_query_set(QUERIES, origins=[origin])
        assert [_top_k(results) for results, _trace in outputs] == expected

    def test_async_top_k_identical_to_simulator(self, cluster,
                                                sim_reference):
        origin, expected = sim_reference
        jobs = cluster.run_open_workload(
            QUERIES, origins=[origin], arrival_rate=100.0, timeout=60.0)
        assert [_top_k(job.results) for job in jobs] == expected
        assert all(job.done for job in jobs)
        # Wall-clock latencies: non-negative, and zero only for queries
        # served entirely from the probe cache the closed-loop pass
        # warmed.
        assert all(job.trace.latency >= 0 for job in jobs)

    def test_traffic_really_crossed_the_wire(self, cluster):
        assert cluster.transport.datagrams_sent > 0
        assert cluster.transport.datagrams_received > 0
        assert cluster.transport.decode_errors == 0
