"""Tests for congestion-aware dispatch (AIMD flow control, E8 path).

The load-bearing properties:

* ``congestion_control=False`` (the default) leaves the async runtime's
  traffic byte-identical to the unthrottled PR-2 path — the controller
  is strictly opt-in;
* with the transport's bounded service queues saturated, the AIMD
  window backs off, retransmits overflow drops, and every query still
  completes with the same top-k the uncontrolled run produces;
* the congestion state is observable: trace retransmission counts,
  dispatcher backlog/window, service-queue drops in the monitor;
* E8's shape holds at tiny size: below saturation both disciplines
  deliver the offered load, far past it the open loop sheds nearly all
  its arrivals while AIMD holds goodput near capacity.
"""

import pytest

from repro.core.config import AlvisConfig
from repro.core.keys import Key
from repro.core.network import AlvisNetwork
from repro.core.runtime import CongestionWindow, _PendingProbe, _ProbeWaiter
from repro.core.workload import PoissonArrivals, RoundRobinOrigins, Workload
from repro.corpus import sample_documents
from repro.eval.congestion import hot_key, overload_point
from repro.eval.monitor import NetworkMonitor

QUERIES = ["scalable peer retrieval",
           "posting list truncation",
           "congestion control"]

#: A service model tight enough that a burst of concurrent queries from
#: one origin overflows the hot owners' queues.
TIGHT_SERVICE = dict(service_rate=25.0, queue_capacity=2,
                     service_reject_cost=0.5)


def build_network(**overrides):
    config = AlvisConfig(batch_lookups=True,
                         **overrides)
    network = AlvisNetwork(num_peers=8, config=config, seed=42)
    network.distribute_documents(sample_documents())
    network.build_index(mode="hdk")
    return network


def doc_ids(results):
    return [document.doc_id for document in results]


def run_burst(network, copies=8, rate=400.0):
    """A same-origin burst of concurrent queries (the congestion case)."""
    origin = network.peer_ids()[0]
    return network.run_workload(Workload(
        queries=(QUERIES * copies)[: 3 * copies],
        arrival=PoissonArrivals(rate), origins=RoundRobinOrigins((origin,))))


# ----------------------------------------------------------------------
# Off by default: byte-identical to the unthrottled async path
# ----------------------------------------------------------------------

class TestOffByDefault:
    def test_defaults_leave_controller_off(self):
        config = AlvisConfig()
        assert not config.congestion_control
        assert config.service_rate == 0.0
        network = build_network()
        assert not network.transport.service_model_active
        assert network.runtime.dispatcher(
            network.peer_ids()[0]).cwnd is None

    def test_single_query_byte_identical_without_congestion_control(self):
        baseline = build_network()
        explicit = build_network(congestion_control=False)
        origin = baseline.peer_ids()[0]
        for query in QUERIES:
            base_results, base_trace = baseline.query(origin, query)
            off_results, off_trace = explicit.query(origin, query)
            assert doc_ids(base_results) == doc_ids(off_results)
            assert base_trace.bytes_sent == off_trace.bytes_sent
            assert base_trace.bytes_by_kind == off_trace.bytes_by_kind
            assert off_trace.retransmissions == 0

    def test_controller_without_congestion_changes_nothing_but_timing(self):
        # An uncongested network: the window never fills, so the gated
        # path issues exactly the unthrottled traffic.
        baseline = build_network()
        gated = build_network(congestion_control=True)
        origin = baseline.peer_ids()[0]
        for query in QUERIES:
            base_results, base_trace = baseline.query(origin, query)
            gated_results, gated_trace = gated.query(origin, query)
            assert doc_ids(base_results) == doc_ids(gated_results)
            assert base_trace.bytes_sent == gated_trace.bytes_sent
            assert base_trace.bytes_by_kind == gated_trace.bytes_by_kind
            assert base_trace.probes == gated_trace.probes
            assert gated_trace.retransmissions == 0

    def test_open_workload_traffic_identical_without_controller(self):
        # The full PR-2 path (dispatch batching + pipelining) is
        # untouched when the congestion knobs stay off.
        baseline = build_network(dispatch_window=0.03,
                                 pipeline_levels=True)
        explicit = build_network(dispatch_window=0.03,
                                 pipeline_levels=True,
                                 congestion_control=False)
        jobs_base = run_burst(baseline)
        jobs_off = run_burst(explicit)
        assert [doc_ids(job.results) for job in jobs_base] == \
            [doc_ids(job.results) for job in jobs_off]
        assert baseline.bytes_sent_total() == explicit.bytes_sent_total()
        assert baseline.messages_sent_total() == \
            explicit.messages_sent_total()


# ----------------------------------------------------------------------
# Under saturation: backoff, retransmission, identical results
# ----------------------------------------------------------------------

class TestSaturatedDispatch:
    def test_overflow_drops_are_retried_to_completion(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        jobs = run_burst(network)
        assert all(job.done for job in jobs)
        # The tight service model really overflowed...
        assert network.transport.queue_drops_total() > 0
        # ...and every drop was either retried or absorbed: no query
        # lost a probe.
        assert all(job.trace.dropped_count == 0 for job in jobs)
        assert network.runtime.retransmissions() > 0

    def test_window_reacts_to_congestion(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        run_burst(network)
        dispatcher = network.runtime.dispatcher(network.peer_ids()[0])
        assert dispatcher.cwnd is not None
        assert dispatcher.cwnd.drops > 0
        assert dispatcher.cwnd.decreases > 0
        # Decrease is per congestion event, never per drop.
        assert dispatcher.cwnd.decreases <= dispatcher.cwnd.drops

    def test_window_guard_seeded_before_first_ack(self):
        # Regression: without an RTT seed the once-per-RTT decrease
        # guard is vacuous (srtt=0) and a startup overflow burst —
        # drops before the first ack — halves the window once per drop.
        network = build_network(congestion_control=True)
        dispatcher = network.runtime.dispatcher(network.peer_ids()[0])
        assert dispatcher.cwnd.srtt == pytest.approx(
            network.config.congestion_retransmit_timeout)

    def test_results_match_uncontrolled_run(self):
        controlled = build_network(congestion_control=True,
                                   **TIGHT_SERVICE)
        uncontrolled = build_network(congestion_control=False,
                                     **TIGHT_SERVICE)
        jobs_aimd = run_burst(controlled)
        jobs_open = run_burst(uncontrolled)
        assert [doc_ids(job.results) for job in jobs_aimd] == \
            [doc_ids(job.results) for job in jobs_open]

    def test_retransmissions_surface_in_traces(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        jobs = run_burst(network)
        total = sum(job.trace.retransmissions for job in jobs)
        assert total > 0
        summary = jobs[0].trace.summary()
        assert "retransmissions" in summary

    def test_retransmission_budget_exhaustion_drops_probes(self):
        network = build_network(congestion_control=True,
                                congestion_max_retransmits=0,
                                **TIGHT_SERVICE)
        jobs = run_burst(network)
        assert all(job.done for job in jobs)
        # With no retries allowed, overflow drops become dropped probes.
        assert sum(job.trace.dropped_count for job in jobs) > 0

    def test_blind_retransmission_without_controller(self):
        network = build_network(congestion_control=False,
                                **TIGHT_SERVICE)
        jobs = run_burst(network)
        assert all(job.done for job in jobs)
        assert network.transport.queue_drops_total() > 0
        assert network.runtime.retransmissions() > 0
        assert all(job.trace.dropped_count == 0 for job in jobs)


# ----------------------------------------------------------------------
# A rejected LookupHop takes the dispatcher's one retransmit path
# ----------------------------------------------------------------------

#: A single-term query: one lookup, one probe.
HOT_TERM = ["peer"]


def reject_next_arrivals(monkeypatch, network, peer, count):
    """Make ``peer``'s service queue reject its next ``count`` arrivals
    as a full queue would (each counted as a drop and answered by an
    ``"overflow"`` nack), then serve normally."""
    target = network.transport._service_queue_for(peer)
    serve = type(target).offer
    left = [count]

    def offer(queue, task, on_overflow):
        if queue is target and left[0] > 0:
            left[0] -= 1
            queue.arrived += 1
            queue.dropped += 1
            on_overflow()
            return
        serve(queue, task, on_overflow)
    monkeypatch.setattr(type(target), "offer", offer)


def hop_test_network(**overrides):
    """An 8-peer network whose service queues never fill on their own,
    the hot key's owner, and an origin at least two hops from it."""
    settings = dict(batch_lookups=True, service_rate=1000.0,
                    queue_capacity=16)
    settings.update(overrides)
    network = AlvisNetwork(num_peers=8, config=AlvisConfig(**settings),
                           seed=42)
    network.distribute_documents(sample_documents())
    network.build_index(mode="hdk")
    key_id = Key(HOT_TERM).key_id
    owner = network.owner_peer_of_key(key_id)
    origin, path = next(
        (peer, hops) for peer in network.peer_ids()
        for hops in [network.ring.lookup_many(peer, [key_id])
                     .per_key_hops[key_id]] if hops >= 2)
    return network, owner, origin, path


class TestHopRejection:
    """The owner's queue rejects the lookup's last ``LookupHop``, sent by
    a node other than the origin: the window sees the drop, the
    dispatcher retries it under ``congestion_max_retransmits``, and a
    spent budget is a dropped probe, never an oracle owner."""

    def query(self, monkeypatch, rejections, **overrides):
        network, owner, origin, path = hop_test_network(**overrides)
        reject_next_arrivals(monkeypatch, network, owner, rejections)
        results, trace = network.query(origin, HOT_TERM)
        return network, origin, path, results, trace

    def reference(self, **overrides):
        network, _owner, origin, _path = hop_test_network(**overrides)
        return network.query(origin, HOT_TERM)

    def test_rejected_hop_reaches_window_and_is_resubmitted(
            self, monkeypatch):
        network, owner, origin, _path = hop_test_network(
            congestion_control=True)
        reject_next_arrivals(monkeypatch, network, owner, 1)
        dispatcher = network.runtime.dispatcher(origin)
        submitted = []
        submit = dispatcher._submit

        def record(send):
            submitted.append(type(send).__name__)
            submit(send)
        dispatcher._submit = record
        results, trace = network.query(origin, HOT_TERM)
        assert dispatcher.cwnd.drops == 1
        assert submitted == ["_PendingLookup", "_PendingLookup",
                             "_PendingProbe"]
        assert trace.dropped_count == 0
        reference_results, _trace = self.reference(congestion_control=True)
        assert doc_ids(results) == doc_ids(reference_results)

    @pytest.mark.parametrize("controlled", [False, True],
                             ids=["open", "aimd"])
    @pytest.mark.parametrize("batched", [False, True],
                             ids=["per-probe", "batched"])
    def test_lookup_retransmission_in_trace(self, monkeypatch, controlled,
                                            batched):
        network, _origin, _path, results, trace = self.query(
            monkeypatch, 1, congestion_control=controlled,
            batch_lookups=batched)
        assert trace.retransmissions == 1
        assert network.runtime.retransmissions() == 1
        assert trace.dropped_count == 0
        assert network.transport.queue_drops_total() == 1
        reference_results, _trace = self.reference(
            congestion_control=controlled, batch_lookups=batched)
        assert doc_ids(results) == doc_ids(reference_results)

    @pytest.mark.parametrize("controlled", [False, True],
                             ids=["open", "aimd"])
    def test_spent_budget_drops_probe_not_oracle(self, monkeypatch,
                                                 controlled):
        _network, _origin, _path, results, trace = self.query(
            monkeypatch, 1, congestion_control=controlled,
            congestion_max_retransmits=0)
        assert trace.dropped_count == 1
        assert results == []
        # The owner was never asked: no probe went out.
        assert "ProbeBatch" not in trace.bytes_by_kind
        assert trace.retransmissions == 0

    def test_retry_resumes_at_rejecting_node(self, monkeypatch):
        _network, _origin, path, _results, trace = self.query(
            monkeypatch, 1, congestion_control=True)
        # The routed path plus the one resent hop, not a second walk
        # from the origin.
        assert trace.lookup_hops == path + 1

    def test_ring_returns_rejected_frontier_and_resumes(self,
                                                       monkeypatch):
        network, owner, origin, path = hop_test_network()
        key_id = Key(HOT_TERM).key_id
        reject_next_arrivals(monkeypatch, network, owner, 1)
        simulator = network.simulator
        walk = simulator.spawn(network.ring.lookup_many_async(origin,
                                                              [key_id]))
        simulator.run()
        stopped = walk.result
        assert stopped.owners == {}
        assert stopped.messages == path
        [(sender, keys)] = stopped.rejected.items()
        assert sender != origin and keys == [key_id]
        resumed = simulator.spawn(network.ring.lookup_many_async(
            origin, [key_id], frontier=stopped.rejected))
        simulator.run()
        assert resumed.result.owners == {key_id: owner}
        assert resumed.result.messages == 1
        assert resumed.result.rejected == {}

    def test_open_loop_backoff_doubles_up_to_cap(self, monkeypatch):
        # Four rejections without the window: the retries wait 1, 2, 4
        # and 4 (the cap) retransmit timeouts.
        _network, _origin, _path, results, trace = self.query(
            monkeypatch, 4)
        _reference_results, reference = self.reference()
        timeout = AlvisConfig().congestion_retransmit_timeout
        assert trace.retransmissions == 4
        assert trace.dropped_count == 0
        waited = trace.latency - reference.latency
        assert 11 * timeout <= waited < 15 * timeout


# ----------------------------------------------------------------------
# Size-triggered dispatch flush
# ----------------------------------------------------------------------

class TestSizeTriggeredFlush:
    def test_window_worth_of_work_flushes_early(self):
        network = build_network(congestion_control=True,
                                dispatch_window=0.5,
                                congestion_initial_window=1.0)
        jobs = run_burst(network, copies=4)
        assert all(job.done for job in jobs)
        dispatcher = network.runtime.dispatcher(network.peer_ids()[0])
        assert dispatcher.early_flushes > 0

    def test_no_early_flush_without_controller(self):
        network = build_network(dispatch_window=0.05)
        run_burst(network, copies=4)
        dispatcher = network.runtime.dispatcher(network.peer_ids()[0])
        assert dispatcher.early_flushes == 0


class TestBacklogMerging:
    def test_backlogged_batches_for_one_owner_fuse(self):
        # Probe batches held back by a full window merge per owner:
        # keys deduplicated (counted as coalesced), participants joined.
        network = build_network(congestion_control=True)
        origin, owner = network.peer_ids()[:2]
        dispatcher = network.runtime.dispatcher(origin)
        while dispatcher.cwnd.can_send():
            dispatcher.cwnd.on_send()
        first, shared, last = Key(["alpha"]), Key(["beta"]), Key(["gamma"])
        waiters = [_ProbeWaiter([(first, owner), (shared, owner)], 0.0),
                   _ProbeWaiter([(shared, owner), (last, owner)], 0.0)]
        dispatcher._submit(_PendingProbe(owner=owner, keys=[first, shared],
                                         participants=[waiters[0]]))
        dispatcher._submit(_PendingProbe(owner=owner, keys=[shared, last],
                                         participants=[waiters[1]],
                                         attempts=2, sent_bytes=40))
        assert dispatcher.backlog == 1
        merged = dispatcher._backlog[0][2]
        assert merged.keys == [first, shared, last]
        assert merged.participants == waiters
        assert merged.attempts == 2
        assert merged.sent_bytes == 40
        assert dispatcher.coalesced_keys == 1

    def test_backlog_drains_oldest_query_first(self):
        # A probe of an older query overtakes lookups of newer queries
        # that reached the backlog before it; equal ages keep their
        # arrival order.
        network = build_network(congestion_control=True)
        origin, *owners = network.peer_ids()[:5]
        dispatcher = network.runtime.dispatcher(origin)
        while dispatcher.cwnd.can_send():
            dispatcher.cwnd.on_send()
        sends = [_PendingProbe(owner=owner, keys=[Key(["key"])],
                               participants=[_ProbeWaiter(
                                   [(Key(["key"]), owner)], since)])
                 for owner, since in zip(owners, (2.0, 2.0, 1.0, 3.0))]
        for send in sends:
            dispatcher._submit(send)
        drained = []
        dispatcher._dispatch = drained.append
        dispatcher.cwnd.outstanding = 0
        dispatcher.cwnd.window = len(sends)
        dispatcher._drain_backlog()
        assert drained == [sends[2], sends[0], sends[1], sends[3]]

    def test_merge_with_an_older_query_moves_forward(self):
        network = build_network(congestion_control=True)
        origin, first_owner, second_owner = network.peer_ids()[:3]
        dispatcher = network.runtime.dispatcher(origin)
        while dispatcher.cwnd.can_send():
            dispatcher.cwnd.on_send()

        def probe(owner, since):
            key = Key([f"key{owner}"])
            return _PendingProbe(owner=owner, keys=[key],
                                 participants=[_ProbeWaiter([(key, owner)],
                                                            since)])
        dispatcher._submit(probe(first_owner, 1.0))
        dispatcher._submit(probe(second_owner, 2.0))
        dispatcher._submit(probe(second_owner, 0.5))
        assert dispatcher.backlog == 2
        assert dispatcher._backlog[0][2].owner == second_owner
        assert dispatcher._backlog[0][2].since == 0.5


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

class TestMonitoring:
    def test_congestion_counters_in_snapshot(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        run_burst(network)
        snapshot = NetworkMonitor(network).snapshot()
        assert snapshot.congestion_queue_drops > 0
        assert snapshot.congestion_retransmissions > 0
        assert snapshot.congestion_window_mean > 0.0
        assert snapshot.congestion_window_decreases > 0
        assert snapshot.congestion_backlog == 0     # all drained
        flat = snapshot.as_dict()
        assert flat["congestion_queue_drops"] == \
            snapshot.congestion_queue_drops
        assert flat["congestion_window_mean"] == \
            snapshot.congestion_window_mean

    def test_dashboard_renders_congestion_line(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        run_burst(network)
        monitor = NetworkMonitor(network)
        rendered = monitor.render(monitor.snapshot())
        assert "congestion:" in rendered
        assert "cwnd" in rendered

    def test_quiet_without_congestion(self):
        network = build_network()
        network.query(network.peer_ids()[0], QUERIES[0])
        snapshot = NetworkMonitor(network).snapshot()
        assert snapshot.congestion_queue_drops == 0
        assert snapshot.congestion_retransmissions == 0
        assert "congestion:" not in NetworkMonitor(network).render(
            snapshot)

    def test_runtime_congestion_summary_shape(self):
        network = build_network(congestion_control=True, **TIGHT_SERVICE)
        run_burst(network)
        summary = network.runtime.congestion_summary()
        for field in ("retransmissions", "backlog", "early_flushes",
                      "window_mean", "window_min", "window_decreases"):
            assert field in summary
        assert summary["window_min"] <= summary["window_mean"]


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------

class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(congestion_initial_window=0.5),
        dict(congestion_initial_window=8.0, congestion_max_window=4.0),
        dict(congestion_max_retransmits=-1),
        dict(congestion_retransmit_timeout=0.0),
        dict(service_rate=-1.0),
        dict(queue_capacity=0),
        dict(service_reject_cost=-0.5),
    ])
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            AlvisConfig(**overrides)


# ----------------------------------------------------------------------
# The AIMD window
# ----------------------------------------------------------------------

class TestCongestionWindow:
    """The AIMD core each origin's dispatch queue runs."""

    def test_additive_increase_on_ack(self):
        window = CongestionWindow(initial=2.0, max_window=10.0)
        window.on_send()
        window.on_ack(now=0.0)
        assert window.window == pytest.approx(2.5)
        assert window.outstanding == 0
        assert window.acks == 1

    def test_can_send_respects_window(self):
        window = CongestionWindow(initial=2.0)
        assert window.can_send()
        window.on_send()
        window.on_send()
        assert not window.can_send()
        window.on_ack(now=0.0)
        assert window.can_send()

    def test_decrease_at_most_once_per_rtt(self):
        # A burst of drops inside one RTT is ONE congestion event.
        window = CongestionWindow(initial=16.0, initial_rtt=0.1)
        for _ in range(4):
            window.on_send()
        window.on_drop(now=1.0)
        window.on_drop(now=1.04)
        window.on_drop(now=1.09)
        assert window.window == pytest.approx(8.0)
        assert window.decreases == 1
        assert window.drops == 3
        # A drop one RTT later is a fresh congestion event.
        window.on_drop(now=1.11)
        assert window.window == pytest.approx(4.0)
        assert window.decreases == 2

    def test_window_floor_and_cap(self):
        window = CongestionWindow(initial=2.0, max_window=2.5,
                                  initial_rtt=0.1)
        window.on_send()
        window.on_ack(now=0.0)
        window.on_send()
        window.on_ack(now=0.0)
        assert window.window == pytest.approx(2.5)    # capped
        for step in range(5):
            window.on_send()
            window.on_drop(now=float(step))
        assert window.window == pytest.approx(1.0)    # floored

    def test_ack_and_drop_release_slots(self):
        window = CongestionWindow(initial=4.0)
        for _ in range(3):
            window.on_send()
        assert window.outstanding == 3
        window.on_ack(now=0.0)
        window.on_drop(now=0.0)
        assert window.outstanding == 1

    def test_srtt_learning(self):
        window = CongestionWindow(initial=2.0)
        window.on_send()
        window.on_ack(now=0.0, rtt_sample=0.2)
        assert window.srtt == pytest.approx(0.2)      # first sample seeds
        window.on_send()
        window.on_ack(now=0.0, rtt_sample=0.4)
        assert 0.2 < window.srtt < 0.4                # smoothed

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            CongestionWindow(initial=0.5)     # below the 1.0 floor
        with pytest.raises(ValueError):
            CongestionWindow(initial=8.0, max_window=4.0)

    def test_repr_reports_state(self):
        window = CongestionWindow(initial=2.0, initial_rtt=0.1)
        window.on_send()
        window.on_send()
        window.on_drop(now=1.0)
        assert repr(window) == ("CongestionWindow(window=1.00, "
                                "outstanding=1, acks=0, drops=1, "
                                "decreases=1)")


# ----------------------------------------------------------------------
# E8's shape at tiny size
# ----------------------------------------------------------------------

class TestE8Shape:
    """One origin, one hot key, per-probe traffic: a broken controller
    fails here, not only in a benchmark run.  Goodput counts only the
    queries answered while arrivals last, so a controller that keeps the
    owner busy but finishes its queries late fails too."""

    @pytest.fixture(scope="class")
    def sweep(self):
        hot = hot_key(1234)
        # The owner serves the lookup's last hop and the probe.
        assert hot.owner_messages == 2
        points = {load: {controlled: overload_point(
            hot, load, span=2.0, congestion_control=controlled)
            for controlled in (False, True)} for load in (0.5, 5.0)}
        return hot.capacity, hot.top_k, points

    def test_below_saturation_both_disciplines_keep_up(self, sweep):
        capacity, top_k, points = sweep
        for point in points[0.5].values():
            assert point["offered"] < capacity
            assert point["queue_drops"] == 0
            assert point["lost_probes"] == 0
            assert point["results"] == {top_k}
        assert points[0.5][False]["goodput"] == pytest.approx(
            points[0.5][True]["goodput"])

    def test_far_past_saturation_aimd_avoids_collapse(self, sweep):
        capacity, top_k, points = sweep
        open_loop, aimd = points[5.0][False], points[5.0][True]
        assert open_loop["waste"] > 0.5
        assert aimd["waste"] < 0.2
        assert aimd["goodput"] >= 0.8 * capacity
        assert aimd["goodput"] > 2 * open_loop["goodput"]
        assert aimd["lost_probes"] == 0
        assert aimd["results"] == {top_k}
        assert aimd["queue_drops"] > 0
        assert aimd["window_decreases"] > 0
