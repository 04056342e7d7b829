"""Tests for the congestion-control model (experiment E8's machinery)."""

import pytest

from repro.dht.congestion import (
    AimdSender,
    CongestionConfig,
    CongestionWindow,
    QueueingNode,
    UncontrolledSender,
)
from repro.sim.events import Simulator


def _setup(service_rate=100.0, queue_capacity=10):
    simulator = Simulator()
    config = CongestionConfig(service_rate=service_rate,
                              queue_capacity=queue_capacity,
                              network_delay=0.005)
    node = QueueingNode(simulator, config)
    return simulator, config, node


class TestQueueingNode:
    def test_single_request_completes(self):
        simulator, _config, node = _setup()
        done = []
        node.offer(lambda: done.append(1), lambda: done.append("drop"))
        simulator.run()
        assert done == [1]
        assert node.completed == 1
        assert node.dropped == 0

    def test_service_rate_paces_completions(self):
        simulator, _config, node = _setup(service_rate=10.0)
        finish_times = []
        for _ in range(3):
            node.offer(lambda: finish_times.append(simulator.now),
                       lambda: None)
        simulator.run()
        assert finish_times == pytest.approx([0.1, 0.2, 0.3])

    def test_queue_overflow_drops(self):
        simulator, _config, node = _setup(queue_capacity=2)
        drops = []
        completions = []
        # The server is idle, so the first offer starts service and the
        # queue holds the next two; the rest are dropped.
        for index in range(6):
            node.offer(lambda: completions.append(1),
                       lambda index=index: drops.append(index))
        assert node.dropped == 3
        simulator.run()
        assert len(completions) == 3
        assert drops == [3, 4, 5]

    def test_arrival_counter(self):
        _simulator, _config, node = _setup()
        for _ in range(4):
            node.offer(lambda: None, lambda: None)
        assert node.arrived == 4


class TestUncontrolledSender:
    def test_below_capacity_no_drops(self):
        simulator, config, node = _setup(service_rate=200.0,
                                         queue_capacity=50)
        sender = UncontrolledSender(simulator, node, config,
                                    offered_rate=100.0)
        sender.start(duration=1.0)
        simulator.run()
        assert node.dropped == 0
        assert sender.acked == sender.sent

    def test_overload_causes_drops_and_retransmissions(self):
        simulator, config, node = _setup(service_rate=50.0,
                                         queue_capacity=5)
        sender = UncontrolledSender(simulator, node, config,
                                    offered_rate=500.0)
        sender.start(duration=1.0)
        simulator.run_until(3.0)
        assert node.dropped > 0
        assert sender.retransmissions > 0

    def test_invalid_rate_rejected(self):
        simulator, config, node = _setup()
        with pytest.raises(ValueError):
            UncontrolledSender(simulator, node, config, offered_rate=0)


class TestAimdSender:
    def test_workload_fully_delivered(self):
        simulator, config, node = _setup(service_rate=100.0,
                                         queue_capacity=8)
        sender = AimdSender(simulator, node, config, workload=200)
        finished = []
        sender.start(on_finished=lambda: finished.append(simulator.now))
        simulator.run()
        assert sender.acked == 200
        assert sender.pending == 0
        assert sender.outstanding == 0
        assert len(finished) == 1

    def test_no_work_lost_despite_drops(self):
        simulator, config, node = _setup(service_rate=30.0,
                                         queue_capacity=2)
        sender = AimdSender(simulator, node, config, workload=100)
        sender.start()
        simulator.run()
        assert sender.acked == 100  # every drop was retried

    def test_window_decreases_on_drop(self):
        simulator, config, node = _setup(service_rate=20.0,
                                         queue_capacity=1)
        sender = AimdSender(simulator, node, config, workload=50)
        sender.start()
        simulator.run_until(0.2)
        if sender.drops:
            assert sender.window < config.max_window

    def test_window_never_below_one(self):
        simulator, config, node = _setup(service_rate=5.0,
                                         queue_capacity=1)
        sender = AimdSender(simulator, node, config, workload=60)
        sender.start()
        simulator.run()
        assert sender.window >= 1.0
        assert sender.acked == 60

    def test_goodput_tracks_service_capacity(self):
        # The controlled sender should keep the server busy: completion
        # time ~ workload / service_rate.
        simulator, config, node = _setup(service_rate=100.0,
                                         queue_capacity=10)
        sender = AimdSender(simulator, node, config, workload=300)
        end = []
        sender.start(on_finished=lambda: end.append(simulator.now))
        simulator.run()
        ideal = 300 / 100.0
        assert end[0] < ideal * 1.5

    def test_invalid_workload_rejected(self):
        simulator, config, node = _setup()
        with pytest.raises(ValueError):
            AimdSender(simulator, node, config, workload=0)


class TestCongestionCollapseContrast:
    def test_aimd_beats_uncontrolled_under_overload(self):
        """The E8 headline: under heavy overload, AIMD sustains goodput
        while the open-loop sender collapses into retransmission churn."""
        duration = 2.0
        # Uncontrolled at 10x capacity.
        sim_u, config_u, node_u = _setup(service_rate=50.0,
                                         queue_capacity=5)
        uncontrolled = UncontrolledSender(sim_u, node_u, config_u,
                                          offered_rate=500.0)
        uncontrolled.start(duration)
        sim_u.run_until(duration)
        uncontrolled_goodput = node_u.completed / duration
        waste_ratio = node_u.dropped / max(1, node_u.arrived)
        # AIMD with the same capacity and more than enough work.
        sim_c, config_c, node_c = _setup(service_rate=50.0,
                                         queue_capacity=5)
        controlled = AimdSender(sim_c, node_c, config_c, workload=1000)
        controlled.start()
        sim_c.run_until(duration)
        controlled_goodput = node_c.completed / duration
        controlled_waste = node_c.dropped / max(1, node_c.arrived)
        assert controlled_goodput >= 0.8 * 50.0
        assert controlled_waste < waste_ratio


class TestCongestionWindow:
    """The reusable AIMD core (also grafted onto the query runtime)."""

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

    def test_trajectory_recorded(self):
        window = CongestionWindow(initial=2.0, initial_rtt=0.1)
        window.on_send()
        window.on_ack(now=1.0)
        window.on_send()
        window.on_drop(now=2.0)
        times = [time for time, _w in window.trajectory]
        assert times == [1.0, 2.0]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            CongestionWindow(initial=0.5, min_window=1.0)
        with pytest.raises(ValueError):
            CongestionWindow(initial=8.0, max_window=4.0)


class TestDropNotificationDelay:
    """Regression: the drop signal must travel back one network delay,
    not fire instantly at the node (senders must not learn of drops
    faster than of acks)."""

    def test_drop_callback_pays_network_delay(self):
        simulator, config, node = _setup(queue_capacity=1)
        node.offer(lambda: None, lambda: None)      # enters service
        node.offer(lambda: None, lambda: None)      # queued
        drop_times = []
        node.offer(lambda: None,
                   lambda: drop_times.append(simulator.now))
        # Counted at the node immediately, but the sender has not
        # heard yet.
        assert node.dropped == 1
        assert drop_times == []
        simulator.run()
        assert drop_times == pytest.approx([config.network_delay])


class TestAimdBurstCoalescing:
    """Regression: a burst of same-instant drops must halve the window
    once (one congestion event per RTT) and schedule ONE refill, not one
    per drop."""

    def _burst_setup(self, service_rate):
        simulator = Simulator()
        config = CongestionConfig(service_rate=service_rate,
                                  queue_capacity=1, network_delay=0.05,
                                  initial_window=8.0)
        node = QueueingNode(simulator, config)
        sender = AimdSender(simulator, node, config, workload=8)
        return simulator, config, node, sender

    def test_burst_drops_are_one_congestion_event(self):
        simulator, _config, node, sender = self._burst_setup(10.0)
        sender.start()
        # 8 sends arrive together at 0.05: one serves, one queues, six
        # drop; the drop signals land at 0.10, before any ack (0.20).
        simulator.run_until(0.16)
        assert sender.drops == 6
        assert sender.window == pytest.approx(4.0)   # halved ONCE

    def test_burst_refill_is_coalesced(self):
        simulator, _config, node, sender = self._burst_setup(1.0)
        sender.start()
        pumps = []
        original_pump = sender._pump

        def counting_pump():
            pumps.append(simulator.now)
            original_pump()

        sender._pump = counting_pump
        # Service takes 1s, so the only pump before 0.25 is what the
        # six same-instant drops (signalled at 0.10) scheduled for
        # 0.20 — coalesced into exactly one.
        simulator.run_until(0.25)
        assert sender.drops == 6
        assert len(pumps) == 1

    def test_work_conserved_through_burst(self):
        simulator, _config, node, sender = self._burst_setup(10.0)
        sender.start()
        simulator.run()
        assert sender.acked == 8
        assert sender.pending == 0


class TestUncontrolledCounters:
    """Regression: ``sent`` must count fresh sends only (the offered
    load), with retransmissions split out, and the scheduled send count
    must round rather than truncate."""

    def test_fractional_rate_rounds(self):
        simulator, config, node = _setup()
        sender = UncontrolledSender(simulator, node, config,
                                    offered_rate=2.9)
        sender.start(duration=1.0)
        simulator.run()
        assert sender.sent == 3          # round(2.9), not int() -> 2

    def test_sent_excludes_retransmissions(self):
        simulator, config, node = _setup(service_rate=50.0,
                                         queue_capacity=5)
        sender = UncontrolledSender(simulator, node, config,
                                    offered_rate=500.0)
        sender.start(duration=1.0)
        simulator.run()
        assert sender.sent == 500        # the offered load, exactly
        assert sender.retransmissions > 0
        assert sender.transmissions == \
            sender.sent + sender.retransmissions
        # Every fresh request was eventually delivered via retries.
        assert sender.acked == 500
