"""Tests for the simulation kernel (clock, events, metrics)."""

import random

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue, Simulator
from repro.sim.metrics import MetricsRegistry


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_backwards_rejected(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_advance_by(self):
        clock = VirtualClock(1.0)
        clock.advance_by(2.0)
        assert clock.now == 3.0

    def test_advance_by_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance_by(-0.1)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert order == ["a", "b", "c"]

    def test_fifo_tiebreak_at_same_time(self):
        queue = EventQueue()
        order = []
        for label in "abc":
            queue.push(1.0, lambda label=label: order.append(label))
        while queue:
            queue.pop().callback()
        assert order == ["a", "b", "c"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append(1))
        event.cancel()
        assert queue.pop() is None
        assert fired == []

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(4.0, lambda: None)
        first = queue.push(2.0, lambda: None)
        assert queue.peek_time() == 2.0
        first.cancel()
        assert queue.peek_time() == 4.0

    def test_live_counter_tracks_push_pop_cancel(self):
        queue = EventQueue()
        events = [queue.push(float(index), lambda: None)
                  for index in range(5)]
        assert len(queue) == 5
        events[1].cancel()
        events[3].cancel()
        assert len(queue) == 3
        assert queue.pop() is events[0]
        assert len(queue) == 2
        # Popping skips the cancelled events without re-counting them.
        assert queue.pop() is events[2]
        assert queue.pop() is events[4]
        assert len(queue) == 0
        assert not queue
        assert queue.pop() is None

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_counter(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is event
        event.cancel()                   # already executed: no-op
        assert len(queue) == 1

    def test_peek_past_cancelled_keeps_counter(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0  # lazily drops the cancelled head
        assert len(queue) == 1


class TestPushMany:
    def test_preserves_fifo_order_at_same_time(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("x"))
        queue.push_many([(1.0, lambda label=label: order.append(label))
                         for label in "abc"])
        while queue:
            queue.pop().callback()
        assert order == ["x", "a", "b", "c"]

    def test_interleaves_with_push(self):
        queue = EventQueue()
        handles = queue.push_many([(3.0, lambda: None), (1.0, lambda: None)])
        single = queue.push(2.0, lambda: None)
        assert len(queue) == 3
        assert queue.pop() is handles[1]
        assert queue.pop() is single
        assert queue.pop() is handles[0]

    def test_bulk_handles_cancellable(self):
        queue = EventQueue()
        handles = queue.push_many([(float(i), lambda: None)
                                   for i in range(4)])
        handles[0].cancel()
        handles[2].cancel()
        assert len(queue) == 2
        assert queue.pop() is handles[1]
        assert queue.pop() is handles[3]

    def test_empty_batch(self):
        queue = EventQueue()
        assert queue.push_many([]) == []
        assert len(queue) == 0

    def test_large_batch_onto_small_heap(self):
        # Exercises the heapify branch (batch >= heap size).
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        queue.push_many([(float(i), lambda: None) for i in (9, 1, 7, 3)])
        times = []
        while queue:
            times.append(queue.pop().time)
        assert times == [1.0, 3.0, 5.0, 7.0, 9.0]


class TestPopBatch:
    def test_pops_in_time_order_up_to_limit(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(5)]
        batch = queue.pop_batch(3)
        assert batch == handles[:3]
        assert len(queue) == 2

    def test_skips_cancelled(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(4)]
        handles[0].cancel()
        handles[2].cancel()
        assert queue.pop_batch(10) == [handles[1], handles[3]]
        assert len(queue) == 0


class TestCancelStress:
    """Interleaved cancel/push/pop/peek must keep the live counter and
    delivery order exact (regression for the duplicated lazy-deletion
    paths in ``pop``/``peek_time``)."""

    def test_randomized_interleaving_matches_reference(self):
        rng = random.Random(0xA1B2)
        queue = EventQueue()
        live = {}          # sequence -> event  (reference live set)
        popped = []
        for step in range(5000):
            action = rng.random()
            if action < 0.45 or not live:
                time = round(rng.uniform(0.0, 100.0), 3)
                if rng.random() < 0.2:
                    events = queue.push_many(
                        [(time + 0.001 * i, lambda: None)
                         for i in range(rng.randint(1, 4))])
                else:
                    events = [queue.push(time, lambda: None)]
                for event in events:
                    live[event.sequence] = event
            elif action < 0.70:
                victim = live.pop(rng.choice(list(live)))
                victim.cancel()
                victim.cancel()  # double cancel must be a no-op
            elif action < 0.90:
                event = queue.pop()
                if event is None:
                    assert not live
                else:
                    expected = min(
                        live.values(),
                        key=lambda entry: (entry.time, entry.sequence))
                    assert event is expected
                    del live[event.sequence]
                    popped.append(event)
                    if rng.random() < 0.3:
                        event.cancel()  # cancel-after-pop is a no-op
            else:
                peeked = queue.peek_time()
                if live:
                    assert peeked == min(
                        (entry.time, entry.sequence)
                        for entry in live.values())[0]
                else:
                    assert peeked is None
            assert len(queue) == len(live)
        # Drain: the survivors come out in exact (time, sequence) order.
        remaining = sorted(live.values(),
                           key=lambda entry: (entry.time, entry.sequence))
        drained = []
        while queue:
            drained.append(queue.pop())
        assert drained == remaining
        assert queue.pop() is None
        assert queue.peek_time() is None
        assert len(queue) == 0


class TestSimulator:
    def test_run_to_exhaustion(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(0.5, lambda: fired.append(sim.now))
        count = sim.run()
        assert count == 2
        assert fired == [0.5, 1.0]
        assert sim.now == 1.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_limits(self):
        sim = Simulator()
        for index in range(10):
            sim.schedule(float(index), lambda: None)
        assert sim.run(max_events=4) == 4
        assert len(sim.queue) == 6

    def test_run_until_parks_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(5.0, lambda: fired.append("late"))
        processed = sim.run_until(2.0)
        assert processed == 1
        assert fired == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["early", "late"]
        assert sim.events_processed == 2   # both loops feed the counter

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_cancelled_events_skipped_by_fast_loop(self):
        sim = Simulator()
        fired = []
        doomed = sim.schedule(0.5, lambda: fired.append("doomed"))
        sim.schedule(1.0, lambda: fired.append("kept"))
        doomed.cancel()
        assert sim.run(max_events=5) == 1
        assert fired == ["kept"]

    def test_run_until_fast_loop_skips_cancelled_past_end(self):
        sim = Simulator()
        fired = []
        early = sim.schedule(0.5, lambda: fired.append("early"))
        sim.schedule(1.0, lambda: fired.append("mid"))
        sim.schedule(5.0, lambda: fired.append("late"))
        early.cancel()
        assert sim.run_until(2.0) == 1
        assert fired == ["mid"]
        assert sim.now == 2.0

    def test_wall_clock_throughput_counters(self):
        sim = Simulator()
        for index in range(100):
            sim.schedule(float(index), lambda: None)
        assert sim.wall_seconds == 0.0
        assert sim.events_per_sec == 0.0
        sim.run()
        assert sim.wall_seconds > 0.0
        assert sim.events_per_sec > 0.0
        assert sim.events_processed == 100


class TestMetricsRegistry:
    def test_counter_creation_and_increment(self):
        registry = MetricsRegistry()
        registry.counter("a.b").increment()
        registry.counter("a.b").increment(2.5)
        assert registry.counter_value("a.b") == 3.5

    def test_counter_default(self):
        assert MetricsRegistry().counter_value("missing", -1.0) == -1.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").increment(-1)

    def test_prefix_queries(self):
        registry = MetricsRegistry()
        registry.counter("net.bytes.a").increment(10)
        registry.counter("net.bytes.b").increment(5)
        registry.counter("other").increment(100)
        assert registry.total_with_prefix("net.bytes.") == 15
        assert set(registry.counters_with_prefix("net.bytes.")) == {
            "net.bytes.a", "net.bytes.b"}

    def test_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert len(histogram) == 3
        assert histogram.summary()["mean"] == pytest.approx(2.0)

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("x").increment()
        registry.histogram("y").observe(1.0)
        registry.reset()
        assert registry.counter_value("x") == 0.0
        assert registry.snapshot() == {}

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("x").increment(7)
        assert registry.snapshot() == {"x": 7.0}
