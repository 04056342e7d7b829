"""Congestion control for the DHT (experiment E8).

The paper integrates the congestion controller of Klemm, Le Boudec and
Aberer (*Congestion Control for Distributed Hash Tables*, NCA 2006) "to
efficiently handle the large amounts of messages generated by the
information retrieval application and to prevent the DHT from congestion
collapses".

The model here captures the phenomenon end to end:

* a :class:`QueueingNode` services requests at a bounded rate with a
  bounded queue — overflow means a drop, and the drop *signal* travels
  back to the sender with one network delay, like the acks do;
* an uncontrolled sender pushes requests at its offered rate and blindly
  retransmits drops after a timeout, so past saturation the retransmission
  load compounds and *goodput collapses*;
* an :class:`AimdSender` keeps a congestion window (additive increase on
  ack, multiplicative decrease at most once per RTT on congestion), which
  keeps the queue stable and goodput at the service capacity.

:class:`CongestionWindow` is the reusable core of the controller: the
async query runtime (:mod:`repro.core.runtime`) grafts the same window
onto each origin's dispatch queue (``config.congestion_control``), so
the machinery validated by E8 is what actually throttles retrieval
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Optional
import collections

from repro.sim.events import Simulator

__all__ = ["CongestionConfig", "CongestionWindow", "QueueingNode",
           "AimdSender", "UncontrolledSender"]


@dataclass
class CongestionConfig:
    """Tunables shared by the congestion experiments."""

    service_rate: float = 200.0      #: requests the node completes per second
    queue_capacity: int = 50         #: max queued requests before drops
    network_delay: float = 0.02      #: one-way sender<->node delay (seconds)
    retransmit_timeout: float = 0.5  #: uncontrolled sender's retry delay
    initial_window: float = 2.0      #: AIMD initial congestion window
    max_window: float = 256.0        #: AIMD window cap


class CongestionWindow:
    """A reusable AIMD congestion window (the NCA'06 / TCP-Reno core).

    Tracks how many requests are outstanding against a real-valued
    window: acks open the window additively (+1 per window's worth of
    acks), congestion signals halve it — but, per TCP semantics, at most
    once per RTT: a burst of drops from one overflowing queue is *one*
    congestion event, not ``n`` independent ones.  The RTT used for the
    once-per-RTT guard is a smoothed estimate fed by ack samples (seeded
    with ``initial_rtt`` so the guard works before the first ack).

    The window never goes below ``min_window``, so a gated sender always
    makes progress.  ``trajectory`` records ``(time, window)`` after
    every change, bounded to the most recent ``trajectory_limit`` points
    — the measurement hook for the congestion benchmarks.
    """

    __slots__ = ("window", "min_window", "max_window", "outstanding",
                 "acks", "drops", "decreases", "srtt", "trajectory",
                 "trajectory_limit", "_last_decrease")

    def __init__(self, initial: float = 2.0, max_window: float = 256.0,
                 min_window: float = 1.0, initial_rtt: float = 0.0,
                 trajectory_limit: int = 2048):
        if initial < min_window:
            raise ValueError(
                f"initial window {initial} below min_window {min_window}")
        if max_window < initial:
            raise ValueError(
                f"max_window {max_window} below initial window {initial}")
        self.window = float(initial)
        self.min_window = float(min_window)
        self.max_window = float(max_window)
        self.outstanding = 0
        self.acks = 0
        self.drops = 0
        self.decreases = 0            #: congestion events (not raw drops)
        self.srtt = float(initial_rtt)
        self.trajectory: Deque = collections.deque(maxlen=trajectory_limit)
        self.trajectory_limit = trajectory_limit
        self._last_decrease: Optional[float] = None

    # ------------------------------------------------------------------

    def can_send(self) -> bool:
        """True when the window admits another outstanding request."""
        return self.outstanding < self.window

    def on_send(self) -> None:
        """Register one request entering the network."""
        self.outstanding += 1

    def on_ack(self, now: float = 0.0,
               rtt_sample: Optional[float] = None) -> None:
        """One request acknowledged: release its slot, open the window."""
        self.outstanding -= 1
        self.acks += 1
        if rtt_sample is not None and rtt_sample > 0:
            # Jacobson-style smoothing; first sample seeds the estimate.
            self.srtt = (rtt_sample if self.srtt <= 0 else
                         0.875 * self.srtt + 0.125 * rtt_sample)
        self.window = min(self.max_window,
                          self.window + 1.0 / max(self.window, 1.0))
        self.trajectory.append((now, self.window))

    def on_drop(self, now: float = 0.0) -> None:
        """One request dropped: release its slot; decrease at most once
        per smoothed RTT (a drop burst is one congestion event)."""
        self.outstanding -= 1
        self.drops += 1
        if (self._last_decrease is None
                or now - self._last_decrease >= self.srtt):
            self.window = max(self.min_window, self.window / 2.0)
            self.decreases += 1
            self._last_decrease = now
            self.trajectory.append((now, self.window))

    def __repr__(self) -> str:
        return (f"CongestionWindow(window={self.window:.2f}, "
                f"outstanding={self.outstanding}, acks={self.acks}, "
                f"drops={self.drops}, decreases={self.decreases})")


class QueueingNode:
    """A DHT node modelled as a finite FIFO queue with a fixed service rate.

    The transport keeps a sibling of this model
    (``repro.net.transport._ServiceQueue``, per-endpoint, with
    reject-cost accounting) that cannot import this one without a
    package cycle (``repro.dht`` pulls in the ring, which pulls in the
    transport) — behavioural changes here usually belong there too.
    """

    def __init__(self, simulator: Simulator, config: CongestionConfig,
                 name: str = "node"):
        self.simulator = simulator
        self.config = config
        self.name = name
        self._queue: Deque = collections.deque()
        self._busy = False
        self.completed = 0
        self.dropped = 0
        self.arrived = 0

    @property
    def queue_length(self) -> int:
        """Requests currently waiting (excluding the one in service)."""
        return len(self._queue)

    def offer(self, completion_callback, drop_callback) -> None:
        """Submit one request.

        ``completion_callback()`` fires when the request finishes service;
        ``drop_callback()`` fires when the queue is full — scheduled one
        ``network_delay`` later, because the drop signal has to travel
        back to the sender just like an ack does (an instant drop
        notification would let controlled senders react faster than the
        physics of the model allows).
        """
        self.arrived += 1
        if len(self._queue) >= self.config.queue_capacity:
            self.dropped += 1
            self.simulator.schedule(self.config.network_delay,
                                    drop_callback)
            return
        self._queue.append(completion_callback)
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        callback = self._queue.popleft()
        service_time = 1.0 / self.config.service_rate

        def finish() -> None:
            self.completed += 1
            callback()
            self._serve_next()

        self.simulator.schedule(service_time, finish)


class UncontrolledSender:
    """Open-loop sender: fixed offered rate, blind timeout retransmission.

    This is the behaviour whose breakdown motivates the NCA'06 controller:
    above saturation every drop re-enters the system later, so the offered
    load only grows and useful throughput falls.

    ``sent`` counts *fresh* sends only (the offered load);
    ``retransmissions`` counts the retries; ``transmissions`` is their
    sum — what actually hit the wire.
    """

    def __init__(self, simulator: Simulator, node: QueueingNode,
                 config: CongestionConfig, offered_rate: float):
        if offered_rate <= 0:
            raise ValueError(f"offered_rate must be > 0, got {offered_rate}")
        self.simulator = simulator
        self.node = node
        self.config = config
        self.offered_rate = offered_rate
        self.acked = 0
        self.sent = 0
        self.retransmissions = 0

    @property
    def transmissions(self) -> int:
        """Total wire transmissions (fresh sends plus retries)."""
        return self.sent + self.retransmissions

    def start(self, duration: float) -> None:
        """Schedule the full open-loop request stream for ``duration``."""
        interval = 1.0 / self.offered_rate
        count = round(duration * self.offered_rate)
        for index in range(count):
            self.simulator.schedule_at(
                self.simulator.now + index * interval, self._send_one)

    def _send_one(self, retransmit: bool = False) -> None:
        if retransmit:
            self.retransmissions += 1
        else:
            self.sent += 1

        def on_complete() -> None:
            # Ack travels back one network delay later.
            self.simulator.schedule(self.config.network_delay,
                                    self._on_ack)

        def on_drop() -> None:
            self.simulator.schedule(self.config.retransmit_timeout,
                                    lambda: self._send_one(retransmit=True))

        self.simulator.schedule(
            self.config.network_delay,
            lambda: self.node.offer(on_complete, on_drop))

    def _on_ack(self) -> None:
        self.acked += 1


class AimdSender:
    """Closed-loop sender built on :class:`CongestionWindow`.

    Mirrors the NCA'06 design at the level relevant to E8: the window
    bounds outstanding requests; acks open it additively (one unit per
    window's worth of acks); a congestion event halves it — at most once
    per RTT, so a burst of drops from one queue overflow is a single
    decrease.  Dropped requests return to the ``pending`` pool (a plain
    counter — the work is retried, not reordered) and the window refill
    after a drop burst is coalesced into one backoff of one RTT.
    """

    def __init__(self, simulator: Simulator, node: QueueingNode,
                 config: CongestionConfig, workload: int):
        if workload <= 0:
            raise ValueError(f"workload must be > 0, got {workload}")
        self.simulator = simulator
        self.node = node
        self.config = config
        self.pending = workload          #: requests not yet sent
        self.cwnd = CongestionWindow(
            initial=config.initial_window, max_window=config.max_window,
            initial_rtt=2.0 * config.network_delay)
        self._refill_scheduled = False
        self._finished_callback = None

    # -- CongestionWindow views (kept for the E8 tables and tests) -----

    @property
    def window(self) -> float:
        return self.cwnd.window

    @property
    def outstanding(self) -> int:
        return self.cwnd.outstanding

    @property
    def acked(self) -> int:
        return self.cwnd.acks

    @property
    def drops(self) -> int:
        return self.cwnd.drops

    # ------------------------------------------------------------------

    def start(self, on_finished=None) -> None:
        """Begin transmitting; ``on_finished()`` fires after the last ack."""
        self._finished_callback = on_finished
        self._pump()

    def _pump(self) -> None:
        self._refill_scheduled = False
        while self.pending > 0 and self.cwnd.can_send():
            self.pending -= 1
            self.cwnd.on_send()
            self._transmit()

    def _transmit(self) -> None:
        def on_complete() -> None:
            self.simulator.schedule(self.config.network_delay, self._on_ack)

        def on_drop() -> None:
            self._on_drop()

        self.simulator.schedule(
            self.config.network_delay,
            lambda: self.node.offer(on_complete, on_drop))

    def _on_ack(self) -> None:
        self.cwnd.on_ack(self.simulator.now,
                         rtt_sample=2.0 * self.config.network_delay)
        if self.pending == 0 and self.cwnd.outstanding == 0:
            if self._finished_callback is not None:
                self._finished_callback()
            return
        self._pump()

    def _on_drop(self) -> None:
        # Multiplicative decrease (at most once per RTT inside the
        # window), then return the request to the pending pool.
        self.cwnd.on_drop(self.simulator.now)
        self.pending += 1
        # Back off for one RTT before refilling the window; a burst of
        # drops coalesces into a single scheduled refill.
        if not self._refill_scheduled:
            self._refill_scheduled = True
            rtt = 2.0 * self.config.network_delay
            self.simulator.schedule(rtt, self._pump)
