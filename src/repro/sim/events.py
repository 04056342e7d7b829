"""Event queue and simulator driver.

A classic discrete-event loop: events are (time, sequence, callback)
entries ordered by time with a FIFO tiebreak, so same-timestamp events
run in scheduling order and the simulation is fully deterministic.

The kernel is the innermost loop of every benchmark, so the
:class:`Event`/:class:`EventQueue` pair is written for raw speed:

* ``Event`` is a ``__slots__`` class with a hand-rolled ``__lt__`` over
  the packed ``(time, sequence)`` pair — no dataclass tuple comparison,
  no per-event ``__dict__``, no bound-method cancel hook.
* Lazy deletion of cancelled events lives in exactly one place
  (:meth:`EventQueue._purge_cancelled_head`), shared by ``pop`` and
  ``peek_time``; cancel bookkeeping is a single back-pointer write.
* ``push_many``/``pop_batch`` amortise heap maintenance for bulk
  scheduling, and :class:`Simulator` runs an inlined loop (local heap
  aliases, direct clock writes) over the queue's raw heap.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import (Any, Callable, Generator, Iterable, List, Optional,
                    Tuple, TYPE_CHECKING)

from repro.sim.clock import VirtualClock
from repro.sim.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.procs import Proc

__all__ = ["Event", "EventQueue", "Simulator"]


class Event:
    """A scheduled callback.

    Ordering compares the packed ``(time, sequence)`` pair only; the
    callback is excluded.  ``_queue`` is a back-pointer to the owning
    queue while the event sits on its heap — it is how ``cancel``
    maintains the queue's live counter in O(1) without a per-event
    closure — and is cleared once the event pops (so cancelling an
    already-executed event is a no-op that cannot corrupt the counter).
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "_queue")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[[], None],
                 queue: Optional["EventQueue"] = None):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._queue = queue

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __le__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence <= other.sequence

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._live -= 1
            self._queue = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return (f"Event(time={self.time!r}, sequence={self.sequence}, "
                f"{state})")


class EventQueue:
    """Min-heap of :class:`Event` objects.

    Keeps a live non-cancelled counter so ``len``/``bool`` — called from
    hot simulation loops — are O(1) instead of a full heap scan.
    Cancelled events stay on the heap (lazy deletion) and are purged in
    one shared code path when they reach the head.
    """

    __slots__ = ("_heap", "_sequence", "_live")

    def __init__(self):
        self._heap: List[Event] = []
        self._sequence = 0
        self._live = 0

    def push(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at ``time`` and return its handle."""
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, self)
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def push_many(self, entries: Iterable[Tuple[float, Callable[[], None]]]
                  ) -> List[Event]:
        """Bulk-schedule ``(time, callback)`` pairs; returns the handles.

        Sequence numbers are assigned in iteration order, so same-time
        entries keep FIFO semantics exactly as repeated ``push`` calls
        would.  When the batch is large relative to the heap the whole
        heap is re-heapified in O(n + k) instead of k * O(log n) pushes.
        """
        sequence = self._sequence
        queue_ref = self
        events = [Event(time, sequence + offset, callback, queue_ref)
                  for offset, (time, callback) in enumerate(entries)]
        self._sequence = sequence + len(events)
        self._live += len(events)
        heap = self._heap
        if len(events) * 4 >= len(heap):
            heap.extend(events)
            heapq.heapify(heap)
        else:
            for event in events:
                heapq.heappush(heap, event)
        return events

    def _purge_cancelled_head(self) -> None:
        """Drop cancelled events from the heap head (the one lazy-deletion
        path, shared by ``pop`` and ``peek_time``)."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` when empty."""
        self._purge_cancelled_head()
        heap = self._heap
        if not heap:
            return None
        event = heapq.heappop(heap)
        # Detach the queue back-pointer: cancelling an already-executed
        # event must not corrupt the live counter.
        event._queue = None
        self._live -= 1
        return event

    def pop_batch(self, max_count: int) -> List[Event]:
        """Pop up to ``max_count`` live events in time order."""
        events: List[Event] = []
        heap = self._heap
        heappop = heapq.heappop
        while heap and len(events) < max_count:
            event = heappop(heap)
            if event.cancelled:
                continue
            event._queue = None
            events.append(event)
        self._live -= len(events)
        return events

    def peek_time(self) -> Optional[float]:
        """Return the time of the earliest pending event without popping."""
        self._purge_cancelled_head()
        heap = self._heap
        if not heap:
            return None
        return heap[0].time

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class Simulator:
    """Drives the virtual clock through the event queue.

    The simulator is intentionally tiny: components schedule callbacks via
    :meth:`schedule` / :meth:`schedule_at` and the experiment driver calls
    :meth:`run` (to exhaustion) or :meth:`run_until`.

    The run loops are inlined over the queue's raw heap (local
    ``heappop`` alias, direct clock writes — heap order guarantees
    monotonic times).  Wall-clock time spent inside them is accumulated
    so ``events_per_sec`` reports kernel throughput.
    """

    __slots__ = ("clock", "queue", "metrics", "_events_processed",
                 "_wall_seconds")

    def __init__(self, start_time: float = 0.0):
        self.clock = VirtualClock(start_time)
        self.queue = EventQueue()
        self.metrics = MetricsRegistry()
        self._events_processed = 0
        self._wall_seconds = 0.0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds spent inside ``run``/``run_until`` loops."""
        return self._wall_seconds

    @property
    def events_per_sec(self) -> float:
        """Kernel throughput: events executed per wall-clock second."""
        if self._wall_seconds <= 0.0:
            return 0.0
        return self._events_processed / self._wall_seconds

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` virtual seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.queue.push(self.clock.now + delay, callback)

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < {self.clock.now}")
        return self.queue.push(time, callback)

    def spawn(self, generator: Generator[Any, Any, Any],
              name: Optional[str] = None) -> "Proc":
        """Start a generator-driven process (see :mod:`repro.sim.procs`).

        The proc's first step runs as a zero-delay event, so spawning is
        never re-entrant; drive the simulator to make progress.
        """
        from repro.sim.procs import Proc
        return Proc(self, generator, name=name)

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events processed by this call.
        """
        return self._run_fast(max_events, None)

    def run_until(self, end_time: float) -> int:
        """Run events with ``time <= end_time``; park the clock at the end.

        Returns the number of events processed by this call.
        """
        processed = self._run_fast(None, end_time)
        if end_time > self.clock.now:
            self.clock.advance_to(end_time)
        return processed

    # ------------------------------------------------------------------

    def _run_fast(self, max_events: Optional[int],
                  end_time: Optional[float]) -> int:
        """Inlined hot loop over the queue's raw heap.

        Pops are batched straight off the heap with a local ``heappop``
        alias (no per-event method dispatch) and the clock is written
        directly: heap order guarantees event times never decrease, so
        the monotonicity check in ``advance_to`` is redundant here.
        """
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        clock = self.clock
        processed = 0
        limit = max_events if max_events is not None else -1
        started = _time.perf_counter()  # repro-lint: disable=RPL010 (wall-clock throughput instrumentation, not sim time)
        try:
            while heap:
                if processed == limit:
                    break
                event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if end_time is not None and event.time > end_time:
                    break
                heappop(heap)
                event._queue = None
                queue._live -= 1
                clock._now = event.time
                event.callback()
                processed += 1
        finally:
            self._events_processed += processed
            self._wall_seconds += _time.perf_counter() - started  # repro-lint: disable=RPL010 (wall-clock throughput instrumentation, not sim time)
        return processed
