"""The query engine: event-kernel execution of the L3/L4 path.

Every query — a single ``AlvisNetwork.query`` call as much as an open
workload — runs here, as a :class:`~repro.sim.procs.Proc` on the event
kernel.  Its ``LookupHop`` and probe messages travel through
:meth:`SimTransport.request_async`, so concurrent queries genuinely
interleave in virtual time and per-query **latency** is measured from
the virtual clock (``QueryTrace.latency``), not estimated.

The walk is the paper's (Figure 1, :mod:`repro.core.lattice`): probe
each unexcluded key of one lattice level, record the outcomes, let
untruncated lists exclude what they dominate, descend.  A level's
requests all go out concurrently — domination-based exclusions only
ever cover strictly smaller keys, so a level's results cannot exclude
its own siblings.  How those requests hit the wire is the
``batch_lookups`` policy:

* **frontier batching** (``batch_lookups``, the default) — all DHT
  lookups of one level travel in one shared routed round
  (:meth:`~repro.dht.ring.DHTRing.lookup_many_async` amortizes hops
  across the batch), and probes bound for the same responsible peer
  share one ``ProbeBatch`` message;
* **per-probe** (``batch_lookups=False``, the paper's cold traffic) —
  every missed key gets its own one-key lookup round and its own
  ``ProbeKey``/``ProbeReply`` exchange, never merged with another key
  or another query, whether in the dispatch flush, the congestion
  backlog or a pipelined prefetch.

On top of the walk sit the engine's policies:

* **probe-result caching** (``cache_bytes``) — a byte-budgeted LRU cache
  per querying peer (:class:`repro.core.cache.LRUByteCache`)
  short-circuits repeated probes together with their lookups.  Entries
  are invalidated wholesale when the ring membership or the global index
  changes, and optionally expired after a logical TTL.  Inactive under
  QDI, whose decentralized popularity monitoring requires the
  responsible peers to observe every probe (see
  :meth:`AsyncQueryRuntime._origin_cache`);

* **top-k early termination** (``topk_early_stop``) — between lattice
  levels, exploration stops once the BM25 score ceiling of the
  still-unprobed keys cannot lift any document into the current top-k
  (threshold termination in the spirit of Akbarinia et al.'s top-k query
  processing).  The ceiling per term is the BM25 weight limit
  ``idf * (k1 + 1)`` computed from the best available
  document-frequency lower bound (cached global dfs plus the dfs learned
  from already-retrieved keys), so unknown terms keep the bound
  conservative;

* a per-origin **dispatch queue** (:class:`_OriginDispatcher`)
  accumulates the lookups and probes issued within one
  ``dispatch_window`` and flushes them together.  Under frontier
  batching, lookups from concurrent queries route in one
  ``lookup_many_async`` traversal, and probes bound for the same
  responsible peer — possibly from different queries, deduplicated —
  share one ``ProbeBatch`` message (server-side cross-query batching);

* with ``pipeline_levels``, level N+1's DHT lookups launch while level
  N's probe replies are still in flight — speculative routing traffic
  for keys a level-N result later excludes, in exchange for one lookup
  round of latency per level.  Speculation is charged when it resolves:
  a prefetch invalidated by churn (and re-resolved) or outrun by early
  termination still paid for its hop messages, so its charges land on
  the trace even if the query already finished;

* churn is *survived*, not raised: a probe whose owner departed between
  resolution and delivery resolves as :attr:`ProbeStatus.DROPPED` and
  is counted in the trace;

* a request a full service queue rejects, ``LookupHop`` or probe, is
  retransmitted by the dispatch queue under one policy (a lookup resumes
  at the rejecting node); once ``congestion_max_retransmits`` is spent
  its keys are dropped probes, never an oracle guess.  With
  ``congestion_control``, a per-origin AIMD :class:`CongestionWindow`
  (the NCA'06 controller of Klemm et al.) sits between the dispatch
  queue and the transport: it bounds how many lookup rounds / probe
  messages may be outstanding, queues the excess (drained oldest query
  first), counts every rejection as a drop and paces the retries, and
  flushes the dispatch queue early once a window's worth of work is
  pending — closed-loop flow control on the retrieval path, which E8
  measures against blind retransmission (:mod:`repro.eval.congestion`).

Byte attribution.  A trace is charged for the messages its query sends
and receives: lookup hops, probes, QDI popularity feedback and
refinement.  When messages are shared across queries, each message's
wire bytes are *pro-rated* across the participating queries' traces
(integer shares differing by at most one byte); logical message
*counts* are still charged in full to every participant, so those can
exceed wire counts.  Summed per-query bytes therefore reconcile exactly
with the transport's counters of those kinds, with two exceptions that
no trace is charged for: work a query's messages *trigger* at their
receivers — under QDI, feedback that activates on-demand indexing sends
``ContributorsGet``/``ContributorsReply``, ``HarvestKey``/
``HarvestReply`` and the ``LookupHop`` messages that route them — and
the late reply of a request that *timed out* (discarded by the sender,
but wire-accounted), so exact reconciliation holds only for
timeout-free runs (``request_timeout = 0``, the default) outside QDI.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING, Union)

from repro.core.cache import LRUByteCache
from repro.core.keys import Key
from repro.core.lattice import ExplorationOutcome, LatticeExplorer
from repro.core.ranking import (RankedDocument, merge_and_rank,
                                rank_with_margin)
from repro.core.retrieval import QueryTrace
from repro.ir.postings import PostingList
from repro.ir.scoring import BM25Parameters, bm25_weight_ceiling
from repro.net import protocol
from repro.net.message import Message
from repro.net.transport import DeliveryError
from repro.sim.procs import Future, Proc, all_of
from repro.util.stats import percentile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import AlvisNetwork

__all__ = ["CongestionWindow", "QueryJob", "AsyncQueryRuntime"]

#: A probe outcome as the runtime moves it around: (found, postings,
#: dropped).
ProbeOutcome = Tuple[bool, Optional[object], bool]

#: Fixed per-entry bookkeeping charged against the cache byte budget.
_CACHE_ENTRY_OVERHEAD = 16

#: The congestion window's floor: a gated sender always makes progress.
_MIN_WINDOW = 1.0

#: Open-loop retransmission delays double up to this many timeouts.
_MAX_BACKOFF = 4.0


class CongestionWindow:
    """The AIMD congestion window of each origin's dispatch queue (the
    NCA'06 / TCP-Reno core).

    Tracks how many requests are outstanding against a real-valued
    window: acks open the window additively (+1 per window's worth of
    acks), congestion signals halve it — but, per TCP semantics, at most
    once per RTT: a burst of drops from one overflowing queue is *one*
    congestion event, not ``n`` independent ones.  The RTT used for the
    once-per-RTT guard is a smoothed estimate fed by ack samples (seeded
    with ``initial_rtt`` so the guard works before the first ack).

    The window never goes below one outstanding request
    (:data:`_MIN_WINDOW`), so a gated sender always makes progress.
    """

    __slots__ = ("window", "max_window", "outstanding", "acks", "drops",
                 "decreases", "srtt", "_last_decrease")

    def __init__(self, initial: float = 2.0, max_window: float = 256.0,
                 initial_rtt: float = 0.0):
        if initial < _MIN_WINDOW:
            raise ValueError(
                f"initial window {initial} below the minimum {_MIN_WINDOW}")
        if max_window < initial:
            raise ValueError(
                f"max_window {max_window} below initial window {initial}")
        self.window = float(initial)
        self.max_window = float(max_window)
        self.outstanding = 0
        self.acks = 0
        self.drops = 0
        self.decreases = 0            #: congestion events (not raw drops)
        self.srtt = float(initial_rtt)
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

    def on_drop(self, now: float = 0.0) -> None:
        """One request dropped: release its slot; decrease at most once
        per smoothed RTT (a drop burst is one congestion event)."""
        self.outstanding -= 1
        self.drops += 1
        if (self._last_decrease is None
                or now - self._last_decrease >= self.srtt):
            self.window = max(_MIN_WINDOW, self.window / 2.0)
            self.decreases += 1
            self._last_decrease = now

    def __repr__(self) -> str:
        return (f"CongestionWindow(window={self.window:.2f}, "
                f"outstanding={self.outstanding}, acks={self.acks}, "
                f"drops={self.drops}, decreases={self.decreases})")


@dataclass
class QueryJob:
    """One query submitted to the runtime."""

    origin: int
    terms: List[str]
    trace: QueryTrace
    refine: bool
    pool_k: int
    results: Optional[List[RankedDocument]] = None
    done: bool = False
    #: Resolves with the job itself on completion.
    future: Future = field(default_factory=Future)


class _LookupWaiter:
    """One query's owner-resolution ask; resolves with itself."""

    __slots__ = ("key_ids", "since", "future", "owners", "remaining",
                 "messages", "bytes", "retransmissions")

    def __init__(self, key_ids: List[int], since: float):
        self.key_ids = key_ids
        self.since = since                  #: the asking query's start
        self.future = Future()
        #: key id -> owning *peer*, without keys given up on.
        self.owners: Dict[int, int] = {}
        self.remaining = 1                  #: traversals outstanding
        self.messages = 0                   #: hop messages carrying its keys
        self.bytes = 0                      #: its pro-rated share of them
        self.retransmissions = 0            #: retried traversals it rode in

    def finish(self) -> None:
        """One traversal carrying its keys is over."""
        self.remaining -= 1
        if not self.remaining:
            self.future.resolve(self)


class _ProbeWaiter:
    __slots__ = ("assignments", "since", "future", "results", "remaining",
                 "requests", "bytes_by_kind", "retransmissions")

    def __init__(self, assignments: List[Tuple[Key, int]], since: float):
        self.assignments = assignments      #: ordered (key, owner peer)
        self.since = since                  #: the asking query's start
        self.future = Future()
        self.results: Dict[Key, ProbeOutcome] = {}
        self.remaining = 0                  #: owner batches outstanding
        self.requests = 0                   #: batches this ask rode in
        self.bytes_by_kind: Dict[str, int] = {}
        self.retransmissions = 0            #: retried batches it rode in


@dataclass
class _Prefetch:
    """A speculative next-level owner resolution (level pipelining)."""

    epoch: int                  #: membership epoch at launch
    proc: Proc                  #: resolves to {key_id: owner peer}


@dataclass
class _PendingLookup:
    """One lookup traversal awaiting a congestion-window slot.

    Under frontier batching, backlogged traversals merge: their waiters
    route in one traversal once a slot opens, so backpressure
    *increases* sharing.  A ``frontier`` (``{node: keys}``) starts the
    walk elsewhere and never merges: a per-probe key, or a retry from
    where a full service queue rejected hops (the walk's ``rejected``)."""

    participants: List[_LookupWaiter]
    frontier: Optional[Dict[int, List[int]]] = None
    attempts: int = 0

    @property
    def since(self) -> float:
        """Start time of the oldest query this traversal serves."""
        return min(waiter.since for waiter in self.participants)


@dataclass
class _PendingProbe:
    """One owner's probe message awaiting a congestion-window slot.

    A ``ProbeBatch`` by default.  Backlogged batches for the same owner
    merge (keys deduplicated, participants concatenated): the longer the
    window holds traffic back, the bigger — and fewer — the messages,
    which is the adaptive batching a congested receiver needs.  A
    ``single`` probe is the per-probe policy's one-key ``ProbeKey`` and
    never merges.  ``sent_bytes`` accumulates the wire cost of earlier
    (dropped) transmissions of this work so the traces reconcile with
    the transport counters."""

    owner: int
    keys: List[Key]
    participants: List[_ProbeWaiter]
    single: bool = False
    attempts: int = 0
    sent_bytes: int = 0

    @property
    def since(self) -> float:
        """Start time of the oldest query this probe serves."""
        return min(waiter.since for waiter in self.participants)

    def request(self) -> Tuple[str, Dict]:
        """The wire kind and payload of this probe."""
        if self.single:
            return protocol.PROBE_KEY, {"key_terms": list(self.keys[0].terms)}
        return protocol.PROBE_BATCH, {"keys": [list(key.terms)
                                               for key in self.keys]}

    def items(self, reply: Optional[Dict]) -> List[Dict]:
        """Per-key ``{"found", "postings"}`` items of a reply payload."""
        if reply is None:
            return [{"found": False, "postings": None} for _key in self.keys]
        return [reply] if self.single else reply["results"]

    def kinds(self) -> Tuple[str, str]:
        """The request and reply kinds the traces are charged under."""
        if self.single:
            return protocol.PROBE_KEY, protocol.PROBE_REPLY
        return protocol.PROBE_BATCH, protocol.PROBE_BATCH_REPLY


class _OriginDispatcher:
    """Per-origin dispatch queue coalescing traffic across queries.

    Lookups and probes enqueued within one ``dispatch_window`` flush
    together.  Under frontier batching all pending lookups share one
    routed traversal, and all pending probes to the same responsible
    peer share one ``ProbeBatch`` (duplicate keys from different queries
    are sent once and the reply fanned back out); with a single active
    query this is exactly one lookup round and one batch per owner per
    lattice level.  Under the per-probe policy (``batch_lookups`` off)
    nothing merges: each one-key ask is its own traversal or
    ``ProbeKey``.

    A send a full service queue rejects — a lookup traversal with a
    rejected hop, or a probe — is retried by :meth:`_retransmit`.  With
    ``congestion_control`` an AIMD :class:`CongestionWindow` gates
    the flushed work: each lookup traversal and each probe message is
    one outstanding unit; excess sends queue in ``_backlog`` and drain
    as acks open the window, oldest query first: a FIFO over sends would
    park each query's probe behind the lookups of every query that
    arrived while its own lookup was out, so under sustained overload
    the owner would stay busy while almost no query finished.
    Rejections halve the window (at most once per RTT) and their retries
    are window-paced; once a window's worth of work is pending the flush
    fires early instead of waiting out the full ``dispatch_window``.
    """

    def __init__(self, runtime: "AsyncQueryRuntime", origin: int):
        self.runtime = runtime
        self.origin = origin
        self._pending_lookups: List[_LookupWaiter] = []
        self._pending_probes: List[_ProbeWaiter] = []
        self._flush_scheduled = False
        self._flush_event = None
        self._expedited = False
        #: Flushes and coalesced (deduplicated) probe keys, for the bench.
        self.flushes = 0
        self.coalesced_keys = 0
        #: Early (size-triggered) flushes and retransmitted sends.
        self.early_flushes = 0
        self.retransmissions = 0
        config = runtime.network.config
        self.cwnd: Optional[CongestionWindow] = None
        if config.congestion_control:
            # The retransmit timeout seeds the once-per-RTT decrease
            # guard as a conservative RTT upper bound: without it a
            # startup overflow burst (drops before the first ack's RTT
            # sample) would halve the window once per drop.  Real ack
            # samples take over quickly through the smoother.
            self.cwnd = CongestionWindow(
                initial=config.congestion_initial_window,
                max_window=config.congestion_max_window,
                initial_rtt=config.congestion_retransmit_timeout)
        #: Owners the pending probes address (incremental mirror of the
        #: per-owner batches a flush would send, for _pending_units), and
        #: the pending remote probes (the per-probe policy's messages).
        self._pending_probe_owners: set = set()
        self._pending_remote_probes = 0
        #: Held-back sends, a heap of ``[since, sequence, send]``: the
        #: oldest query first, ties in arrival order.
        self._backlog: List[list] = []
        self._sequence = itertools.count()

    @property
    def batched(self) -> bool:
        """The ``batch_lookups`` policy: merge asks, or send each alone."""
        return self.runtime.network.config.batch_lookups

    @property
    def backlog(self) -> int:
        """Sends held back by the congestion window right now."""
        return len(self._backlog)

    # ------------------------------------------------------------------

    def lookup(self, key_ids: List[int], since: float) -> Future:
        """Ask for owner resolution of ``key_ids`` for a query started
        at ``since``; resolves to the :class:`_LookupWaiter` carrying
        the owners and charges."""
        waiter = _LookupWaiter(list(key_ids), since)
        self._pending_lookups.append(waiter)
        self._schedule_flush()
        return waiter.future

    def probe(self, assignments: List[Tuple[Key, int]],
              since: float) -> Future:
        """Ask for probes of ``(key, owner)`` pairs for a query started
        at ``since``; resolves to the :class:`_ProbeWaiter` carrying
        per-key outcomes and charges."""
        waiter = _ProbeWaiter(list(assignments), since)
        self._pending_probes.append(waiter)
        for _key, owner in waiter.assignments:
            if owner != self.origin:
                self._pending_probe_owners.add(owner)
                self._pending_remote_probes += 1
        self._schedule_flush()
        return waiter.future

    # ------------------------------------------------------------------

    def _pending_units(self) -> int:
        """Dispatcher sends the pending work would flush into: one
        shared lookup traversal plus one probe batch per owner, or under
        the per-probe policy one traversal per lookup ask plus one
        ``ProbeKey`` per remote probe."""
        if not self.batched:
            return len(self._pending_lookups) + self._pending_remote_probes
        return ((1 if self._pending_lookups else 0)
                + len(self._pending_probe_owners))

    def _should_expedite(self) -> bool:
        """True once the pending work would fill the congestion window's
        *currently idle* capacity — the window could send it all right
        now, so waiting out the rest of ``dispatch_window`` only adds
        latency.  While the window is saturated (no idle slots) the
        flush is never expedited: held-back work keeps accumulating into
        bigger coalesced batches, which is exactly the adaptive
        behaviour congestion calls for."""
        if self.cwnd is None or self._backlog:
            return False
        available = self.cwnd.window - self.cwnd.outstanding
        return available >= 1.0 and self._pending_units() >= available

    def _schedule_flush(self) -> None:
        simulator = self.runtime.network.simulator
        dispatch_window = self.runtime.network.config.dispatch_window
        if self._flush_scheduled:
            if (dispatch_window > 0 and not self._expedited
                    and self._should_expedite()):
                self._expedited = True
                self.early_flushes += 1
                if self._flush_event is not None:
                    self._flush_event.cancel()
                self._flush_event = simulator.schedule(0.0, self._flush)
            return
        self._flush_scheduled = True
        self._expedited = False
        delay = dispatch_window
        if delay > 0 and self._should_expedite():
            delay = 0.0
            self._expedited = True
            self.early_flushes += 1
        self._flush_event = simulator.schedule(delay, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        self._flush_event = None
        self.flushes += 1
        lookups, self._pending_lookups = self._pending_lookups, []
        probes, self._pending_probes = self._pending_probes, []
        self._pending_probe_owners.clear()
        self._pending_remote_probes = 0
        if lookups:
            self._flush_lookups(lookups)
        if probes:
            self._flush_probes(probes)

    # -- congestion-window gating ---------------------------------------

    def _submit(self, send: Union[_PendingLookup, _PendingProbe]) -> None:
        """Dispatch ``send`` now if the congestion window admits another
        outstanding unit, else merge it into the backlog."""
        if self.cwnd is None or self.cwnd.can_send():
            if self.cwnd is not None:
                self.cwnd.on_send()
            self._dispatch(send)
        else:
            self._merge_into_backlog(send)

    def _dispatch(self, send: Union[_PendingLookup, _PendingProbe]) -> None:
        if isinstance(send, _PendingProbe):
            self._transmit_probe(send)
        else:
            self._launch_lookup(send)

    def _merge_into_backlog(
            self, send: Union[_PendingLookup, _PendingProbe]) -> None:
        """Queue ``send``, merging with backlogged work where possible:
        probe batches for the same owner fuse (keys deduplicated), and
        lookup traversals from the origin fuse into one shared round — so
        backpressure grows batches instead of queue length.  Per-probe
        sends and lookup retries never merge.  A merge that brings in an
        older query moves the fused entry forward."""
        if self.batched:
            for held in self._backlog:
                entry = held[2]
                if type(entry) is not type(send):
                    continue
                if isinstance(send, _PendingLookup):
                    if send.frontier or entry.frontier:
                        continue
                    entry.participants.extend(send.participants)
                else:
                    if entry.owner != send.owner:
                        continue
                    marks = set(entry.keys)
                    for key in send.keys:
                        if key in marks:
                            self.coalesced_keys += 1
                        else:
                            marks.add(key)
                            entry.keys.append(key)
                    entry.participants.extend(send.participants)
                    entry.attempts = max(entry.attempts, send.attempts)
                    entry.sent_bytes += send.sent_bytes
                if send.since < held[0]:
                    held[0] = send.since
                    heapq.heapify(self._backlog)
                return
        heapq.heappush(self._backlog,
                       [send.since, next(self._sequence), send])

    def _drain_backlog(self) -> None:
        if self.cwnd is None:
            return
        while self._backlog and self.cwnd.can_send():
            self.cwnd.on_send()
            self._dispatch(heapq.heappop(self._backlog)[2])

    # -- lookups --------------------------------------------------------

    def _flush_lookups(self, waiters: List[_LookupWaiter]) -> None:
        network = self.runtime.network
        if not network.ring.contains(self.origin):
            # The origin itself departed (crash mid-query).
            _grant_from_oracle(network, waiters)
            return
        if self.batched:
            self._submit(_PendingLookup(waiters))
            return
        # The per-probe policy: every key routes alone; the ask sums its
        # keys' traversals.
        for waiter in waiters:
            waiter.remaining = len(waiter.key_ids)
            for key_id in waiter.key_ids:
                self._submit(_PendingLookup([waiter],
                                            {self.origin: [key_id]}))

    def _launch_lookup(self, send: _PendingLookup) -> None:
        network = self.runtime.network
        waiters = send.participants
        if not network.ring.contains(self.origin):
            # The origin departed while the traversal waited for a
            # window slot: resolve via the oracle and release the slot.
            if self.cwnd is not None:
                self.cwnd.on_ack(network.simulator.now)
            _grant_from_oracle(network, waiters)
            self._drain_backlog()
            return
        sent_at = network.simulator.now
        proc = network.simulator.spawn(network.ring.lookup_many_async(
            self.origin, (key_id for waiter in waiters
                          for key_id in waiter.key_ids), send.frontier),
            name=f"lookup@{self.origin}")

        def on_done(proc: Proc) -> None:
            now = network.simulator.now
            result = proc.result
            rejected = result.rejected
            if self.cwnd is not None:
                if rejected:
                    self.cwnd.on_drop(now)
                else:
                    self.cwnd.on_ack(now, rtt_sample=now - sent_at)
            key_sets = [set(waiter.key_ids) for waiter in waiters]
            # Pro-rate each hop message's bytes across the waiters
            # whose keys it carried; every carrier still counts the
            # whole message (the amortized hop cost is a count, the
            # bytes must reconcile with the wire).
            for batch, size in zip(result.message_batches,
                                   result.message_bytes):
                carriers = [index for index, keys in
                            enumerate(key_sets)
                            if keys.intersection(batch)]
                if not carriers:
                    continue
                split = _split_evenly(size, len(carriers))
                for slot, index in enumerate(carriers):
                    waiters[index].messages += 1
                    waiters[index].bytes += split[slot]
            resolved = result.owners
            for waiter in waiters:
                waiter.owners.update(
                    (key_id, network.peer_of_ring_node(resolved[key_id]))
                    for key_id in waiter.key_ids if key_id in resolved)
            done = waiters
            if rejected:
                stopped = {key_id for keys in rejected.values()
                           for key_id in keys}
                if self._retransmit(_PendingLookup(
                        [waiter for waiter in waiters
                         if not stopped.isdisjoint(waiter.key_ids)],
                        rejected, send.attempts)):
                    done = [waiter for waiter in waiters
                            if stopped.isdisjoint(waiter.key_ids)]
            for waiter in done:
                waiter.finish()
            self._drain_backlog()

        proc.add_done_callback(on_done)

    def _retransmit(self, send: Union[_PendingLookup, _PendingProbe]
                    ) -> bool:
        """Retry ``send``, which a full service queue rejected, unless
        it has spent ``congestion_max_retransmits`` (then False).  The
        retry waits, as an immediate one would hit the same still-full
        queue: with the window, one smoothed RTT before re-entering the
        window-paced queue; without it (E8's open loop), a delay doubling
        from ``congestion_retransmit_timeout`` up to :data:`_MAX_BACKOFF`
        timeouts."""
        network = self.runtime.network
        config = network.config
        if send.attempts >= config.congestion_max_retransmits:
            return False
        send.attempts += 1
        self.retransmissions += 1
        for waiter in send.participants:
            waiter.retransmissions += 1
        delay = (self.cwnd.srtt if self.cwnd is not None else
                 config.congestion_retransmit_timeout
                 * min(2.0 ** (send.attempts - 1), _MAX_BACKOFF))
        network.simulator.schedule(delay, lambda: self._submit(send))
        return True

    # -- probes ---------------------------------------------------------

    def _flush_probes(self, waiters: List[_ProbeWaiter]) -> None:
        for send in (self._owner_batches(waiters) if self.batched
                     else self._single_probes(waiters)):
            if send.owner == self.origin:
                self._probe_locally(send)
            else:
                self._submit(send)

    def _owner_batches(self, waiters: List[_ProbeWaiter]
                       ) -> List[_PendingProbe]:
        """One ``ProbeBatch`` per owner across ``waiters``, duplicate
        keys sent once."""
        by_owner: Dict[int, List[Key]] = {}
        seen: Dict[int, set] = {}
        owner_waiters: Dict[int, List[_ProbeWaiter]] = {}
        for waiter in waiters:
            waiter_owners = []
            for key, owner in waiter.assignments:
                keys = by_owner.setdefault(owner, [])
                marks = seen.setdefault(owner, set())
                if key in marks:
                    self.coalesced_keys += 1
                else:
                    marks.add(key)
                    keys.append(key)
                if owner not in waiter_owners:
                    waiter_owners.append(owner)
            waiter.remaining = len(waiter_owners)
            for owner in waiter_owners:
                owner_waiters.setdefault(owner, []).append(waiter)
        return [_PendingProbe(owner=owner, keys=keys,
                              participants=owner_waiters[owner])
                for owner, keys in by_owner.items()]

    @staticmethod
    def _single_probes(waiters: List[_ProbeWaiter]) -> List[_PendingProbe]:
        """The per-probe policy: one ``ProbeKey`` per asked key."""
        sends = []
        for waiter in waiters:
            waiter.remaining = len(waiter.assignments)
            sends.extend(_PendingProbe(owner=owner, keys=[key],
                                       participants=[waiter], single=True)
                         for key, owner in waiter.assignments)
        return sends

    def _probe_locally(self, send: _PendingProbe) -> None:
        """Self-addressed probes short-circuit in memory: no bytes, no
        latency, no congestion window.  A crashed origin cannot answer
        even itself."""
        kind, payload = send.request()
        try:
            reply, _rtt = self.runtime.network.send(self.origin, send.owner,
                                                    kind, payload)
        except DeliveryError:
            self._deliver(send, None, request_bytes=0, reply_bytes=0)
            return
        self._deliver(send, send.items(reply), request_bytes=0,
                      reply_bytes=0)

    def _transmit_probe(self, send: _PendingProbe) -> None:
        network = self.runtime.network
        config = network.config
        kind, payload = send.request()
        message = Message(src=self.origin, dst=send.owner, kind=kind,
                          payload=payload)
        # Every attempt hits the wire: the cumulative request bytes
        # (original send plus retransmissions) are what the traces must
        # reconcile against the transport counters.
        send.sent_bytes += message.size_bytes()
        timeout = config.request_timeout or None
        future = network.transport.request_async(message, timeout=timeout)
        future.add_done_callback(
            lambda resolved: self._on_probe_outcome(send, resolved.value))

    def _on_probe_outcome(self, send: _PendingProbe, outcome) -> None:
        now = self.runtime.network.simulator.now
        if outcome.ok and outcome.reply is not None:
            if self.cwnd is not None:
                self.cwnd.on_ack(now, rtt_sample=outcome.rtt)
            self._deliver(send, send.items(outcome.reply.payload),
                          request_bytes=send.sent_bytes,
                          reply_bytes=outcome.reply_bytes)
        else:
            if self.cwnd is not None:
                self.cwnd.on_drop(now)
            if not (outcome.status == "overflow"
                    and self._retransmit(send)):
                # Churn drop, timeout, or retransmission budget spent:
                # surfaced as dropped probes.
                self._deliver(send, None, request_bytes=send.sent_bytes,
                              reply_bytes=0)
        self._drain_backlog()

    def _deliver(self, send: _PendingProbe, items: Optional[List[Dict]],
                 request_bytes: int, reply_bytes: int) -> None:
        """Fan one probe message's outcome out to its participants;
        ``items`` is None when the probe was dropped."""
        results: Dict[Key, ProbeOutcome] = {}
        if items is None:
            for key in send.keys:
                results[key] = (False, None, True)
        else:
            for key, item in zip(send.keys, items):
                found = bool(item["found"])
                postings = item["postings"] if found else None
                results[key] = (found, postings, False)
        # Shared batches pro-rate their wire bytes across participants
        # (summed per-query bytes == transport totals); the *count* is
        # charged to everyone who rode in the batch.
        participants = send.participants
        request_kind, reply_kind = send.kinds()
        request_shares = _split_evenly(request_bytes, len(participants))
        reply_shares = _split_evenly(reply_bytes, len(participants))
        for index, waiter in enumerate(participants):
            for key, key_owner in waiter.assignments:
                if key_owner == send.owner and key in results:
                    waiter.results[key] = results[key]
            waiter.requests += 1
            _add_bytes(waiter.bytes_by_kind, request_kind,
                       request_shares[index])
            _add_bytes(waiter.bytes_by_kind, reply_kind,
                       reply_shares[index])
            waiter.remaining -= 1
            if waiter.remaining == 0:
                waiter.future.resolve(waiter)


def _cache_get(cache: Optional[LRUByteCache], trace: QueryTrace,
               key: Key) -> Optional[Tuple[bool, Optional[PostingList]]]:
    """Consult the origin's probe cache, accounting hit/miss."""
    if cache is None:
        return None
    hit, value = cache.get(key)
    if hit:
        trace.cache_hits += 1
        return value
    trace.cache_misses += 1
    return None


def _cache_put(cache: Optional[LRUByteCache], key: Key, found: bool,
               postings: Optional[PostingList]) -> None:
    """Store one probe outcome with its byte-accounted size."""
    if cache is None:
        return
    size = (key.wire_size() + _CACHE_ENTRY_OVERHEAD
            + (postings.wire_size() if postings is not None else 1))
    cache.put(key, (found, postings), size)


def _grant_from_oracle(network: "AlvisNetwork",
                       waiters: List[_LookupWaiter]) -> None:
    """Resolve a departed origin's ``waiters`` from the ownership oracle,
    with zero traffic: nothing routes from it any more, and replies to
    it would be dropped, so its queries wind down as dropped probes."""
    for waiter in waiters:
        for key_id in waiter.key_ids:
            if key_id not in waiter.owners:
                waiter.owners[key_id] = network.owner_peer_of_key(key_id)
        waiter.finish()


def _add_bytes(bucket: Dict[str, int], kind: str, nbytes: int) -> None:
    if nbytes > 0:
        bucket[kind] = bucket.get(kind, 0) + nbytes


def _split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integer shares that sum exactly to
    ``total``, differing by at most one (earlier parts take the
    remainder)."""
    base, remainder = divmod(int(total), parts)
    return [base + 1 if index < remainder else base
            for index in range(parts)]


class AsyncQueryRuntime:
    """Runs queries as concurrent processes on the network's event kernel."""

    def __init__(self, network: "AlvisNetwork"):
        self.network = network
        self.explorer = LatticeExplorer(
            prune_on_truncated=network.config.prune_on_truncated)
        self.active = 0
        self.peak_active = 0
        self.completed = 0
        #: Clock-measured latency of every completed query, in order.
        self.latencies: List[float] = []
        self._dispatchers: Dict[int, _OriginDispatcher] = {}

    # ------------------------------------------------------------------

    def dispatcher(self, origin: int) -> _OriginDispatcher:
        """The (lazily created) dispatch queue of ``origin``."""
        dispatcher = self._dispatchers.get(origin)
        if dispatcher is None:
            dispatcher = _OriginDispatcher(self, origin)
            self._dispatchers[origin] = dispatcher
        return dispatcher

    def coalesced_probe_keys(self) -> int:
        """Probe keys absorbed by cross-query deduplication so far."""
        return sum(dispatcher.coalesced_keys
                   for dispatcher in self._dispatchers.values())

    def retransmissions(self) -> int:
        """Dispatcher sends retried after congestion drops so far."""
        return sum(dispatcher.retransmissions
                   for dispatcher in self._dispatchers.values())

    def congestion_summary(self) -> Dict[str, float]:
        """Aggregated congestion-control state across all dispatchers:
        retransmissions, backlogged sends, early (size-triggered)
        flushes, and the AIMD window's mean/min plus total
        multiplicative decreases (zeroes when ``congestion_control`` is
        off)."""
        dispatchers = list(self._dispatchers.values())
        windows = [dispatcher.cwnd for dispatcher in dispatchers
                   if dispatcher.cwnd is not None]
        return {
            "retransmissions": float(self.retransmissions()),
            "backlog": float(sum(dispatcher.backlog
                                 for dispatcher in dispatchers)),
            "early_flushes": float(sum(dispatcher.early_flushes
                                       for dispatcher in dispatchers)),
            "window_mean": (sum(cwnd.window for cwnd in windows)
                            / len(windows)) if windows else 0.0,
            "window_min": (min(cwnd.window for cwnd in windows)
                           if windows else 0.0),
            "window_decreases": float(sum(cwnd.decreases
                                          for cwnd in windows)),
        }

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99 of the completed queries' clock latencies."""
        if not self.latencies:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {"p50": percentile(self.latencies, 50),
                "p95": percentile(self.latencies, 95),
                "p99": percentile(self.latencies, 99)}

    # ------------------------------------------------------------------

    def submit(self, origin: int, query: Union[str, Sequence[str]],
               refine: Optional[bool] = None) -> QueryJob:
        """Start one query as a process; returns its job immediately.

        Drive the simulator (``network.simulator.run()``, as
        :meth:`AlvisNetwork.query` does, or an open workload through
        :meth:`AlvisNetwork.run_workload`) to make it complete.
        """
        network = self.network
        config = network.config
        terms = (network.analyzer.analyze_query(query)
                 if isinstance(query, str) else
                 list(dict.fromkeys(query)))
        if not terms:
            raise ValueError(f"query {query!r} has no index terms")
        do_refine = (config.refine_with_local_engines
                     if refine is None else refine)
        pool_k = (config.result_k * config.refine_pool_factor
                  if do_refine else config.result_k)
        job = QueryJob(origin=origin, terms=terms,
                       trace=QueryTrace(query=Key(terms), origin=origin),
                       refine=do_refine, pool_k=pool_k)
        network.simulator.spawn(self._run_query(job),
                                name=f"query@{origin}")
        return job

    # ------------------------------------------------------------------
    # The query process
    # ------------------------------------------------------------------

    def _run_query(self, job: QueryJob):
        network = self.network
        trace = job.trace
        trace.started_at = network.simulator.now
        self.active += 1
        self.peak_active = max(self.peak_active, self.active)
        outcome, owners = yield from self._explore(job)
        trace.probes = [(record.key, record.status)
                        for record in outcome.records]
        if network.mode == "qdi":
            self._send_feedback(job, outcome, owners)
        results = merge_and_rank(outcome.retrieved, trace.query,
                                 job.pool_k)
        # Lazy cleanup: drop references to documents whose holder is gone
        # (crash) or that were unpublished — stale postings for them may
        # survive in combination keys until their lists refresh.
        results = [document for document in results
                   if network.doc_owner(document.doc_id) is not None]
        if job.refine and results:
            # Refinement re-ranks a larger first-step candidate pool
            # with exact scores, then cuts back to result_k.
            results = yield from self._refine(job, results)
            results = results[: network.config.result_k]
            trace.refined = True
        trace.results = results
        job.results = results
        trace.finished_at = network.simulator.now
        trace.latency = trace.finished_at - trace.started_at
        self.active -= 1
        self.completed += 1
        self.latencies.append(trace.latency)
        job.done = True
        job.future.resolve(job)
        return job

    def _explore(self, job: QueryJob):
        """Lattice exploration over the network, one level at a time.

        Record order, exclusion handling and the early-termination test
        replicate :meth:`LatticeExplorer.explore` with a level-probe
        callback, so for identical index state the outcome is identical
        to the in-memory reference walk.  Returns the outcome plus the
        resolved owner of every key that was actually looked up (cache
        hits skip resolution — and, for QDI, the corresponding feedback,
        which would be redundant re-sends anyway).
        """
        network = self.network
        config = network.config
        explorer = self.explorer
        trace = job.trace
        origin = job.origin
        terms = list(dict.fromkeys(job.terms))[: explorer.max_lattice_terms]
        query = Key(terms)
        outcome = ExplorationOutcome(query=query)
        excluded: set = set()
        owners: Dict[Key, int] = {}
        levels = Key.lattice_levels(terms)
        should_stop = (self._make_stop_test(origin, query, job.pool_k)
                       if config.topk_early_stop else None)
        cache = self._origin_cache(origin)
        prefetch: Optional[_Prefetch] = None
        for depth, level in enumerate(levels):
            current_prefetch, prefetch = prefetch, None
            frontier = [key for key in level if key not in excluded]
            results: Dict[Key, ProbeOutcome] = {}
            misses: List[Key] = []
            for key in frontier:
                cached = _cache_get(cache, trace, key)
                if cached is not None:
                    results[key] = (cached[0], cached[1], False)
                else:
                    misses.append(key)
            probe_future = None
            if misses:
                prefetched: Dict[int, int] = {}
                if (current_prefetch is not None
                        and current_prefetch.epoch
                        == network.ring.membership_epoch):
                    # Owners resolved speculatively during the previous
                    # level; invalidated wholesale by any membership
                    # change since launch.
                    prefetched = yield current_prefetch.proc
                needed = [key for key in misses
                          if key.key_id not in prefetched]
                owners_by_id = dict(prefetched)
                if needed:
                    resolved = yield from self._resolve_owners(
                        job, [key.key_id for key in needed])
                    owners_by_id.update(resolved)
                assignments = []
                for key in misses:
                    owner = owners_by_id.get(key.key_id)
                    if owner is None:       # lookup retries spent
                        results[key] = (False, None, True)
                        continue
                    owners[key] = owner
                    assignments.append((key, owner))
                if assignments:
                    probe_future = self.dispatcher(origin).probe(
                        assignments, job.trace.started_at)
            if (config.pipeline_levels and depth + 1 < len(levels)):
                candidates = [key for key in levels[depth + 1]
                              if key not in excluded]
                if candidates:
                    prefetch = self._launch_prefetch(job, candidates)
            if probe_future is not None:
                waiter = yield probe_future
                trace.request_messages += waiter.requests
                trace.retransmissions += waiter.retransmissions
                for kind, nbytes in waiter.bytes_by_kind.items():
                    self._charge(trace, kind, nbytes)
                for key, _owner in waiter.assignments:
                    found, postings, dropped = waiter.results[key]
                    results[key] = (found, postings, dropped)
                    if not dropped:
                        _cache_put(cache, key, found, postings)
            # Classification, pruning and the stop test go through the
            # explorer's shared building blocks, so the network walk can
            # never diverge from the reference record semantics.
            explorer.record_level(level, results, outcome, excluded)
            if should_stop is None:
                continue
            remaining = explorer.remaining_after(levels, depth, excluded)
            if remaining and should_stop(outcome, remaining):
                explorer.prune_remaining(levels, depth, outcome,
                                         excluded)
                break
        return outcome, owners

    def _resolve_owners(self, job: QueryJob, key_ids: List[int]):
        """Resolve responsible peers through the dispatch queue.

        The origin's key->owner cache applies exactly as in
        :meth:`AlvisNetwork.lookup_owners` (both go through
        :meth:`AlvisNetwork.cached_owners`); returns ``{key_id: owner
        peer}`` — without the keys given up on after rejected hops — and
        charges the trace for the hop messages that carried this query's
        keys and the retries they took.
        """
        trace = job.trace
        owners, misses, remember = self.network.cached_owners(job.origin,
                                                              key_ids)
        if misses:
            asked = yield self.dispatcher(job.origin).lookup(
                misses, job.trace.started_at)
            trace.lookup_hops += asked.messages
            trace.retransmissions += asked.retransmissions
            self._charge(trace, protocol.LOOKUP_HOP, asked.bytes)
            remember(asked.owners)
            owners.update(asked.owners)
        return owners

    def _launch_prefetch(self, job: QueryJob,
                         candidates: List[Key]) -> _Prefetch:
        """Start next-level owner resolution while probes are in flight."""
        proc = self.network.simulator.spawn(
            self._resolve_owners(job,
                                 [key.key_id for key in candidates]),
            name=f"prefetch@{job.origin}")
        return _Prefetch(epoch=self.network.ring.membership_epoch,
                         proc=proc)

    # ------------------------------------------------------------------
    # Probe cache and early termination
    # ------------------------------------------------------------------

    def _origin_cache(self, origin: int) -> Optional[LRUByteCache]:
        """The origin peer's probe cache, freshened for this query.

        Disabled under QDI: on-demand indexing is driven by owner-side
        popularity monitoring, which must see every probe — absorbing
        probes at the querying peer would starve hot keys' counters
        until maintenance evicts them, only for the next cold query to
        re-activate them (a permanent evict/harvest oscillation).
        """
        network = self.network
        if network.config.cache_bytes <= 0 or network.mode == "qdi":
            return None
        cache = network.peer(origin).probe_cache
        cache.ensure_version((network.ring.membership_epoch,
                              network.index_version))
        cache.tick()
        return cache

    def _make_stop_test(self, origin: int, query: Key, rank_k: int
                        ) -> Optional[Callable[[ExplorationOutcome,
                                                List[Key]], bool]]:
        """Build the top-k threshold termination test.

        ``rank_k`` is the candidate-pool size the query will rank
        (``result_k``, enlarged when refinement re-scores a bigger
        pool).  Requires the origin's cached collection totals (for
        idf); without them no bound is computable and exploration never
        stops early.
        """
        stats_cache = self.network.peer(origin).stats_cache
        if stats_cache.totals is None:
            return None
        n = max(stats_cache.totals.num_documents, 1)
        # The peers' publish-time scoring runs on the default BM25
        # parameters (no knob plumbs custom ones through the network
        # yet), so the ceiling uses the same defaults.
        params = BM25Parameters()

        def term_ceiling(df_lower_bound: int) -> float:
            return bm25_weight_ceiling(df_lower_bound, n, params)

        def should_stop(outcome: ExplorationOutcome,
                        remaining: List[Key]) -> bool:
            _top, kth, runner_up = rank_with_margin(outcome.retrieved,
                                                    query, rank_k)
            if kth <= 0.0:
                return False          # top-k not even full yet
            df_bounds: Dict[str, int] = {}
            for key, postings in outcome.retrieved.items():
                # A conjunction's result-set size lower-bounds each of
                # its terms' dfs — free df knowledge from this query.
                for term in key.terms:
                    df_bounds[term] = max(df_bounds.get(term, 0),
                                          postings.global_df)
            remaining_terms = set()
            for key in remaining:
                remaining_terms.update(key.terms)
            # Any document (seen outside the top-k, or never seen) can
            # gain at most one ceiling per remaining term: disjoint
            # covers touch each term once.
            potential = sum(
                term_ceiling(max(df_bounds.get(term, 0),
                                 stats_cache.df(term)))
                for term in remaining_terms)
            return runner_up + potential < kth

        return should_stop

    # ------------------------------------------------------------------
    # Post-exploration steps
    # ------------------------------------------------------------------

    def _send_feedback(self, job: QueryJob, outcome: ExplorationOutcome,
                       owners: Dict[Key, int]) -> None:
        """QDI popularity feedback, fired without blocking completion."""
        network = self.network
        trace = job.trace
        for key in outcome.missing_keys():
            if len(key) < 2:
                continue
            owner = owners.get(key)
            if owner is None:
                continue
            redundant = outcome.covered_by_untruncated(key)
            payload = {"key_terms": list(key.terms),
                       "redundant": redundant}
            trace.request_messages += 1
            if owner == job.origin:
                try:
                    network.send(job.origin, owner, protocol.FEEDBACK,
                                 payload)
                except DeliveryError:
                    pass        # origin crashed mid-query
                continue
            message = Message(src=job.origin, dst=owner,
                              kind=protocol.FEEDBACK, payload=payload)
            self._charge(trace, protocol.FEEDBACK, message.size_bytes())
            network.transport.request_async(message)

    def _refine(self, job: QueryJob, results: List[RankedDocument]):
        """Second retrieval step, one concurrent wave of exact scoring."""
        network = self.network
        config = network.config
        trace = job.trace
        by_owner: Dict[int, List[int]] = {}
        for document in results:
            owner = network.doc_owner(document.doc_id)
            if owner is not None:
                by_owner.setdefault(owner, []).append(document.doc_id)
        exact_scores: Dict[int, float] = {}
        futures = []
        for owner, doc_ids in by_owner.items():
            payload = {"terms": job.terms, "doc_ids": doc_ids}
            trace.request_messages += 1
            if owner == job.origin:
                try:
                    reply, _rtt = network.send(job.origin, owner,
                                               protocol.REFINE_QUERY,
                                               payload)
                except DeliveryError:
                    continue    # origin crashed mid-query
                if reply is not None:
                    for doc_id, score in reply["scores"].items():
                        exact_scores[int(doc_id)] = float(score)
                continue
            message = Message(src=job.origin, dst=owner,
                              kind=protocol.REFINE_QUERY, payload=payload)
            self._charge(trace, protocol.REFINE_QUERY,
                         message.size_bytes())
            futures.append(network.transport.request_async(
                message, timeout=config.request_timeout or None))
        if futures:
            outcomes = yield all_of(futures)
            for outcome in outcomes:
                if outcome.ok and outcome.reply is not None:
                    self._charge(trace, protocol.REFINE_REPLY,
                                 outcome.reply_bytes)
                    for doc_id, score in \
                            outcome.reply.payload["scores"].items():
                        exact_scores[int(doc_id)] = float(score)
        refined = [RankedDocument(
            doc_id=document.doc_id,
            score=exact_scores.get(document.doc_id, document.score),
            covering_keys=document.covering_keys)
            for document in results]
        refined.sort(key=lambda document: (-document.score,
                                           document.doc_id))
        return refined

    # ------------------------------------------------------------------

    @staticmethod
    def _charge(trace: QueryTrace, kind: str, nbytes: int) -> None:
        """Attribute ``nbytes`` of ``kind`` traffic to one query's trace."""
        if nbytes <= 0:
            return
        trace.bytes_sent += int(nbytes)
        trace.bytes_by_kind[kind] = (trace.bytes_by_kind.get(kind, 0)
                                     + int(nbytes))
