"""Outside-in span tracer for the five engine layers.

Nothing under ``src/`` is edited: :class:`Tracer` swaps class attributes
(which works despite ``__slots__``) and ``from``-imported module
functions for wrappers that record one span per call — name, layer,
start, end, parent, and the operation the span belongs to.  Three kinds
of boundary are covered:

* **entry points** — the public methods in :data:`ENTRY_POINTS`.  A
  generator function (``DHTRing.lookup_many_async``) is traced per
  resumption, so only the time its body runs is counted, never the
  virtual-time waits in between;
* **processes** — generators handed to ``Simulator.spawn`` are proxied
  the same way and attributed to the layer whose module defines them
  (the query process of ``core/runtime.py`` is ``core`` time even
  though the kernel steps it);
* **event callbacks** — callables handed to ``Simulator.schedule`` /
  ``schedule_at`` become spans of the layer that defined them, so the
  transport's delivery closures are ``net`` time and what remains as
  ``Simulator.run`` self time is the kernel loop itself.

A layer's *self time* is its spans' duration minus the part covered by
child spans.  Aggregates are kept per (layer, span name, parent layer);
the full span records of the first operations are kept too, up to a
cap, and written out by :meth:`Tracer.report`.  An entry point that no
longer exists is skipped and listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "LAYERS", "Tracer"]

LAYERS = ("sim", "dht", "net", "ir", "core")

#: (layer, module, class or None for a module function, attribute).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim", "repro.sim.events", "Simulator", "run"),
    ("sim", "repro.sim.events", "Simulator", "run_until"),
    ("dht", "repro.dht.ring", "DHTRing", "lookup"),
    ("dht", "repro.dht.ring", "DHTRing", "lookup_many"),
    ("dht", "repro.dht.ring", "DHTRing", "lookup_many_async"),
    ("dht", "repro.dht.ring", "DHTRing", "add_node"),
    ("dht", "repro.dht.ring", "DHTRing", "remove_node"),
    ("dht", "repro.dht.ring", "DHTRing", "maintain"),
    ("dht", "repro.dht.churn", "ChurnProcess", "join"),
    ("dht", "repro.dht.churn", "ChurnProcess", "leave"),
    ("net", "repro.net.transport", "SimTransport", "request"),
    ("net", "repro.net.transport", "SimTransport", "request_async"),
    ("net", "repro.net.transport", "SimTransport", "send_async"),
    ("net", "repro.net.transport", "SimTransport", "deliver_hop"),
    ("net", "repro.net.message", "Message", "size_bytes"),
    ("ir", "repro.ir.analysis", "Analyzer", "analyze"),
    ("ir", "repro.ir.search", "LocalSearchEngine", "top_k_for_key"),
    ("ir", "repro.ir.search", "LocalSearchEngine", "score_documents"),
    ("ir", "repro.ir.postings", "PostingList", "merge"),
    ("ir", "repro.ir.inverted_index", "InvertedIndex", "cooccurring_terms"),
    ("core", "repro.core.hdk", "HDKIndexer", "build"),
    ("core", "repro.core.retrieval", "RetrievalComponent", "query"),
    ("core", "repro.core.runtime", "AsyncQueryRuntime", "submit"),
    ("core", "repro.core.peer", "AlvisPeer", "on_message"),
    ("core", "repro.core.ranking", None, "merge_and_rank"),
    ("core", "repro.core.ranking", None, "rank_with_margin"),
    # The facade calls the workloads make: the root span of every
    # operation, so the time between two layers' entry points (the
    # orchestration in core/network.py) is attributed, not lost.
    ("core", "repro.core.network", "AlvisNetwork", "distribute_documents"),
    ("core", "repro.core.network", "AlvisNetwork", "run_statistics_phase"),
    ("core", "repro.core.network", "AlvisNetwork", "build_index"),
    ("core", "repro.core.network", "AlvisNetwork", "query"),
    ("core", "repro.core.network", "AlvisNetwork", "run_workload"),
    ("core", "repro.core.network", "AlvisNetwork", "publish_incremental"),
    ("core", "repro.core.network", "AlvisNetwork", "unpublish"),
)

#: Span records are kept for the first operations only, up to a cap.
KEEP_OPERATIONS = 50
MAX_SPANS = 20000

#: Entry point that marks one query: below a root span that already
#: holds a query (an open-loop ``run_workload``) it starts a new
#: operation, so every query's spans share an id of their own.
_STARTS_QUERY = ("AsyncQueryRuntime.submit",)


def _layer_of_code(code: Any) -> str:
    """The engine layer whose module defines ``code`` (else "other")."""
    # The last "repro": a checkout may sit below a directory of that name.
    _, found, below = ("/" + code.co_filename.replace("\\", "/")
                       ).rpartition("/repro/")
    layer = below.split("/")[0] if found and "/" in below else ""
    return layer if layer in LAYERS else "other"


def _code_of(callback: Any) -> Any:
    """The code object behind a plain function, bound method or partial."""
    for candidate in (callback, getattr(callback, "__func__", None),
                      getattr(callback, "func", None)):
        code = getattr(candidate, "__code__", None)
        if code is not None:
            return code
    return None


class Tracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self) -> None:
        #: (layer, name, parent layer) -> [calls, total seconds, self
        #: seconds, spans]; a generator call is one call, many spans.
        self.aggregates: Dict[Tuple[str, str, str], List[float]] = {}
        #: Result observations: keys routed, hops taken, zero-hop keys.
        self.counts: Dict[str, float] = {"dht.keys": 0.0, "dht.hops": 0.0,
                                         "dht.zero_hop_keys": 0.0}
        #: Kept span records: [id, parent id, operation, layer, name,
        #: start, end].
        self.spans: List[List[Any]] = []
        self.spans_dropped = 0
        self.missing: List[str] = []
        self.operations = 0
        self._stack: List[List[Any]] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._code_info: Dict[Any, Tuple[str, str]] = {}
        self._span_ids = 0
        self._operations_with_query: set = set()

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _enter(self, layer: str, name: str, counted: int = 1,
               operation: Optional[int] = None) -> None:
        stack = self._stack
        if operation is None:
            if stack:
                operation = stack[-1][5]
            else:
                operation = self.operations
                self.operations += 1
        self._span_ids += 1
        # [layer, name, child seconds, counted, span id, operation, start]
        stack.append([layer, name, 0.0, counted, self._span_ids, operation,
                      time.perf_counter()])

    def _exit(self) -> None:
        end = time.perf_counter()
        layer, name, child_s, counted, span_id, operation, start = \
            self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (layer, name, parent[0] if parent is not None else "")
        cell = self.aggregates.get(key)
        if cell is None:
            cell = self.aggregates[key] = [0, 0.0, 0.0, 0]
        cell[0] += counted
        cell[1] += duration
        cell[2] += duration - child_s
        cell[3] += 1
        if operation < KEEP_OPERATIONS:
            if len(self.spans) < MAX_SPANS:
                self.spans.append([span_id,
                                   parent[4] if parent is not None else 0,
                                   operation, layer, name, start, end])
            else:
                self.spans_dropped += 1

    def _current_operation(self) -> Optional[int]:
        return self._stack[-1][5] if self._stack else None

    def _query_operation(self) -> Optional[int]:
        """The operation a newly submitted query belongs to: the
        current one if it has no query yet, else a new one."""
        operation = self._current_operation()
        if operation is None or operation in self._operations_with_query:
            operation = self.operations
            self.operations += 1
        self._operations_with_query.add(operation)
        return operation

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _wrap_call(self, layer: str, name: str, function: Callable,
                   observe: Optional[Callable[[Any], None]]) -> Callable:
        enter, leave = self._enter, self._exit
        starts_query = name in _STARTS_QUERY

        def traced(*args, **kwargs):
            enter(layer, name, 1,
                  self._query_operation() if starts_query else None)
            try:
                result = function(*args, **kwargs)
            finally:
                leave()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = function
        return traced

    def _wrap_generator_function(self, layer: str, name: str,
                                 function: Callable,
                                 observe: Optional[Callable[[Any], None]]
                                 ) -> Callable:
        def traced(*args, **kwargs):
            return self._drive(layer, name, function(*args, **kwargs),
                               observe)

        traced.__wrapped__ = function
        return traced

    def _drive(self, layer: str, name: str, generator: Any,
               observe: Optional[Callable[[Any], None]]):
        """Proxy ``generator``: one span per resumption of its body.

        The operation current when the proxy was created is restored on
        every step, so the spans of one query share its id however the
        kernel interleaves it with others.
        """
        return self._steps(layer, name, generator, observe,
                           self._current_operation())

    def _steps(self, layer: str, name: str, generator: Any,
               observe: Optional[Callable[[Any], None]],
               operation: Optional[int]):
        counted = 1
        send_value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            self._enter(layer, name, counted, operation)
            counted = 0
            try:
                if thrown is None:
                    yielded = generator.send(send_value)
                else:
                    yielded = generator.throw(thrown)
            except StopIteration as stop:
                if observe is not None:
                    observe(stop.value)
                return stop.value
            finally:
                self._exit()
            try:
                send_value = yield yielded
                thrown = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as error:  # re-raised inside the body
                thrown = error

    def _callback_span(self, callback: Callable[[], None]
                       ) -> Callable[[], None]:
        code = _code_of(callback)
        info = self._code_info.get(code)
        if info is None:
            if code is None:
                info = ("sim", "callback")
            else:
                info = (_layer_of_code(code),
                        getattr(code, "co_qualname", code.co_name))
            self._code_info[code] = info
        layer, name = info
        enter, leave = self._enter, self._exit
        # The scheduling span's operation travels with the event, so a
        # query's deliveries and replies keep its id.
        operation = self._current_operation()

        def run() -> None:
            enter(layer, name, 1, operation)
            try:
                callback()
            finally:
                leave()

        return run

    # -- observers: what a lookup resolved, read from its result --------

    def _observe_lookup(self, result: Any) -> None:
        self.counts["dht.keys"] += 1
        self.counts["dht.hops"] += result.hops
        if result.hops == 0:
            self.counts["dht.zero_hop_keys"] += 1

    def _observe_batch_lookup(self, result: Any) -> None:
        hops = result.per_key_hops.values()
        self.counts["dht.keys"] += len(result.owners)
        self.counts["dht.hops"] += sum(hops)
        # Keys answered from the ring's owner memo never enter
        # per_key_hops with a hop; both kinds cost no LookupHop.
        self.counts["dht.zero_hop_keys"] += sum(
            1 for count in hops if count == 0)

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Patch every entry point that exists; list the rest as missing."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        observers = {"DHTRing.lookup": self._observe_lookup,
                     "DHTRing.lookup_many": self._observe_batch_lookup,
                     "DHTRing.lookup_many_async":
                         self._observe_batch_lookup}
        for layer, module_name, class_name, attribute in ENTRY_POINTS:
            label = (f"{class_name}.{attribute}" if class_name
                     else f"{module_name.rsplit('.', 1)[-1]}.{attribute}")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                function = owner.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{label}")
                continue
            if not inspect.isfunction(function):
                self.missing.append(f"{module_name}:{label}")
                continue
            wrap = (self._wrap_generator_function
                    if inspect.isgeneratorfunction(function)
                    else self._wrap_call)
            traced = wrap(layer, label, function, observers.get(label))
            if class_name:
                self._patch(owner, attribute, traced)
                continue
            # A module function: rebind it in every namespace that
            # imported it by name.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if (namespace is not None
                        and getattr(other, "__name__", "").startswith("repro")
                        and namespace.get(attribute) is function):
                    self._patch(other, attribute, traced)
        self._install_kernel_hooks()

    def _install_kernel_hooks(self) -> None:
        """Attribute spawned processes and scheduled callbacks."""
        try:
            from repro.sim.events import Simulator
        except ImportError:
            self.missing.append("repro.sim.events:Simulator")
            return
        tracer = self

        for attribute in ("schedule", "schedule_at"):
            original = Simulator.__dict__.get(attribute)
            if original is None:
                self.missing.append(f"repro.sim.events:Simulator.{attribute}")
                continue

            def traced_schedule(simulator, when, callback,
                                _original=original):
                return _original(simulator, when,
                                 tracer._callback_span(callback))

            traced_schedule.__wrapped__ = original
            self._patch(Simulator, attribute, traced_schedule)

        original_spawn = Simulator.__dict__.get("spawn")
        if original_spawn is None:
            self.missing.append("repro.sim.events:Simulator.spawn")
            return

        def traced_spawn(simulator, generator, name=None):
            code = generator.gi_code
            return original_spawn(
                simulator,
                tracer._drive(_layer_of_code(code),
                              getattr(code, "co_qualname", code.co_name),
                              generator, None),
                name=name)

        traced_spawn.__wrapped__ = original_spawn
        self._patch(Simulator, "spawn", traced_spawn)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Reading the result
    # ------------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, spans and self seconds."""
        def empty() -> Dict[str, float]:
            return {"calls": 0.0, "spans": 0.0, "self_s": 0.0}

        totals = {layer: empty() for layer in LAYERS}
        for (layer, _name, _parent), (calls, _total, self_s, spans) in \
                self.aggregates.items():
            cell = totals.setdefault(layer, empty())
            cell["calls"] += calls
            cell["spans"] += spans
            cell["self_s"] += self_s
        return totals

    def span_totals(self, *names: str) -> Tuple[float, float]:
        """(calls, inclusive seconds) summed over the named spans."""
        calls = 0.0
        total_s = 0.0
        for (_layer, name, _parent), (count, total, _self, _spans) in \
                self.aggregates.items():
            if name in names:
                calls += count
                total_s += total
        return calls, total_s

    def report(self) -> Dict[str, Any]:
        """Everything recorded, as JSON-ready data."""
        return {
            "aggregates": [
                {"layer": layer, "name": name, "parent_layer": parent,
                 "calls": calls, "spans": spans, "total_s": total,
                 "self_s": self_s}
                for (layer, name, parent), (calls, total, self_s, spans)
                in sorted(self.aggregates.items())],
            "counts": dict(self.counts),
            "missing_entry_points": list(self.missing),
            "operations": self.operations,
            "span_fields": ["id", "parent", "operation", "layer", "name",
                            "start", "end"],
            "spans": list(self.spans),
            "spans_dropped": self.spans_dropped,
        }
