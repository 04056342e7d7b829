"""Declarative scenario specifications.

A :class:`Scenario` is data, not code: a network shape, a base
:class:`WorkloadSpec`, a timeline of typed events and explicit
:class:`PassCriteria`.  The :class:`~repro.scenarios.runner.ScenarioRunner`
compiles it onto the event kernel; nothing here touches the simulator.

Every event carries ``at`` — virtual seconds after the scenario starts —
and waves spread their sub-events over ``spread`` further seconds.  All
specs are frozen dataclasses so scenarios can be shared, scaled with
:func:`dataclasses.replace` and hashed into registries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.scenarios.report import CriterionResult

__all__ = ["FlashCrowd", "GracefulDeparture", "Heal", "JoinWave",
           "LeaveWave", "Partition", "PassCriteria", "Scenario",
           "SlowPeers", "TimelineEvent", "WorkloadSpec"]


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class JoinWave:
    """``count`` fresh peers join (with key-range handover), spread over
    ``[at, at + spread]``."""

    at: float
    count: int
    spread: float = 0.0

    def __post_init__(self):
        _non_negative("at", self.at)
        _positive("count", self.count)
        _non_negative("spread", self.spread)


@dataclass(frozen=True)
class LeaveWave:
    """``count`` peers *crash* (fail-stop, no handover), spread over
    ``[at, at + spread]``.  Victims are drawn from the non-protected
    live peers by the event's own RNG stream."""

    at: float
    count: int
    spread: float = 0.0

    def __post_init__(self):
        _non_negative("at", self.at)
        _positive("count", self.count)
        _non_negative("spread", self.spread)


@dataclass(frozen=True)
class GracefulDeparture:
    """``count`` peers leave cleanly — key handover to the ring
    successor before the endpoint detaches."""

    at: float
    count: int = 1
    spread: float = 0.0

    def __post_init__(self):
        _non_negative("at", self.at)
        _positive("count", self.count)
        _non_negative("spread", self.spread)


@dataclass(frozen=True)
class Partition:
    """Isolate a random ``fraction`` of the non-protected peers from the
    rest of the network (messages across the cut are dropped)."""

    at: float
    fraction: float = 0.3

    def __post_init__(self):
        _non_negative("at", self.at)
        if not 0 < self.fraction < 1:
            raise ValueError(
                f"fraction must be in (0, 1), got {self.fraction}")


@dataclass(frozen=True)
class Heal:
    """Reconnect all partitioned groups."""

    at: float

    def __post_init__(self):
        _non_negative("at", self.at)


@dataclass(frozen=True)
class FlashCrowd:
    """A query spike: ``queries`` extra arrivals at ``arrival_rate``
    starting at ``at``, with per-query topic drift (interest shift)."""

    at: float
    queries: int
    arrival_rate: float
    drift_per_query: float = 0.0

    def __post_init__(self):
        _non_negative("at", self.at)
        _positive("queries", self.queries)
        _positive("arrival_rate", self.arrival_rate)
        _non_negative("drift_per_query", self.drift_per_query)


@dataclass(frozen=True)
class SlowPeers:
    """Degrade a random ``fraction`` of the non-protected peers:
    multiply their transport service rate by ``service_rate_factor``
    (requires ``config.service_rate > 0``) and/or shrink their probe
    cache to ``cache_bytes``."""

    at: float
    fraction: float = 0.25
    service_rate_factor: Optional[float] = 0.25
    cache_bytes: Optional[int] = None

    def __post_init__(self):
        _non_negative("at", self.at)
        if not 0 < self.fraction < 1:
            raise ValueError(
                f"fraction must be in (0, 1), got {self.fraction}")
        if self.service_rate_factor is not None \
                and not 0 < self.service_rate_factor <= 1:
            raise ValueError(
                f"service_rate_factor must be in (0, 1], got "
                f"{self.service_rate_factor}")
        if self.cache_bytes is not None and self.cache_bytes < 0:
            raise ValueError(
                f"cache_bytes must be >= 0, got {self.cache_bytes}")


TimelineEvent = Union[JoinWave, LeaveWave, GracefulDeparture, Partition,
                      Heal, FlashCrowd, SlowPeers]


@dataclass(frozen=True)
class WorkloadSpec:
    """The base query stream of a scenario.

    ``pinned_origins`` > 0 pins the stream to the first N peers
    (round-robin) and *protects* them from crash/departure/partition
    victim selection — the survivable-client view of an adversarial
    network; 0 draws origins uniformly from all initial peers.
    """

    queries: int = 40
    arrival_rate: float = 50.0
    drift_per_query: float = 0.0
    pinned_origins: int = 0

    def __post_init__(self):
        _positive("queries", self.queries)
        _positive("arrival_rate", self.arrival_rate)
        _non_negative("drift_per_query", self.drift_per_query)
        _non_negative("pinned_origins", self.pinned_origins)


@dataclass(frozen=True)
class PassCriteria:
    """Explicit floors/ceilings a scenario run must satisfy.

    ``None`` disables a criterion; ``min_completed_fraction`` defaults
    to 1.0 — every submitted query must complete (drops surface in
    probe outcomes, never as lost queries).
    """

    min_recall_at_k: Optional[float] = None
    max_p99_latency: Optional[float] = None
    min_goodput_qps: Optional[float] = None
    max_handover_bytes: Optional[int] = None
    min_completed_fraction: float = 1.0

    def evaluate(self, *, recall_at_k: float, latency_p99: float,
                 goodput_qps: float, handover_bytes: int,
                 completed_fraction: float) -> List[CriterionResult]:
        """Check every declared criterion against measured values."""
        results: List[CriterionResult] = []

        def floor(name: str, threshold: Optional[float],
                  value: float) -> None:
            if threshold is not None:
                results.append(CriterionResult(
                    name, ">=", float(threshold), float(value),
                    value >= threshold))

        def ceiling(name: str, threshold: Optional[float],
                    value: float) -> None:
            if threshold is not None:
                results.append(CriterionResult(
                    name, "<=", float(threshold), float(value),
                    value <= threshold))

        floor("recall_at_k", self.min_recall_at_k, recall_at_k)
        ceiling("p99_latency", self.max_p99_latency, latency_p99)
        floor("goodput_qps", self.min_goodput_qps, goodput_qps)
        ceiling("handover_bytes", self.max_handover_bytes,
                handover_bytes)
        floor("completed_fraction", self.min_completed_fraction,
              completed_fraction)
        return results


@dataclass(frozen=True)
class Scenario:
    """A named adversarial workload: network shape + stream + timeline
    + pass criteria."""

    name: str
    description: str
    num_peers: int = 16
    num_documents: int = 120
    vocabulary_size: int = 900
    num_topics: int = 6
    pool_size: int = 30
    index_mode: str = "hdk"
    #: ``AlvisConfig`` overrides as a tuple of pairs (kept hashable).
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    timeline: Tuple[TimelineEvent, ...] = ()
    criteria: PassCriteria = field(default_factory=PassCriteria)

    def __post_init__(self):
        _positive("num_peers", self.num_peers)
        object.__setattr__(self, "config_overrides",
                           tuple((str(key), value) for key, value
                                 in self.config_overrides))
        object.__setattr__(self, "timeline", tuple(self.timeline))

    def scaled(self, num_peers: Optional[int] = None,
               queries: Optional[int] = None) -> "Scenario":
        """A resized copy (CLI ``--peers`` / benchmark smoke mode)."""
        scenario = self
        if num_peers is not None:
            scenario = dataclasses.replace(scenario, num_peers=num_peers)
        if queries is not None:
            scenario = dataclasses.replace(
                scenario,
                workload=dataclasses.replace(scenario.workload,
                                             queries=queries))
        return scenario
