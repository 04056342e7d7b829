"""Declarative open-workload specs for the async query runtime.

A :class:`Workload` names the three independent choices of an open
workload, which :meth:`AlvisNetwork.run_workload` runs:

* the **arrival process** (:class:`PoissonArrivals` — exponential
  interarrival gaps, i.e. a Poisson open workload),
* the **origin policy** (:class:`UniformOrigins` draws a live peer per
  query, :class:`RoundRobinOrigins` cycles a pinned list),
* the **query source** — the explicit query sequence itself (scenario
  layers generate it from a :class:`~repro.corpus.queries.QueryWorkload`
  pool with drift and pass the materialized list down).

RNG discipline: :meth:`Workload.compile` takes *two* derived streams —
one for arrivals, one for origin selection.  On a single stream the
``rng.choice`` draws of uniform origins would interleave with the
``rng.expovariate`` gaps, so pinning the origins would shift every
arrival time; with split streams the arrival schedule is identical
whichever origin policy is plugged in (``tests/test_core_workload.py``
pins this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Protocol, Sequence, Tuple, Union

__all__ = ["ArrivalProcess", "OriginPolicy", "PoissonArrivals",
           "RoundRobinOrigins", "Submission", "UniformOrigins", "Workload"]

#: One query: a raw string (analyzed downstream) or a term sequence.
Query = Union[str, Sequence[str]]


@dataclass(frozen=True)
class Submission:
    """One compiled arrival: when, from where, and what to ask."""

    at: float           #: arrival time, relative to the workload start
    origin: int         #: submitting peer
    query: Query


class ArrivalProcess(Protocol):
    """Generates interarrival gaps for an open workload."""

    def gaps(self, rng: random.Random, count: int) -> List[float]:
        """Return ``count`` successive interarrival gaps (seconds)."""
        ...


class OriginPolicy(Protocol):
    """Chooses the submitting peer for each query of a workload."""

    def pick(self, rng: random.Random, index: int,
             peer_ids: Sequence[int]) -> int:
        """The origin peer for query ``index``."""
        ...


@dataclass(frozen=True)
class PoissonArrivals:
    """Exponential interarrival gaps: ``rate`` arrivals per virtual second."""

    rate: float = 50.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(
                f"arrival_rate must be positive, got {self.rate}")

    def gaps(self, rng: random.Random, count: int) -> List[float]:
        return [rng.expovariate(self.rate) for _ in range(count)]


@dataclass(frozen=True)
class UniformOrigins:
    """Each query originates at a peer drawn uniformly from all peers."""

    def pick(self, rng: random.Random, index: int,
             peer_ids: Sequence[int]) -> int:
        return rng.choice(peer_ids)


@dataclass(frozen=True)
class RoundRobinOrigins:
    """Queries cycle through a pinned origin list (no RNG draws)."""

    origins: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "origins", tuple(self.origins))
        if not self.origins:
            raise ValueError("origins must not be empty")

    def pick(self, rng: random.Random, index: int,
             peer_ids: Sequence[int]) -> int:
        return self.origins[index % len(self.origins)]


@dataclass(frozen=True)
class Workload:
    """An open workload: queries + arrival process + origin policy.

    Submit with :meth:`AlvisNetwork.run_workload` (or
    :meth:`~AlvisNetwork.submit_workload` to overlap several workloads
    on one simulator run).
    """

    queries: Tuple[Query, ...]
    arrival: ArrivalProcess = field(default_factory=PoissonArrivals)
    origins: OriginPolicy = field(default_factory=UniformOrigins)

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))

    def compile(self, arrival_rng: random.Random,
                origin_rng: random.Random,
                peer_ids: Sequence[int],
                start: float = 0.0) -> List[Submission]:
        """Materialize the arrival schedule.

        ``arrival_rng`` and ``origin_rng`` must be *distinct* derived
        streams so the arrival schedule never depends on how many random
        draws the origin policy makes.
        """
        gaps = self.arrival.gaps(arrival_rng, len(self.queries))
        submissions: List[Submission] = []
        arrival = start
        for index, query in enumerate(self.queries):
            arrival += gaps[index]
            origin = self.origins.pick(origin_rng, index, peer_ids)
            submissions.append(Submission(arrival, origin, query))
        return submissions
