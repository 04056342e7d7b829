"""The paper's primary contribution: key-based distributed indexing/retrieval.

Layer 3 (distributed IR) and Layer 4 (distributed ranking) of the AlvisP2P
architecture:

* :mod:`repro.core.keys` — indexing-term combinations ("keys"),
* :mod:`repro.core.global_index` — the per-peer fragment of the global
  index (truncated posting lists, contributor sets, popularity statistics),
* :mod:`repro.core.global_stats` — globally aggregated collection
  statistics for BM25,
* :mod:`repro.core.hdk` — indexing with Highly Discriminative Keys,
* :mod:`repro.core.qdi` — Query-Driven Indexing,
* :mod:`repro.core.lattice` — query-lattice exploration (Figure 1),
* :mod:`repro.core.runtime` — the query engine: every query runs on the
  event kernel (per-probe or frontier-batched lookups and probes,
  per-peer probe cache, top-k early termination, per-origin dispatch
  queues for cross-query batching, level pipelining, clock-measured
  latency),
* :mod:`repro.core.cache` — the byte-budgeted LRU cache backing it,
* :mod:`repro.core.retrieval` — the distributed retrieval component,
* :mod:`repro.core.ranking` — result merging and distributed BM25,
* :mod:`repro.core.peer` / :mod:`repro.core.network` — the peer client
  and the network facade tying all five layers together.
"""

from repro.core.access import AccessControlError, AccessPolicy
from repro.core.config import AlvisConfig
from repro.core.hdk import HDKIndexer, HDKStats
from repro.core.keys import Key
from repro.core.lattice import ExplorationOutcome, LatticeExplorer, ProbeStatus
from repro.core.network import AlvisNetwork
from repro.core.peer import AlvisPeer
from repro.core.qdi import QDIManager, QDIStats
from repro.core.retrieval import QueryTrace, RetrievalComponent

__all__ = [
    "AccessControlError",
    "AccessPolicy",
    "AlvisConfig",
    "HDKIndexer",
    "HDKStats",
    "Key",
    "ExplorationOutcome",
    "LatticeExplorer",
    "ProbeStatus",
    "AlvisNetwork",
    "AlvisPeer",
    "QDIManager",
    "QDIStats",
    "QueryTrace",
    "RetrievalComponent",
]
