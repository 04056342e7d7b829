"""Structured overlay (L2 of the AlvisP2P architecture).

A ring DHT with two routing-table constructions:

* **naive fingers** — classic exponential id-space fingers, whose hop count
  degrades when peer identifiers are skewed in the id space, and
* **hop-space fingers** — the construction of Klemm et al. (P2P 2007) cited
  by the paper, where fingers are placed at exponential *rank* (peer-count)
  distances, keeping lookups at ~log2(n) hops under arbitrary skew.

The package also contains churn handling with index handover.  The
congestion controller cited from Klemm et al. (NCA 2006) runs on the
query path: :class:`repro.core.runtime.CongestionWindow`.
"""

from repro.dht.hashing import hash_string, hash_terms
from repro.dht.idspace import (
    ID_BITS,
    ID_SPACE,
    clockwise_distance,
    in_interval,
    random_id,
)
from repro.dht.node import DHTNode
from repro.dht.ring import DHTRing
from repro.dht.routing import (
    FingerTableStrategy,
    HopSpaceFingers,
    NaiveFingers,
    skewed_ids,
    uniform_ids,
)

__all__ = [
    "hash_string",
    "hash_terms",
    "ID_BITS",
    "ID_SPACE",
    "clockwise_distance",
    "in_interval",
    "random_id",
    "DHTNode",
    "DHTRing",
    "FingerTableStrategy",
    "HopSpaceFingers",
    "NaiveFingers",
    "skewed_ids",
    "uniform_ids",
]
