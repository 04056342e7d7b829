"""Bandwidth accounting helpers (experiment E2).

Breaks the transport's per-kind byte counters into the categories the
companion papers report: overlay routing, index construction/maintenance
and retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.net import protocol

__all__ = ["TrafficBreakdown", "traffic_breakdown"]


@dataclass
class TrafficBreakdown:
    """Bytes by category."""

    routing: float
    indexing: float
    retrieval: float
    other: float

    @property
    def total(self) -> float:
        return self.routing + self.indexing + self.retrieval + self.other

    def as_dict(self) -> Dict[str, float]:
        return {"routing": self.routing, "indexing": self.indexing,
                "retrieval": self.retrieval, "other": self.other,
                "total": self.total}


def traffic_breakdown(bytes_by_kind: Mapping[str, float]
                      ) -> TrafficBreakdown:
    """Categorize a ``{message kind: bytes}`` mapping.

    Lookup hops are counted as routing; everything in
    ``protocol.INDEXING_KINDS`` as indexing; the remaining retrieval-path
    kinds as retrieval; unknown kinds are kept under ``other`` so
    nothing silently disappears.
    """
    routing = indexing = retrieval = other = 0.0
    retrieval_kinds = set(protocol.RETRIEVAL_KINDS) - {protocol.LOOKUP_HOP}
    for kind, value in bytes_by_kind.items():
        if kind == protocol.LOOKUP_HOP:
            routing += value
        elif kind in protocol.INDEXING_KINDS or kind == protocol.HANDOVER:
            indexing += value
        elif kind in retrieval_kinds:
            retrieval += value
        else:
            other += value
    return TrafficBreakdown(routing=routing, indexing=indexing,
                            retrieval=retrieval, other=other)
