"""Baselines the paper's claims are measured against.

* :mod:`repro.baselines.single_term` — the single-term index with *full*
  posting lists, whose multi-keyword retrieval traffic grows with
  collection size (the unscalable strategy analyzed by Zhang & Suel,
  P2P 2005, cited as [11] in the paper).  It runs on an
  :class:`~repro.core.network.AlvisNetwork` built with
  ``build_index("single")`` and ``truncation_k`` at or above the
  collection size; :func:`single_term_query` intersects with the naive
  fetch-all, the pipelined rarest-first or the Bloom-filter strategy.
* :mod:`repro.baselines.centralized` — a single-node BM25 engine over the
  whole collection, the quality reference for "retrieval quality fully
  comparable to state-of-the-art centralized search engines".
"""

from repro.baselines.centralized import CentralizedEngine
from repro.baselines.single_term import SingleTermTrace, single_term_query

__all__ = ["CentralizedEngine", "SingleTermTrace", "single_term_query"]
