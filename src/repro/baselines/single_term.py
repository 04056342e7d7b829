"""The single-term distributed index baseline ([11], Zhang & Suel).

"Distributed algorithms using traditional single-term indexes in
structured P2P networks generate unscalable network traffic during
retrieval, mainly because of the bandwidth consumption resulting from the
large posting list intersections required to process queries containing
several frequent terms."  (Section 1.)

The baseline runs on the AlvisP2P network itself: an
:class:`~repro.core.network.AlvisNetwork` whose ``truncation_k`` is at
least the collection size, built with ``build_index("single")``, holds
every term's *full* posting list at the term's responsible peer, scored
with global BM25 statistics from the shared statistics phase.
:func:`single_term_query` answers a conjunctive multi-keyword query over
that index with one of three strategies:

* ``fetch_all``: download every query term's full list to the querying
  peer and intersect there (the naive algorithm);
* ``pipelined``: fetch the rarest term's list, then send the running
  set of document ids to each further term's owner, which returns its
  scores for the ids it lists (the standard optimization — the full
  rarest list still travels, so traffic still grows with the
  collection);
* ``bloom``: fetch a Bloom filter of the rarest list, let the
  second-rarest term's owner return its postings that pass it, drop
  false positives (and add the rarest term's scores) at the rarest
  owner, then continue as ``pipelined`` (a constant factor only: the
  filter grows with the list).

Summed per-term BM25 weights make the final ranking equal centralized
conjunctive BM25.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from repro.core.keys import Key
from repro.ir.postings import PostingList
from repro.net import protocol

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.network import AlvisNetwork

__all__ = ["SingleTermTrace", "single_term_query"]

_MODES = ("fetch_all", "pipelined", "bloom")


@dataclass
class SingleTermTrace:
    """Per-query measurements, comparable to
    :class:`repro.core.retrieval.QueryTrace`."""

    terms: Tuple[str, ...]
    origin: int
    mode: str
    lookup_hops: int = 0
    request_messages: int = 0
    bytes_sent: int = 0
    postings_transferred: int = 0
    results: List[Tuple[int, float]] = field(default_factory=list)


def single_term_query(network: "AlvisNetwork", origin: int,
                      terms: Sequence[str], mode: str = "pipelined",
                      k: int = 10) -> SingleTermTrace:
    """Run one conjunctive multi-keyword query from ``origin``.

    ``network`` must hold a complete single-term index: built with
    ``build_index("single")`` and ``truncation_k`` at or above its
    collection size, so every list is untruncated.  The query's term
    owners are resolved in one
    :meth:`~repro.core.network.AlvisNetwork.lookup_owners` round.
    """
    terms = tuple(dict.fromkeys(terms))
    if not terms:
        raise ValueError("query has no terms")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if network.mode != "single" \
            or network.config.truncation_k < network.total_documents():
        raise ValueError(
            "single_term_query needs an untruncated single-term index: "
            "build_index('single') with truncation_k >= the collection "
            "size")
    trace = SingleTermTrace(terms=terms, origin=origin, mode=mode)
    bytes_before = network.bytes_sent_total()
    key_ids = {term: Key([term]).key_id for term in terms}
    owners, trace.lookup_hops = network.lookup_owners(origin,
                                                      key_ids.values())
    owner = {term: owners[key_id] for term, key_id in key_ids.items()}

    def ask(term: str, kind: str, payload: Dict) -> Dict:
        trace.request_messages += 1
        reply, _rtt = network.send(origin, owner[term], kind, payload)
        assert reply is not None
        return reply

    def fetch(term: str) -> PostingList:
        reply = ask(term, protocol.PROBE_KEY, {"key_terms": [term]})
        postings = reply["postings"] or PostingList()
        trace.postings_transferred += len(postings)
        return postings

    if mode == "fetch_all":
        scores = _intersect_at_origin([fetch(term) for term in terms])
    else:
        ordered = _rarest_first(terms, owner, ask)
        if mode == "bloom" and len(ordered) > 1:
            bloom = ask(ordered[0], protocol.BLOOM_GET,
                        {"term": ordered[0]})["bloom"]
            candidates: PostingList = ask(
                ordered[1], protocol.BLOOM_MATCH,
                {"term": ordered[1], "bloom": bloom})["postings"]
            trace.postings_transferred += len(candidates)
            # The rarest owner's scores verify the candidates first.
            remaining = [ordered[0]] + ordered[2:]
        else:
            candidates = fetch(ordered[0])
            remaining = ordered[1:]
        scores = {posting.doc_id: posting.score for posting in candidates}
        for term in remaining:
            if not scores:
                break
            found = ask(term, protocol.TERM_SCORES,
                        {"term": term, "doc_ids": list(scores)})["scores"]
            scores = {doc_id: score + found[doc_id]
                      for doc_id, score in scores.items()
                      if doc_id in found}
            trace.postings_transferred += len(scores)
    ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    trace.results = ranked[:k]
    trace.bytes_sent = int(network.bytes_sent_total() - bytes_before)
    return trace


def _rarest_first(terms: Tuple[str, ...], owner: Dict[str, int],
                  ask: Callable[[str, str, Dict], Dict]) -> List[str]:
    """The query terms by ascending global df (ties by term), read from
    the term owners' statistics with one ``DfGet`` per owner."""
    batches: Dict[int, List[str]] = {}
    for term in terms:
        batches.setdefault(owner[term], []).append(term)
    dfs: Dict[str, int] = {}
    for batch in batches.values():
        reply = ask(batch[0], protocol.DF_GET, {"terms": sorted(batch)})
        dfs.update(reply["dfs"])
    return sorted(terms, key=lambda term: (int(dfs.get(term, 0)), term))


def _intersect_at_origin(lists: List[PostingList]) -> Dict[int, float]:
    """Conjunctive intersection with score accumulation, shortest list
    first: ``{doc_id: summed score}``."""
    lists = sorted(lists, key=len)
    scores: Dict[int, float] = {posting.doc_id: posting.score
                                for posting in lists[0]}
    for postings in lists[1:]:
        found = {posting.doc_id: posting.score for posting in postings}
        scores = {doc_id: score + found[doc_id]
                  for doc_id, score in scores.items()
                  if doc_id in found}
        if not scores:
            break
    return scores
