"""Postings and posting lists.

A :class:`Posting` is a document reference with a relevance score — this is
what travels over the network, so its wire size is fixed and small (the
heart of the paper's bounded-bandwidth argument).  A :class:`PostingList`
carries the truncation flag that drives query-lattice pruning: an
*untruncated* list is complete, so every sub-combination of its key is
redundant for the query at hand.

**Packed wire encoding.**  :func:`pack_postings` / :func:`unpack_postings`
are the flat array encoding of a posting list — exactly the layout the
wire codec (:mod:`repro.net.wire`) and the ``wire_size()`` byte model
charge: an 8-byte global df, a 1-byte truncation flag, a 4-byte count,
then 16 bytes (``>Qd``) per posting.  The entry block is produced and
consumed by a numpy-vectorized path (big-endian structured dtype, so
``tobytes()`` is bitwise-identical to the ``struct.pack`` loop) with a
pure-Python fallback; ``REPRO_PURE_PYTHON=1`` pins the fallback.
Inside the simulator a payload carries the :class:`PostingList` itself;
its ``wire_size()`` is the length of this encoding.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.util.npcompat import np

__all__ = ["Posting", "PostingList",
           "POSTING_WIRE_BYTES", "POSTINGS_ENVELOPE_BYTES",
           "pack_postings", "unpack_postings",
           "pack_entries", "unpack_entries"]

#: Wire size of one posting: 8-byte document id + 8-byte score.
POSTING_WIRE_BYTES = 16

#: Fixed posting-list envelope: global df (8) + truncated flag (1) +
#: length prefix (4).
_LIST_ENVELOPE_BYTES = 13

#: Public name for the envelope size (the packed layout's fixed prefix).
POSTINGS_ENVELOPE_BYTES = _LIST_ENVELOPE_BYTES

_ENVELOPE_STRUCT = struct.Struct(">QBI")
_POSTING_STRUCT = struct.Struct(">Qd")

#: Big-endian structured dtype matching ``>Qd`` per posting: ``tobytes()``
#: of an array with this dtype equals the concatenated ``struct.pack``
#: output byte for byte, which is what keeps the vectorized path
#: bitwise-identical to the pure-Python one.
_PACKED_DTYPE = (np.dtype([("doc_id", ">u8"), ("score", ">f8")])
                 if np is not None else None)


@dataclass(frozen=True)
class Posting:
    """A scored document reference."""

    doc_id: int
    score: float

    def wire_size(self) -> int:
        """Bytes this posting occupies in a message payload."""
        return POSTING_WIRE_BYTES


class PostingList:
    """A (possibly truncated) list of postings for one key.

    Invariants maintained by construction:

    * entries are sorted by descending score (ties broken by ascending
      document id, so ordering is total and deterministic);
    * document ids are unique;
    * ``global_df`` is the *untruncated* result-set size; ``truncated`` is
      true iff ``len(entries) < global_df``.
    """

    __slots__ = ("entries", "global_df")

    def __init__(self, entries: Optional[Iterable[Posting]] = None,
                 global_df: Optional[int] = None):
        ordered = sorted(entries or [],
                         key=lambda posting: (-posting.score, posting.doc_id))
        deduped: List[Posting] = []
        seen = set()
        for posting in ordered:
            if posting.doc_id not in seen:
                seen.add(posting.doc_id)
                deduped.append(posting)
        self.entries: List[Posting] = deduped
        self.global_df: int = (len(deduped) if global_df is None
                               else int(global_df))
        if self.global_df < len(self.entries):
            raise ValueError(
                f"global_df {self.global_df} smaller than stored entries "
                f"{len(self.entries)}")

    @classmethod
    def _from_canonical(cls, entries: Sequence[Posting],
                        global_df: int) -> "PostingList":
        """Build from entries already in canonical form.

        Callers must guarantee the invariants the public constructor
        enforces: sorted by ``(-score, doc_id)`` with unique document
        ids.  Every internal producer of such entries (``truncate``,
        ``merge``, slices of an existing list) re-enters construction
        through here, skipping the redundant sort-and-dedup pass that
        dominated indexing-phase profiles at 10k peers.
        """
        plist = cls.__new__(cls)
        plist.entries = list(entries)
        plist.global_df = int(global_df)
        if plist.global_df < len(plist.entries):
            raise ValueError(
                f"global_df {plist.global_df} smaller than stored "
                f"entries {len(plist.entries)}")
        return plist

    # ------------------------------------------------------------------

    @property
    def truncated(self) -> bool:
        """True when the stored entries are a strict prefix of the result."""
        return len(self.entries) < self.global_df

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def doc_ids(self) -> List[int]:
        """Document ids in rank order."""
        return [posting.doc_id for posting in self.entries]

    def wire_size(self) -> int:
        """Bytes the list occupies in a message payload.

        Constant-bounded for truncated lists — the property that makes
        AlvisP2P retrieval traffic independent of collection size.
        """
        return _LIST_ENVELOPE_BYTES + POSTING_WIRE_BYTES * len(self.entries)

    # ------------------------------------------------------------------

    def truncate(self, k: int) -> "PostingList":
        """Return a copy keeping only the top ``k`` entries.

        ``global_df`` is preserved, so the copy knows it is truncated.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return PostingList._from_canonical(self.entries[:k],
                                           self.global_df)

    @staticmethod
    def from_scores(doc_ids: Sequence[int], scores: Sequence[float],
                    global_df: Optional[int] = None,
                    limit: Optional[int] = None) -> "PostingList":
        """Build a (possibly truncated) list from parallel id/score arrays.

        The packed complement of building one :class:`Posting` per
        candidate and calling :meth:`truncate`: with a ``limit``, only
        the top entries by ``(-score, doc_id)`` are materialized as
        ``Posting`` objects — the owner-side publish path scores every
        matching document but ships ``k`` of them, so skipping the other
        allocations is the win.  Accepts plain sequences or numpy
        arrays; the result is identical to the build-all-then-truncate
        construction.
        """
        count = len(doc_ids)
        resolved_df = count if global_df is None else int(global_df)
        if limit is not None and limit < count:
            top = heapq.nsmallest(
                limit, range(count),
                key=lambda index: (-scores[index], doc_ids[index]))
            entries = [Posting(int(doc_ids[index]), float(scores[index]))
                       for index in top]
        else:
            entries = [Posting(int(doc_id), float(score))
                       for doc_id, score in zip(doc_ids, scores)]
        return PostingList(entries, global_df=resolved_df)

    def merge(self, other: "PostingList",
              limit: Optional[int] = None) -> "PostingList":
        """Merge two lists (max score wins on duplicate ids).

        ``global_df`` of the merge is a lower bound: the true union size is
        unknown without full lists, so we take the max of the inputs and the
        merged length — sufficient for the aggregation protocol, which
        sums *contributing* dfs separately.
        """
        if not self.entries or not other.entries:
            # One side empty (the first contribution to a key, most of
            # the index-construction merges): the union is the other
            # side, already canonical.
            source = other if not self.entries else self
            merged = (source.entries[:limit] if limit is not None
                      else source.entries)
            global_df = max(self.global_df, other.global_df,
                            len(source.entries))
            return PostingList._from_canonical(merged, global_df)
        # Both sides are canonical runs, so this sort is a linear
        # two-run merge (Timsort galloping); in canonical order the
        # first occurrence of a doc id carries its max score, so
        # keep-first dedup implements max-score-wins.
        ordered = sorted(self.entries + other.entries,
                         key=lambda posting: (-posting.score,
                                              posting.doc_id))
        merged = []
        seen = set()
        for posting in ordered:
            if posting.doc_id not in seen:
                seen.add(posting.doc_id)
                merged.append(posting)
        if limit is not None:
            merged = merged[:limit]
        global_df = max(self.global_df, other.global_df, len(seen))
        return PostingList._from_canonical(merged, global_df)

    @staticmethod
    def union(lists: Iterable["PostingList"],
              limit: Optional[int] = None) -> "PostingList":
        """Union of many lists (max score per document)."""
        result = PostingList()
        for posting_list in lists:
            result = result.merge(posting_list, limit=None)
        if limit is not None:
            result = PostingList._from_canonical(result.entries[:limit],
                                                 result.global_df)
        return result

    def __repr__(self) -> str:
        flag = "truncated" if self.truncated else "complete"
        return (f"PostingList({len(self.entries)}/{self.global_df} "
                f"{flag})")


# ----------------------------------------------------------------------
# Packed wire encoding
# ----------------------------------------------------------------------

def _pack_entries_python(entries: Sequence[Posting]) -> bytes:
    """Reference entry-block encoder: one ``>Qd`` struct per posting."""
    pack = _POSTING_STRUCT.pack
    return b"".join(pack(int(posting.doc_id), float(posting.score))
                    for posting in entries)


def _pack_entries_numpy(entries: Sequence[Posting]) -> bytes:
    """Vectorized entry-block encoder (bitwise-identical to the
    reference: the big-endian structured dtype serializes each row as
    exactly ``struct.pack(">Qd", doc_id, score)``)."""
    array = np.empty(len(entries), dtype=_PACKED_DTYPE)
    array["doc_id"] = [posting.doc_id for posting in entries]
    array["score"] = [posting.score for posting in entries]
    return array.tobytes()


def _unpack_entries_python(data: bytes, offset: int,
                           count: int) -> List[Posting]:
    """Reference entry-block decoder."""
    end = offset + count * POSTING_WIRE_BYTES
    if end > len(data):
        raise ValueError(
            f"packed postings truncated: need {end - offset} bytes at "
            f"offset {offset}, have {len(data) - offset}")
    unpack = _POSTING_STRUCT.unpack_from
    return [Posting(*unpack(data, position))
            for position in range(offset, end, POSTING_WIRE_BYTES)]


def _unpack_entries_numpy(data: bytes, offset: int,
                          count: int) -> List[Posting]:
    """Vectorized entry-block decoder (one ``frombuffer``, no per-entry
    parsing; values round-trip to the exact Python ints/floats the
    reference decoder produces)."""
    if offset + count * POSTING_WIRE_BYTES > len(data):
        raise ValueError(
            f"packed postings truncated: need "
            f"{count * POSTING_WIRE_BYTES} bytes at offset {offset}, "
            f"have {len(data) - offset}")
    array = np.frombuffer(data, dtype=_PACKED_DTYPE, count=count,
                          offset=offset)
    return [Posting(doc_id, score)
            for doc_id, score in zip(array["doc_id"].tolist(),
                                     array["score"].tolist())]


def pack_entries(entries: Sequence[Posting]) -> bytes:
    """Encode postings as the flat 16-byte-per-entry block."""
    if np is not None and len(entries) >= 8:
        return _pack_entries_numpy(entries)
    return _pack_entries_python(entries)


def unpack_entries(data: bytes, offset: int, count: int) -> List[Posting]:
    """Decode ``count`` postings from ``data`` at ``offset``.

    Raises :class:`ValueError` when the buffer is too short.
    """
    if np is not None and count >= 8:
        return _unpack_entries_numpy(data, offset, count)
    return _unpack_entries_python(data, offset, count)


def pack_postings(postings: "PostingList") -> bytes:
    """Encode a posting list into its full packed layout.

    Envelope (global df, truncation flag, count) followed by the entry
    block; ``len(pack_postings(p)) == p.wire_size()`` always.
    """
    return (_ENVELOPE_STRUCT.pack(int(postings.global_df),
                                  1 if postings.truncated else 0,
                                  len(postings.entries))
            + pack_entries(postings.entries))


def unpack_postings(data: bytes,
                    offset: int = 0) -> Tuple["PostingList", int]:
    """Decode one packed posting list; returns ``(list, next_offset)``.

    Tolerates an untruncated flag with ``global_df > len(entries)`` the
    way the wire codec does — ``global_df`` already encodes truncation,
    so the flag is advisory.  Raises :class:`ValueError` on a short
    buffer (the wire codec maps it to ``TruncatedDatagramError``).
    """
    if offset + _LIST_ENVELOPE_BYTES > len(data):
        raise ValueError(
            f"packed postings truncated: need the {_LIST_ENVELOPE_BYTES}"
            f"-byte envelope at offset {offset}, have "
            f"{len(data) - offset}")
    global_df, _truncated_flag, count = _ENVELOPE_STRUCT.unpack_from(
        data, offset)
    entries = unpack_entries(data, offset + _LIST_ENVELOPE_BYTES, count)
    posting_list = PostingList(entries,
                               global_df=max(global_df, len(entries)))
    next_offset = (offset + _LIST_ENVELOPE_BYTES
                   + count * POSTING_WIRE_BYTES)
    return posting_list, next_offset
