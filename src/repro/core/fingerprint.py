"""Digest of the retrieval-relevant state of a built network.

Canonical home of :func:`state_fingerprint` — used by the cluster join
handshake (two processes must have built identical twin networks), the
scale-sweep legs (``repro.eval.scale``: the smoke leg's index is pinned
to a golden digest), and the differential indexing tests
(``tests/test_index_equivalence.py``).
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import AlvisNetwork

__all__ = ["state_fingerprint"]


def state_fingerprint(network: "AlvisNetwork") -> str:
    """Digest of the retrieval-relevant state of a built network.

    Covers membership, each peer's document store and its global-index
    fragment (keys, postings, dfs) — enough that any divergence between
    two processes' builds (library-version drift, nondeterminism) flips
    the digest and aborts the join handshake instead of silently
    answering probes from different state.
    """
    digest = hashlib.sha1()
    for peer_id in sorted(network.peer_ids()):
        peer = network.peer(peer_id)
        digest.update(struct.pack(">Q", peer_id))
        for doc_id in sorted(document.doc_id
                             for document in peer.engine.store):
            digest.update(struct.pack(">Q", doc_id))
        for key in sorted(peer.fragment.keys(),
                          key=lambda key: key.terms):
            entry = peer.fragment.get(key)
            digest.update(" ".join(key.terms).encode("utf-8"))
            digest.update(struct.pack(">QI", entry.global_df,
                                      len(entry.postings.entries)))
            for posting in entry.postings.entries:
                digest.update(struct.pack(">Qd", posting.doc_id,
                                          posting.score))
    return digest.hexdigest()
