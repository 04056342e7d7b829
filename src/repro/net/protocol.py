"""Message kinds of the distributed IR protocol (layers 3 and 4).

Centralizing the kind strings keeps the traffic accounting legible: the
bandwidth benchmark (E2) reports bytes *per message kind*, which is how the
companion papers break their numbers down (routing vs. retrieval vs.
indexing traffic).

The constants live in the :mod:`repro.net` layer because a message kind is
a wire-level concept: the binary codec (:mod:`repro.net.wire`) keys its
per-kind schemas and tag table on these strings, and the layering rule
(``repro lint``'s RPL050) forbids the codec from importing upward into
``core``.
"""

from __future__ import annotations

__all__ = [
    "LOOKUP_HOP",
    "DF_PUBLISH",
    "DF_GET",
    "DF_REPLY",
    "COLLECTION_PUBLISH",
    "COLLECTION_GET",
    "COLLECTION_REPLY",
    "PUBLISH_KEY",
    "PUBLISH_ACK",
    "EXPAND_NOTIFY",
    "PROBE_KEY",
    "PROBE_REPLY",
    "PROBE_BATCH",
    "PROBE_BATCH_REPLY",
    "FEEDBACK",
    "CONTRIBUTORS_GET",
    "CONTRIBUTORS_REPLY",
    "HARVEST_KEY",
    "HARVEST_REPLY",
    "REFINE_QUERY",
    "REFINE_REPLY",
    "DOC_FETCH",
    "DOC_REPLY",
    "RETRACT_DOC",
    "HANDOVER",
    "REPLICA_PUSH",
    "TERM_SCORES",
    "TERM_SCORES_REPLY",
    "BLOOM_GET",
    "BLOOM_REPLY",
    "BLOOM_MATCH",
    "BLOOM_MATCH_REPLY",
    "INDEXING_KINDS",
    "RETRIEVAL_KINDS",
]

# Overlay routing -------------------------------------------------------
LOOKUP_HOP = "LookupHop"

# Global statistics -----------------------------------------------------
DF_PUBLISH = "DfPublish"            #: {term: local df} batch to term owners
DF_GET = "DfGet"                    #: request global dfs for a term batch
DF_REPLY = "DfReply"
COLLECTION_PUBLISH = "CollectionPublish"  #: (num docs, total length)
COLLECTION_GET = "CollectionGet"
COLLECTION_REPLY = "CollectionReply"

# Index construction ----------------------------------------------------
PUBLISH_KEY = "PublishKey"          #: contributor -> responsible peer
PUBLISH_ACK = "PublishAck"
EXPAND_NOTIFY = "ExpandNotify"      #: responsible -> contributors (HDK)

# Retrieval -------------------------------------------------------------
PROBE_KEY = "ProbeKey"              #: lattice probe
PROBE_REPLY = "ProbeReply"
PROBE_BATCH = "ProbeBatch"          #: all of a frontier's probes for one owner
PROBE_BATCH_REPLY = "ProbeBatchReply"
FEEDBACK = "PopularityFeedback"     #: query peer -> key owners (QDI)

# On-demand indexing (QDI) ----------------------------------------------
CONTRIBUTORS_GET = "ContributorsGet"
CONTRIBUTORS_REPLY = "ContributorsReply"
HARVEST_KEY = "HarvestKey"
HARVEST_REPLY = "HarvestReply"

# Two-step refinement and document access -------------------------------
REFINE_QUERY = "RefineQuery"
REFINE_REPLY = "RefineReply"
DOC_FETCH = "DocFetch"
DOC_REPLY = "DocReply"

# Document lifecycle ------------------------------------------------------
RETRACT_DOC = "RetractDoc"          #: owner peer -> key peers, on unpublish

# Churn -----------------------------------------------------------------
HANDOVER = "IndexHandover"

# Replication (crash fault tolerance) -----------------------------------
REPLICA_PUSH = "ReplicaPush"        #: owner -> successor, full entry batch

# Single-term intersection (the E2 baseline) ----------------------------
# Owner-side legs of the conjunctive strategies in
# :mod:`repro.baselines.single_term`, served from an untruncated
# single-term index; whole lists are fetched with ``ProbeKey``.
TERM_SCORES = "TermScores"          #: doc ids -> this term's scores for them
TERM_SCORES_REPLY = "TermScoresReply"
BLOOM_GET = "BloomGet"              #: Bloom filter of a term's doc ids
BLOOM_REPLY = "BloomReply"
BLOOM_MATCH = "BloomMatch"          #: a term's postings passing a filter
BLOOM_MATCH_REPLY = "BloomMatchReply"

#: Kind groups used by the bandwidth breakdowns.
INDEXING_KINDS = (DF_PUBLISH, DF_GET, DF_REPLY, COLLECTION_PUBLISH,
                  COLLECTION_GET, COLLECTION_REPLY, PUBLISH_KEY,
                  PUBLISH_ACK, EXPAND_NOTIFY, CONTRIBUTORS_GET,
                  CONTRIBUTORS_REPLY, HARVEST_KEY, HARVEST_REPLY,
                  RETRACT_DOC)
RETRIEVAL_KINDS = (PROBE_KEY, PROBE_REPLY, PROBE_BATCH,
                   PROBE_BATCH_REPLY, FEEDBACK, REFINE_QUERY,
                   REFINE_REPLY, LOOKUP_HOP, TERM_SCORES,
                   TERM_SCORES_REPLY, BLOOM_GET, BLOOM_REPLY, BLOOM_MATCH,
                   BLOOM_MATCH_REPLY)
