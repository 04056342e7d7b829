"""Unit tests for the peer's message handlers (protocol conformance)."""

import pytest

from repro.core.config import AlvisConfig
from repro.core.global_index import KeyEntry
from repro.core.keys import Key
from repro.core.peer import AlvisPeer
from repro.ir.documents import Document
from repro.ir.postings import Posting, PostingList
from repro.net import protocol
from repro.net.message import Message


@pytest.fixture()
def peer():
    instance = AlvisPeer(peer_id=7, config=AlvisConfig())
    instance.publish_document(Document(
        doc_id=1, title="Alpha", text="alpha beta gamma alpha"))
    instance.publish_document(Document(
        doc_id=2, title="Beta", text="beta delta epsilon"))
    return instance


def _send(peer, kind, payload):
    return peer.on_message(Message(src=99, dst=peer.peer_id, kind=kind,
                                   payload=payload))


class TestDispatch:
    def test_unknown_kind_rejected(self, peer):
        with pytest.raises(ValueError):
            _send(peer, "Bogus", {})

    def test_lookup_hop_is_silent(self, peer):
        assert _send(peer, protocol.LOOKUP_HOP, {"key_ids": [5]}) is None


class TestStatisticsHandlers:
    def test_df_publish_get_roundtrip(self, peer):
        assert _send(peer, protocol.DF_PUBLISH,
                     {"dfs": {"x": 3, "y": 1}}) is None
        reply = _send(peer, protocol.DF_GET, {"terms": ["x", "y", "z"]})
        assert reply.kind == protocol.DF_REPLY
        assert reply.payload["dfs"] == {"x": 3, "y": 1, "z": 0}

    def test_collection_roundtrip(self, peer):
        _send(peer, protocol.COLLECTION_PUBLISH,
              {"peer": 1, "docs": 10, "terms": 400})
        _send(peer, protocol.COLLECTION_PUBLISH,
              {"peer": 2, "docs": 5, "terms": 100})
        reply = _send(peer, protocol.COLLECTION_GET, {})
        assert reply.payload == {"docs": 15, "terms": 500, "peers": 2}


class TestIndexHandlers:
    def test_publish_key_and_probe(self, peer):
        postings = PostingList([Posting(5, 1.0)])
        reply = _send(peer, protocol.PUBLISH_KEY, {
            "contributor": 3,
            "items": [{"key_terms": ["alpha"], "postings": postings,
                       "local_df": 1}]})
        assert reply.kind == protocol.PUBLISH_ACK
        assert reply.payload["accepted"] == 1
        probe = _send(peer, protocol.PROBE_KEY, {"key_terms": ["alpha"]})
        assert probe.payload["found"]
        assert probe.payload["postings"].doc_ids() == [5]

    def test_probe_missing_key(self, peer):
        probe = _send(peer, protocol.PROBE_KEY, {"key_terms": ["nope"]})
        assert not probe.payload["found"]
        assert probe.payload["postings"] is None

    def test_expand_notify_queues(self, peer):
        _send(peer, protocol.EXPAND_NOTIFY,
              {"key_terms": ["alpha"], "global_df": 999})
        assert peer.pending_expansions == [Key(["alpha"])]

    def test_contributors_get(self, peer):
        postings = PostingList([Posting(5, 1.0)])
        _send(peer, protocol.PUBLISH_KEY, {
            "contributor": 3,
            "items": [{"key_terms": ["alpha"], "postings": postings,
                       "local_df": 4}]})
        reply = _send(peer, protocol.CONTRIBUTORS_GET, {"term": "alpha"})
        assert reply.payload["contributors"] == {3: 4}

    def test_contributors_get_unknown_term(self, peer):
        reply = _send(peer, protocol.CONTRIBUTORS_GET, {"term": "zzz"})
        assert reply.payload["contributors"] == {}

    def test_harvest_key(self, peer):
        reply = _send(peer, protocol.HARVEST_KEY,
                      {"key_terms": ["alpha", "beta"], "k": 5})
        assert reply.kind == protocol.HARVEST_REPLY
        assert reply.payload["postings"].doc_ids() == [1]
        assert reply.payload["local_df"] == 1

    def test_harvest_respects_k(self, peer):
        reply = _send(peer, protocol.HARVEST_KEY,
                      {"key_terms": ["beta"], "k": 1})
        assert len(reply.payload["postings"]) == 1
        assert reply.payload["local_df"] == 2

    def test_handover_installs_entries(self, peer):
        entry = KeyEntry(key=Key(["zeta"]),
                         postings=PostingList([Posting(9, 1.0)]),
                         global_df=1, contributors={2: 1})
        _send(peer, protocol.HANDOVER, {"entries": [entry]})
        assert peer.fragment.get(Key(["zeta"])) is entry


class TestRetrievalHandlers:
    def test_refine_query_scores_owned_docs_only(self, peer):
        reply = _send(peer, protocol.REFINE_QUERY,
                      {"terms": ["alpha"], "doc_ids": [1, 2, 999]})
        scores = reply.payload["scores"]
        assert set(scores) == {1, 2}
        assert scores[1] > scores[2] == 0.0

    def test_doc_fetch_public(self, peer):
        reply = _send(peer, protocol.DOC_FETCH,
                      {"doc_id": 1, "credentials": None,
                       "terms": ["alpha"]})
        assert reply.payload["ok"]
        assert reply.payload["title"] == "Alpha"
        assert "alpha" in reply.payload["snippet"]

    def test_doc_fetch_not_found(self, peer):
        reply = _send(peer, protocol.DOC_FETCH,
                      {"doc_id": 12345, "credentials": None})
        assert not reply.payload["ok"]
        assert reply.payload["error"] == "not-found"

    def test_doc_fetch_access_denied(self, peer):
        from repro.core.access import AccessPolicy
        peer.access.set_policy(1, AccessPolicy.password("u", "p"))
        denied = _send(peer, protocol.DOC_FETCH,
                       {"doc_id": 1, "credentials": None})
        assert denied.payload["error"] == "access-denied"
        granted = _send(peer, protocol.DOC_FETCH,
                        {"doc_id": 1, "credentials": ["u", "p"]})
        assert granted.payload["ok"]

    def test_feedback_ignored_without_qdi(self, peer):
        assert _send(peer, protocol.FEEDBACK,
                     {"key_terms": ["a", "b"], "redundant": False}) is None


class TestLocalManagement:
    def test_publish_sets_owner(self, peer):
        assert peer.engine.store.get(1).owner_peer == 7

    def test_unpublish(self, peer):
        peer.unpublish_document(1)
        assert peer.engine.store.get(1) is None
        assert peer.engine.num_documents == 1

    def test_local_df_contributions(self, peer):
        contributions = peer.local_df_contributions()
        assert contributions["alpha"] == 1
        assert contributions["beta"] == 2

    def test_collection_report(self, peer):
        docs, terms = peer.collection_report()
        assert docs == 2
        assert terms == 7
