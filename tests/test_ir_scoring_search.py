"""Tests for BM25/TF-IDF scoring and the local search engine."""

import pytest

from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.scoring import (
    BM25Parameters,
    CollectionStatistics,
    bm25_score,
    bm25_term_weight,
    tf_idf_score,
)
from repro.ir.search import LocalSearchEngine


def _stats(num_documents=100, avgdl=50.0, dfs=None):
    return CollectionStatistics(
        num_documents=num_documents,
        average_document_length=avgdl,
        document_frequencies=dfs if dfs is not None else {})


class TestBM25:
    def test_zero_tf_scores_zero(self):
        assert bm25_term_weight(0, 10, 50, _stats()) == 0.0

    def test_zero_df_scores_zero(self):
        assert bm25_term_weight(3, 0, 50, _stats()) == 0.0

    def test_rarer_term_scores_higher(self):
        stats = _stats()
        rare = bm25_term_weight(2, 2, 50, stats)
        common = bm25_term_weight(2, 60, 50, stats)
        assert rare > common

    def test_idf_never_negative(self):
        # Even a term in every document must not get a negative weight
        # (truncation ranks by this weight).
        stats = _stats(num_documents=10)
        assert bm25_term_weight(3, 10, 50, stats) > 0

    def test_tf_saturation(self):
        stats = _stats()
        deltas = [bm25_term_weight(tf + 1, 5, 50, stats)
                  - bm25_term_weight(tf, 5, 50, stats)
                  for tf in range(1, 6)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_length_normalization(self):
        stats = _stats(avgdl=50.0)
        short = bm25_term_weight(2, 5, 25, stats)
        long = bm25_term_weight(2, 5, 100, stats)
        assert short > long

    def test_b_zero_disables_length_normalization(self):
        stats = _stats(avgdl=50.0)
        params = BM25Parameters(b=0.0)
        short = bm25_term_weight(2, 5, 25, stats, params)
        long = bm25_term_weight(2, 5, 100, stats, params)
        assert short == pytest.approx(long)

    def test_query_score_additive(self):
        stats = _stats(dfs={"a": 5, "b": 7})
        tfs = {"a": 2, "b": 1}
        total = bm25_score(["a", "b"], tfs, 50, stats)
        parts = (bm25_term_weight(2, 5, 50, stats)
                 + bm25_term_weight(1, 7, 50, stats))
        assert total == pytest.approx(parts)

    def test_missing_query_term_contributes_zero(self):
        stats = _stats(dfs={"a": 5})
        with_missing = bm25_score(["a", "zzz"], {"a": 2}, 50, stats)
        without = bm25_score(["a"], {"a": 2}, 50, stats)
        assert with_missing == pytest.approx(without)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BM25Parameters(k1=-1)
        with pytest.raises(ValueError):
            BM25Parameters(b=1.5)

    def test_callable_dfs(self):
        stats = CollectionStatistics(100, 50.0, lambda term: 7)
        assert stats.df("anything") == 7


class TestTfIdf:
    def test_zero_length_document(self):
        assert tf_idf_score(["a"], {"a": 1}, 0, _stats()) == 0.0

    def test_rarer_term_scores_higher(self):
        stats = _stats(dfs={"rare": 1, "common": 80})
        rare = tf_idf_score(["rare"], {"rare": 2}, 50, stats)
        common = tf_idf_score(["common"], {"common": 2}, 50, stats)
        assert rare > common


def _engine_with_sample():
    engine = LocalSearchEngine(Analyzer())
    texts = [
        (1, "Peer to peer retrieval", "peer to peer text retrieval "
            "distributes load across nodes in the network"),
        (2, "Posting lists", "posting lists are truncated to their top "
            "ranked elements to bound bandwidth"),
        (3, "Ranking", "the ranking layer computes relevance scores "
            "with the bm25 ranking function"),
        (4, "Peers and ranking", "peer nodes compute ranking scores for "
            "retrieval results"),
    ]
    for doc_id, title, text in texts:
        engine.add_document(Document(doc_id=doc_id, title=title, text=text,
                                     url=f"test://{doc_id}",
                                     owner_peer=7))
    return engine


class TestLocalSearchEngine:
    def test_index_and_count(self):
        engine = _engine_with_sample()
        assert engine.num_documents == 4

    def test_search_returns_relevant_first(self):
        engine = _engine_with_sample()
        results = engine.search("peer retrieval")
        assert results
        assert results[0].doc_id in (1, 4)

    def test_search_k_limits(self):
        engine = _engine_with_sample()
        assert len(engine.search("ranking", k=1)) == 1

    def test_search_no_match(self):
        engine = _engine_with_sample()
        assert engine.search("xylophone") == []

    def test_search_empty_query(self):
        engine = _engine_with_sample()
        assert engine.search("the of and") == []

    def test_result_fields_populated(self):
        engine = _engine_with_sample()
        result = engine.search("bandwidth")[0]
        assert result.doc_id == 2
        assert result.title == "Posting lists"
        assert result.url == "test://2"
        assert result.owner_peer == 7
        assert result.score > 0
        assert "bandwidth" in result.snippet

    def test_remove_document(self):
        engine = _engine_with_sample()
        engine.remove_document(2)
        assert engine.num_documents == 3
        assert engine.search("bandwidth") == []

    def test_top_k_for_key_conjunctive(self):
        engine = _engine_with_sample()
        postings = engine.top_k_for_key(["peer", "rank"], k=10)
        assert postings.doc_ids() == [4]
        assert postings.global_df == 1

    def test_top_k_for_key_truncation(self):
        engine = _engine_with_sample()
        # "rank" matches docs 2 ("ranked"), 3 and 4 ("ranking").
        postings = engine.top_k_for_key(["rank"], k=1)
        assert len(postings) == 1
        assert postings.global_df == 3
        assert postings.truncated

    def test_top_k_for_key_empty(self):
        engine = _engine_with_sample()
        postings = engine.top_k_for_key(["absent"], k=5)
        assert len(postings) == 0
        assert postings.global_df == 0

    def test_top_k_negative_k_rejected(self):
        with pytest.raises(ValueError):
            _engine_with_sample().top_k_for_key(["peer"], k=-1)

    def test_score_document_with_external_stats(self):
        engine = _engine_with_sample()
        inflated = CollectionStatistics(
            num_documents=10_000, average_document_length=10.0,
            document_frequencies={"peer": 3})
        local = engine.score_document(1, ["peer"])
        global_score = engine.score_document(1, ["peer"], stats=inflated)
        assert global_score > local  # much rarer globally -> higher idf

    def test_snippet_window_centers_on_match(self):
        engine = _engine_with_sample()
        document = engine.store.get(3)
        snippet = engine.make_snippet(document, ["bm25"])
        assert "bm25" in snippet

    def test_snippet_highlighting(self):
        engine = _engine_with_sample()
        document = engine.store.get(3)
        snippet = engine.make_snippet(document, ["bm25", "rank"],
                                      highlight=True)
        assert "**bm25**" in snippet
        # Stemmed matching: "ranking" highlights for query term "rank".
        assert "**ranking**" in snippet

    def test_snippet_highlight_off_by_default(self):
        engine = _engine_with_sample()
        document = engine.store.get(3)
        assert "**" not in engine.make_snippet(document, ["bm25"])

    def test_snippet_empty_document(self):
        engine = LocalSearchEngine(Analyzer())
        empty = Document(doc_id=99, title="empty", text="")
        assert engine.make_snippet(empty, ["x"]) == ""

    def test_local_statistics(self):
        engine = _engine_with_sample()
        stats = engine.local_statistics()
        assert stats.num_documents == 4
        assert stats.df("peer") == 2


def _engine_with_random_corpus(num_docs=60, seed=7, bm25=None):
    import random
    rng = random.Random(seed)
    vocabulary = [f"term{i}" for i in range(30)]
    engine = (LocalSearchEngine(Analyzer()) if bm25 is None
              else LocalSearchEngine(Analyzer(), bm25=bm25))
    for doc_id in range(1, num_docs + 1):
        words = rng.choices(vocabulary, k=rng.randint(3, 40))
        engine.add_document(Document(
            doc_id=doc_id * 3, title=f"doc {doc_id}",
            text=" ".join(words), url=f"test://{doc_id}", owner_peer=1))
    return engine


class TestVectorizedScoring:
    """The packed/numpy scoring path must be bitwise-identical to the
    scalar reference implementation — it is an acceleration, not a fork."""

    def _assert_bulk_matches_scalar(self, engine, terms, stats=None):
        doc_ids = sorted(engine.index.document_ids())
        bulk = engine.score_documents(doc_ids, terms, stats=stats)
        resolved = stats if stats is not None else engine.local_statistics()
        scalar = [engine.score_document(doc_id, terms, stats=resolved)
                  for doc_id in doc_ids]
        assert bulk == scalar  # exact, not approx: bitwise equality

    def test_bulk_matches_scalar_bitwise(self):
        engine = _engine_with_random_corpus()
        for terms in (["term0"], ["term1", "term2"],
                      ["term3", "term3", "term4"],  # duplicate query term
                      ["term5", "absent"], ["absent"]):
            analyzed = [engine.analyzer.analyze(t)[0] if t != "absent"
                        else "absent" for t in terms]
            self._assert_bulk_matches_scalar(engine, analyzed)

    def test_bulk_matches_scalar_parameter_corners(self):
        # k1 == 0 divides 0/0 in a naive vectorization; b in {0, 1}
        # exercises both ends of length normalization.
        for params in (BM25Parameters(k1=0.0), BM25Parameters(b=0.0),
                       BM25Parameters(b=1.0),
                       BM25Parameters(k1=2.5, b=0.4)):
            engine = _engine_with_random_corpus(bm25=params)
            self._assert_bulk_matches_scalar(engine, ["term0", "term1"])

    def test_bulk_matches_scalar_external_stats(self):
        engine = _engine_with_random_corpus()
        inflated = CollectionStatistics(
            num_documents=100_000, average_document_length=12.5,
            document_frequencies={"term0": 17, "term1": 40_000})
        self._assert_bulk_matches_scalar(engine, ["term0", "term1"],
                                         stats=inflated)

    def test_packed_cache_invalidated_on_mutation(self):
        engine = _engine_with_random_corpus(num_docs=20)
        terms = ["term0", "term1"]
        self._assert_bulk_matches_scalar(engine, terms)
        engine.add_document(Document(
            doc_id=999, title="new", text="term0 term0 term1",
            url="test://new", owner_peer=1))
        assert not engine.index._packed  # cache dropped on add
        self._assert_bulk_matches_scalar(engine, terms)
        engine.remove_document(999)
        assert engine.index._packed_lengths is None
        self._assert_bulk_matches_scalar(engine, terms)

    def test_scalar_fallback_without_numpy(self, monkeypatch):
        import repro.ir.search as search_module
        engine = _engine_with_random_corpus(num_docs=25)
        doc_ids = sorted(engine.index.document_ids())
        with_numpy = engine.score_documents(doc_ids, ["term0", "term1"])
        monkeypatch.setattr(search_module, "np", None)
        without = engine.score_documents(doc_ids, ["term0", "term1"])
        assert with_numpy == without

    def test_pure_python_env_gate(self):
        import subprocess
        import sys
        code = ("import repro.util.npcompat as c; "
                "assert c.np is None and not c.HAVE_NUMPY")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "REPRO_PURE_PYTHON": "1"},
            cwd="/root/repo", capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_refine_handler_bulk_matches_per_document(self):
        # The REFINE_QUERY handler bulk-scores; its reply must match
        # scoring each present document individually.
        from repro.core.config import AlvisConfig
        from repro.core.peer import AlvisPeer
        from repro.net import protocol
        from repro.net.message import Message
        peer = AlvisPeer(1, AlvisConfig())
        engine = _engine_with_random_corpus(num_docs=15)
        peer.engine = engine
        doc_ids = sorted(engine.index.document_ids()) + [424242]
        message = Message(src=2, dst=1, kind=protocol.REFINE_QUERY,
                          payload={"terms": ["term0", "term1"],
                                   "doc_ids": doc_ids})
        reply = peer.on_message(message)
        scores = reply.payload["scores"]
        assert 424242 not in scores
        stats = engine.local_statistics()
        for doc_id in engine.index.document_ids():
            assert scores[doc_id] == engine.score_document(
                doc_id, ["term0", "term1"], stats=stats)
