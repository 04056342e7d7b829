"""Tests for the single-term baseline and the centralized reference."""

import pytest

from repro.baselines.centralized import CentralizedEngine
from repro.baselines.single_term import single_term_query
from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.corpus.loader import sample_documents
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.ir.analysis import Analyzer

#: sha1 pins of ``baseline_net``: its index as sorted
#: ``(term, owner, [(doc_id, score.hex())])`` rows, and the top-k with
#: exact scores of ``_pinned_queries``, the same in all three modes.
INDEX_DIGEST = "f25d31bb2a79e73dcf34bab8710bf64a283b423b"
TOPK_DIGEST = "3557dc5025423d234af500a0b759366aa2577060"


@pytest.fixture(scope="module")
def baseline_corpus():
    return SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=80, vocabulary_size=500, seed=23))


@pytest.fixture(scope="module")
def baseline_net(baseline_corpus, single_term_baseline):
    return single_term_baseline(baseline_corpus.documents(), num_peers=8,
                                seed=24)


@pytest.fixture(scope="module")
def centralized(baseline_corpus, baseline_net):
    # Index the same documents with the same assigned doc ids.
    docs = []
    for peer in baseline_net.peers():
        docs.extend(peer.engine.store)
    return CentralizedEngine(docs)


def _some_query(baseline_corpus, index=0, size=2):
    analyzer = Analyzer()
    terms = analyzer.analyze(
        " ".join(baseline_corpus.document_terms(index)))
    distinct = sorted(set(terms))
    return distinct[:size]


def _term_lists(network):
    """term -> its full posting list, read from the owners' fragments."""
    return {entry.key.terms[0]: entry.postings
            for peer in network.peers() for entry in peer.fragment}


def _pinned_queries(baseline_corpus):
    return [_some_query(baseline_corpus, index=index, size=size)
            for index in range(12) for size in (1, 2, 3)]


class TestCentralizedEngine:
    def test_counts(self, centralized):
        assert centralized.num_documents == 80

    def test_search_api(self, centralized, baseline_corpus):
        query = " ".join(_some_query(baseline_corpus))
        results = centralized.search(query, k=5)
        assert len(results) <= 5

    def test_conjunctive_subset_of_disjunctive_candidates(
            self, centralized, baseline_corpus):
        terms = _some_query(baseline_corpus, index=3)
        conjunctive = centralized.conjunctive_doc_ids(terms, k=50)
        disjunctive = centralized.top_doc_ids(terms, k=10 ** 6)
        assert set(conjunctive) <= set(disjunctive)


class TestPinnedDigests:
    def test_index_digest(self, baseline_net, baseline_digests):
        assert baseline_digests.index(baseline_net) == INDEX_DIGEST

    @pytest.mark.parametrize("mode", ["fetch_all", "pipelined", "bloom"])
    def test_topk_digest(self, baseline_net, baseline_corpus,
                         baseline_digests, mode):
        assert baseline_digests.topk(
            baseline_net, _pinned_queries(baseline_corpus), mode) == \
            TOPK_DIGEST


class TestSingleTermBaseline:
    def test_full_lists_stored(self, baseline_net, centralized):
        # Every posting of every term must be in the global index: the
        # total equals the number of (term, doc) pairs.
        expected = sum(
            centralized.engine.index.document_frequency(term)
            for term in centralized.engine.index.vocabulary())
        assert sum(baseline_net.per_peer_postings().values()) == expected

    def test_fetch_all_matches_centralized_conjunctive(
            self, baseline_net, centralized, baseline_corpus):
        for index in (0, 7, 19):
            terms = _some_query(baseline_corpus, index=index)
            trace = single_term_query(baseline_net,
                                      baseline_net.peer_ids()[0], terms,
                                      mode="fetch_all")
            expected = centralized.conjunctive_doc_ids(terms, k=10)
            assert [doc_id for doc_id, _ in trace.results] == expected

    def test_pipelined_equals_fetch_all(self, baseline_net,
                                        baseline_corpus):
        origin = baseline_net.peer_ids()[1]
        for index in (2, 11):
            terms = _some_query(baseline_corpus, index=index, size=3)
            a = single_term_query(baseline_net, origin, terms,
                                  mode="fetch_all")
            b = single_term_query(baseline_net, origin, terms,
                                  mode="pipelined")
            assert a.results == b.results

    def test_bytes_grow_with_posting_volume(self, baseline_net,
                                            baseline_corpus):
        # One-term queries: wire bytes must scale with the list length.
        counts = {term: len(postings)
                  for term, postings in _term_lists(baseline_net).items()}
        frequent = max(counts, key=counts.get)
        rare = min(counts, key=counts.get)
        origin = baseline_net.peer_ids()[0]
        trace_frequent = single_term_query(baseline_net, origin, [frequent],
                                           mode="fetch_all")
        trace_rare = single_term_query(baseline_net, origin, [rare],
                                       mode="fetch_all")
        assert counts[frequent] > counts[rare]
        assert trace_frequent.bytes_sent > trace_rare.bytes_sent

    def test_pipelined_ships_less_for_frequent_pairs(self, baseline_net):
        # For two frequent terms, pipelined transfers bound the second
        # leg by the intersection size, so it moves fewer postings.
        counts = {term: len(postings)
                  for term, postings in _term_lists(baseline_net).items()}
        frequent_terms = sorted(counts, key=counts.get,
                                reverse=True)[:2]
        origin = baseline_net.peer_ids()[2]
        fetch = single_term_query(baseline_net, origin, frequent_terms,
                                  mode="fetch_all")
        piped = single_term_query(baseline_net, origin, frequent_terms,
                                  mode="pipelined")
        assert piped.postings_transferred <= fetch.postings_transferred

    def test_empty_conjunction(self, baseline_net):
        # Terms that never co-occur: empty result, no crash.
        counts = {term: set(postings.doc_ids())
                  for term, postings in _term_lists(baseline_net).items()}
        terms = sorted(counts)
        disjoint_pair = None
        for i, a in enumerate(terms):
            for b in terms[i + 1:]:
                if not counts[a] & counts[b]:
                    disjoint_pair = [a, b]
                    break
            if disjoint_pair:
                break
        if disjoint_pair is None:
            pytest.skip("corpus has no disjoint term pair")
        trace = single_term_query(baseline_net, baseline_net.peer_ids()[0],
                                  disjoint_pair, mode="pipelined")
        assert trace.results == []

    def test_invalid_inputs(self, baseline_net, baseline_corpus):
        origin = baseline_net.peer_ids()[0]
        with pytest.raises(ValueError):
            single_term_query(baseline_net, origin, [], mode="fetch_all")
        with pytest.raises(ValueError):
            single_term_query(baseline_net, origin, ["x"], mode="bogus")
        # Only a complete single-term index is the baseline: not an
        # unbuilt network, not truncated lists.
        unbuilt = AlvisNetwork(num_peers=2, seed=24)
        with pytest.raises(ValueError):
            single_term_query(unbuilt, unbuilt.peer_ids()[0], ["x"])
        truncated = AlvisNetwork(num_peers=2, seed=24,
                                 config=AlvisConfig(truncation_k=20))
        truncated.distribute_documents(baseline_corpus.documents())
        truncated.build_index(mode="single")
        with pytest.raises(ValueError):
            single_term_query(truncated, truncated.peer_ids()[0], ["x"])


class TestScalabilityContrast:
    def test_alvis_bytes_do_not_grow_with_corpus_baseline_bytes_do(
            self, single_term_baseline):
        """The paper's headline scalability claim (experiment E2 in
        miniature): as the collection grows, per-query retrieval bytes
        grow for the single-term baseline but stay bounded for AlvisP2P.
        """
        def frequent_pair(corpus):
            analyzer = Analyzer()
            counts = {}
            for index in range(corpus.num_documents):
                for term in set(analyzer.analyze(
                        " ".join(corpus.document_terms(index)))):
                    counts[term] = counts.get(term, 0) + 1
            ranked = sorted(counts, key=counts.get, reverse=True)
            return ranked[:2]

        results = {}
        for scale, num_docs in (("small", 60), ("large", 240)):
            corpus = SyntheticCorpus(SyntheticCorpusConfig(
                num_documents=num_docs, vocabulary_size=500, seed=29))
            terms = frequent_pair(corpus)
            baseline = single_term_baseline(corpus.documents(),
                                            num_peers=8, seed=30)
            baseline_trace = single_term_query(
                baseline, baseline.peer_ids()[0], terms, mode="fetch_all")
            alvis = AlvisNetwork(num_peers=8, config=AlvisConfig(),
                                 seed=30)
            alvis.distribute_documents(corpus.documents())
            alvis.build_index(mode="hdk")
            _r, alvis_trace = alvis.query(alvis.peer_ids()[0], terms)
            results[scale] = (baseline_trace.bytes_sent,
                              alvis_trace.bytes_sent)
        baseline_growth = results["large"][0] / results["small"][0]
        alvis_growth = results["large"][1] / max(1, results["small"][1])
        assert baseline_growth > 2.0   # ~4x docs -> much more traffic
        assert alvis_growth < 2.0      # bounded by truncation
