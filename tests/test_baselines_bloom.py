"""Tests for the Bloom filter and the bloom intersection mode."""

import itertools
import random

import pytest

from repro.baselines.single_term import single_term_query
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.ir.bloom import BloomFilter

#: sha1 pins of ``bloom_net``, as in ``tests/test_baselines.py``: its
#: index, and the top-k with exact scores of ``_pinned_queries``, the
#: same in all three modes.
INDEX_DIGEST = "51c4dd5695a8a3e80b4a0a1a6e59320ac3a15953"
TOPK_DIGEST = "2c62626f30f124c0db251c7fff1b05156f4c442e"


class TestBloomFilter:
    def test_no_false_negatives(self):
        rng = random.Random(0)
        items = [rng.randrange(10 ** 9) for _ in range(500)]
        bloom = BloomFilter.of(items)
        assert all(item in bloom for item in items)

    def test_false_positive_rate_near_target(self):
        rng = random.Random(1)
        members = set(rng.randrange(10 ** 9) for _ in range(1000))
        bloom = BloomFilter.of(members, false_positive_rate=0.01)
        trials = 20000
        false_positives = sum(
            1 for _ in range(trials)
            if (candidate := rng.randrange(10 ** 9)) not in members
            and candidate in bloom)
        assert false_positives / trials < 0.05

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(capacity=10)
        assert 5 not in bloom

    def test_wire_size_much_smaller_than_postings(self):
        # The whole point: ~1.2 bytes/posting vs 16 bytes/posting.
        items = list(range(1000))
        bloom = BloomFilter.of(items)
        assert bloom.wire_size() < 16 * len(items) / 5

    def test_wire_size_grows_with_capacity(self):
        small = BloomFilter(capacity=10)
        large = BloomFilter(capacity=10000)
        assert large.wire_size() > small.wire_size()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=-1)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, false_positive_rate=0.0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, false_positive_rate=1.0)

    def test_count_tracks_insertions(self):
        bloom = BloomFilter(capacity=10)
        bloom.add_all([1, 2, 3])
        assert bloom.count == 3


@pytest.fixture(scope="module")
def bloom_net(single_term_baseline):
    # Large enough that frequent posting lists dwarf per-message
    # overheads — the regime where Bloom filters matter at all.
    corpus = SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=300, vocabulary_size=600, seed=61))
    return single_term_baseline(corpus.documents(), num_peers=8, seed=62)


def _term_lists(network):
    """term -> its full posting list, read from the owners' fragments."""
    return {entry.key.terms[0]: entry.postings
            for peer in network.peers() for entry in peer.fragment}


def _frequent_terms(network, count):
    counts = {term: len(postings)
              for term, postings in _term_lists(network).items()}
    return sorted(counts, key=counts.get, reverse=True)[:count]


def _pinned_queries(network):
    counts = {term: len(postings)
              for term, postings in _term_lists(network).items()}
    frequent = sorted(counts, key=lambda term: (-counts[term], term))[:6]
    return ([[term] for term in frequent[:2]]
            + [list(pair) for pair in itertools.combinations(frequent, 2)]
            + [list(triple)
               for triple in itertools.combinations(frequent[:4], 3)])


class TestPinnedDigests:
    def test_index_digest(self, bloom_net, baseline_digests):
        assert baseline_digests.index(bloom_net) == INDEX_DIGEST

    @pytest.mark.parametrize("mode", ["fetch_all", "pipelined", "bloom"])
    def test_topk_digest(self, bloom_net, baseline_digests, mode):
        assert baseline_digests.topk(
            bloom_net, _pinned_queries(bloom_net), mode) == TOPK_DIGEST


class TestBloomMode:
    def test_results_match_fetch_all(self, bloom_net):
        terms = _frequent_terms(bloom_net, 2)
        origin = bloom_net.peer_ids()[0]
        exact = single_term_query(bloom_net, origin, terms, mode="fetch_all")
        bloom = single_term_query(bloom_net, origin, terms, mode="bloom")
        assert bloom.results == exact.results

    def test_three_term_query_matches(self, bloom_net):
        terms = _frequent_terms(bloom_net, 3)
        origin = bloom_net.peer_ids()[1]
        exact = single_term_query(bloom_net, origin, terms, mode="fetch_all")
        bloom = single_term_query(bloom_net, origin, terms, mode="bloom")
        assert bloom.results == exact.results

    def test_single_term_query_falls_back(self, bloom_net):
        terms = _frequent_terms(bloom_net, 1)
        origin = bloom_net.peer_ids()[2]
        trace = single_term_query(bloom_net, origin, terms, mode="bloom")
        exact = single_term_query(bloom_net, origin, terms, mode="fetch_all")
        assert trace.results == exact.results

    def test_bloom_saves_bytes_on_selective_frequent_pairs(self,
                                                           bloom_net):
        """Bloom wins when both lists are long but the intersection is
        small — the regime the optimization targets.  (When the
        intersection is nearly the whole list, shipping candidates twice
        costs more than one full list; see the scalability test below
        for why neither regime saves the baseline.)"""
        doc_sets = {term: set(postings.doc_ids())
                    for term, postings in _term_lists(bloom_net).items()}
        frequent = sorted(doc_sets, key=lambda t: len(doc_sets[t]),
                          reverse=True)[:15]
        best_pair = min(
            ((a, b) for i, a in enumerate(frequent)
             for b in frequent[i + 1:]),
            key=lambda pair: len(doc_sets[pair[0]] & doc_sets[pair[1]])
            / max(1, min(len(doc_sets[pair[0]]),
                         len(doc_sets[pair[1]]))))
        terms = list(best_pair)
        origin = bloom_net.peer_ids()[0]
        fetch = single_term_query(bloom_net, origin, terms, mode="fetch_all")
        bloom = single_term_query(bloom_net, origin, terms, mode="bloom")
        assert bloom.results == fetch.results
        assert bloom.bytes_sent < fetch.bytes_sent

    def test_bloom_still_grows_with_collection(self, single_term_baseline):
        """Zhang & Suel's conclusion: Bloom filters buy a constant
        factor, not scalability — bytes still grow with the collection."""
        results = {}
        for num_docs in (80, 320):
            corpus = SyntheticCorpus(SyntheticCorpusConfig(
                num_documents=num_docs, vocabulary_size=600, seed=63))
            network = single_term_baseline(corpus.documents(),
                                           num_peers=8, seed=64)
            terms = _frequent_terms(network, 2)
            trace = single_term_query(network, network.peer_ids()[0], terms,
                                      mode="bloom")
            results[num_docs] = trace.bytes_sent
        assert results[320] / results[80] > 1.8
