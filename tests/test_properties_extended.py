"""Property-based tests for the extension modules (digests, Bloom
filters, query language, persistence)."""

from hypothesis import given, settings, strategies as st

from repro.ir.bloom import BloomFilter
from repro.core.global_index import KeyEntry
from repro.core.keys import Key
from repro.core.persistence import entry_from_dict, entry_to_dict
from repro.ir.analysis import Analyzer
from repro.ir.digest import digest_from_terms, parse_digest, render_digest
from repro.ir.inverted_index import InvertedIndex
from repro.ir.postings import Posting, PostingList
from repro.ir.query_language import And, Not, Or, evaluate
from repro.ir.stemmer import PorterStemmer

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

words = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
word_lists = st.lists(words, min_size=1, max_size=20)
doc_id_sets = st.sets(st.integers(min_value=0, max_value=10 ** 6),
                      max_size=100)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

@given(word_lists)
def test_digest_roundtrip_preserves_sequence(terms):
    digest = digest_from_terms("http://x", "T", terms)
    xml_text = render_digest([digest])
    parsed = parse_digest(xml_text)
    assert len(parsed) == 1
    assert parsed[0].term_sequence() == list(terms)


@given(word_lists)
def test_digest_reindexing_equals_direct_indexing(terms):
    """Publishing through a digest must index identically to publishing
    the raw term sequence (the heterogeneity-support contract)."""
    direct = InvertedIndex()
    direct.add_document(1, terms)
    via_digest = InvertedIndex()
    digest = digest_from_terms("u", "t", terms)
    via_digest.add_document(1, digest.term_sequence())
    for term in set(terms):
        assert direct.term_frequency(term, 1) == \
            via_digest.term_frequency(term, 1)


# ---------------------------------------------------------------------------
# Bloom filters
# ---------------------------------------------------------------------------

@given(doc_id_sets)
@settings(max_examples=50)
def test_bloom_never_false_negative(items):
    bloom = BloomFilter.of(items)
    assert all(item in bloom for item in items)


@given(doc_id_sets, st.floats(min_value=0.001, max_value=0.5))
@settings(max_examples=30)
def test_bloom_wire_size_sublinear_in_posting_bytes(items, rate):
    bloom = BloomFilter.of(items, false_positive_rate=rate)
    if len(items) >= 20:
        assert bloom.wire_size() < 16 * len(items)


# ---------------------------------------------------------------------------
# Query language (algebraic laws against a random index)
# ---------------------------------------------------------------------------

index_documents = st.lists(
    st.lists(st.sampled_from(["apple", "banana", "cherry", "date"]),
             min_size=1, max_size=6),
    min_size=1, max_size=10)


def _build_index(documents):
    index = InvertedIndex()
    for doc_id, terms in enumerate(documents):
        index.add_document(doc_id, terms)
    return index


@given(index_documents)
def test_and_is_subset_of_children(documents):
    from repro.ir.query_language import Term
    index = _build_index(documents)
    node = And((Term("apple"), Term("banana")))
    result = evaluate(node, index)
    assert result <= evaluate(Term("apple"), index)
    assert result <= evaluate(Term("banana"), index)


@given(index_documents)
def test_or_is_superset_of_children(documents):
    from repro.ir.query_language import Term
    index = _build_index(documents)
    node = Or((Term("apple"), Term("banana")))
    result = evaluate(node, index)
    assert result >= evaluate(Term("apple"), index)
    assert result >= evaluate(Term("banana"), index)


@given(index_documents)
def test_de_morgan(documents):
    from repro.ir.query_language import Term
    index = _build_index(documents)
    a, b = Term("apple"), Term("banana")
    not_and = evaluate(Not(And((a, b))), index)
    or_nots = evaluate(Or((Not(a), Not(b))), index)
    assert not_and == or_nots


@given(index_documents)
def test_double_negation(documents):
    from repro.ir.query_language import Term
    index = _build_index(documents)
    term = Term("cherry")
    assert evaluate(Not(Not(term)), index) == evaluate(term, index)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

entry_strategy = st.builds(
    lambda terms, pairs, extra_df, contributors, popularity, on_demand:
    KeyEntry(
        key=Key(terms),
        postings=PostingList(
            [Posting(doc_id, score) for doc_id, score in pairs],
            global_df=len({doc_id for doc_id, _ in pairs}) + extra_df),
        global_df=len({doc_id for doc_id, _ in pairs}) + extra_df,
        contributors=contributors,
        popularity=popularity,
        on_demand=on_demand),
    st.lists(words, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                       st.floats(min_value=0, max_value=100,
                                 allow_nan=False)),
             max_size=10),
    st.integers(min_value=0, max_value=50),
    st.dictionaries(st.integers(min_value=0, max_value=99),
                    st.integers(min_value=0, max_value=50), max_size=5),
    st.floats(min_value=0, max_value=10, allow_nan=False),
    st.booleans(),
)


@given(entry_strategy)
@settings(max_examples=100)
def test_entry_roundtrip(entry):
    restored = entry_from_dict(entry_to_dict(entry))
    assert restored.key == entry.key
    assert restored.postings.doc_ids() == entry.postings.doc_ids()
    assert restored.postings.global_df == entry.postings.global_df
    assert restored.global_df == entry.global_df
    assert restored.contributors == entry.contributors
    assert restored.popularity == entry.popularity
    assert restored.on_demand == entry.on_demand


# ---------------------------------------------------------------------------
# Stemmer
# ---------------------------------------------------------------------------

@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
               max_size=15))
@settings(max_examples=300)
def test_stemmer_total_and_shortening(word):
    """The stemmer never crashes, never lengthens a word (beyond the
    +1 'e' restoration cases), and is deterministic."""
    stemmer = PorterStemmer()
    stem = stemmer.stem(word)
    assert isinstance(stem, str)
    assert len(stem) <= len(word) + 1
    assert stemmer.stem(word) == stem
