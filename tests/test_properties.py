"""Property-based tests (hypothesis) on the core data structures and
invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.keys import Key
from repro.core.lattice import LatticeExplorer, ProbeStatus
from repro.core.ranking import merge_and_rank
from repro.dht.hashing import hash_terms
from repro.dht.idspace import ID_SPACE, clockwise_distance, in_interval
from repro.dht.ring import DHTRing
from repro.dht.routing import HopSpaceFingers, NaiveFingers
from repro.ir.postings import Posting, PostingList
from repro.util.stats import gini_coefficient, percentile
from repro.util.zipf import zipf_weights

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ids = st.integers(min_value=0, max_value=ID_SPACE - 1)
terms = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
term_lists = st.lists(terms, min_size=1, max_size=5)
postings = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50),
              st.floats(min_value=0.0, max_value=100.0,
                        allow_nan=False)),
    max_size=30)


# ---------------------------------------------------------------------------
# Identifier space
# ---------------------------------------------------------------------------

@given(ids, ids)
def test_clockwise_distance_in_range(a, b):
    assert 0 <= clockwise_distance(a, b) < ID_SPACE


@given(ids, ids)
def test_clockwise_distance_antisymmetry(a, b):
    forward = clockwise_distance(a, b)
    backward = clockwise_distance(b, a)
    if a == b:
        assert forward == backward == 0
    else:
        assert forward + backward == ID_SPACE


@given(ids, ids, ids)
def test_interval_membership_consistent_with_distance(value, left, right):
    inside = in_interval(value, left, right)
    if inside and left != right:
        assert clockwise_distance(left, value) <= \
            clockwise_distance(left, right)


@given(term_lists)
def test_hash_terms_permutation_invariant(term_list):
    rng = random.Random(0)
    shuffled = list(term_list)
    rng.shuffle(shuffled)
    assert hash_terms(term_list) == hash_terms(shuffled)


# ---------------------------------------------------------------------------
# Posting lists
# ---------------------------------------------------------------------------

@given(postings)
def test_posting_list_sorted_and_unique(pairs):
    plist = PostingList([Posting(doc_id, score)
                         for doc_id, score in pairs])
    scores = [posting.score for posting in plist]
    assert scores == sorted(scores, reverse=True)
    doc_ids = plist.doc_ids()
    assert len(doc_ids) == len(set(doc_ids))


@given(postings, st.integers(min_value=0, max_value=10))
def test_truncate_preserves_prefix_and_df(pairs, k):
    plist = PostingList([Posting(doc_id, score)
                         for doc_id, score in pairs])
    truncated = plist.truncate(k)
    assert truncated.doc_ids() == plist.doc_ids()[:k]
    assert truncated.global_df == plist.global_df
    assert truncated.wire_size() <= plist.wire_size()


@given(postings, postings)
def test_merge_commutative_on_doc_sets(pairs_a, pairs_b):
    a = PostingList([Posting(d, s) for d, s in pairs_a])
    b = PostingList([Posting(d, s) for d, s in pairs_b])
    ab = a.merge(b)
    ba = b.merge(a)
    assert set(ab.doc_ids()) == set(ba.doc_ids())
    assert {p.doc_id: p.score for p in ab} == \
        {p.doc_id: p.score for p in ba}


@given(postings, postings)
def test_merge_takes_max_scores(pairs_a, pairs_b):
    a = PostingList([Posting(d, s) for d, s in pairs_a])
    b = PostingList([Posting(d, s) for d, s in pairs_b])
    merged = {p.doc_id: p.score for p in a.merge(b)}
    for plist in (a, b):
        for posting in plist:
            assert merged[posting.doc_id] >= posting.score


# ---------------------------------------------------------------------------
# Keys and the lattice
# ---------------------------------------------------------------------------

@given(term_lists)
def test_key_canonical_form(term_list):
    key = Key(term_list)
    assert key.terms == tuple(sorted(set(term_list)))
    assert Key(reversed(term_list)) == key


@given(term_lists)
def test_key_dominates_all_proper_subsets(term_list):
    key = Key(term_list)
    for subset in key.proper_subsets():
        assert key.dominates(subset)
        assert not subset.dominates(key)


@given(st.lists(terms, min_size=1, max_size=4, unique=True))
def test_lattice_levels_complete(term_list):
    key = Key(term_list)
    levels = Key.lattice_levels(key.terms)
    total = sum(len(level) for level in levels)
    assert total == 2 ** len(key) - 1
    flattened = [k for level in levels for k in level]
    assert len(set(flattened)) == total  # no duplicates


@given(st.lists(terms, min_size=1, max_size=4, unique=True),
       st.data())
@settings(max_examples=50)
def test_exploration_visits_every_node_exactly_once(term_list, data):
    """Whatever the index contents, every lattice node is either probed
    or skipped, exactly once, and skipped nodes are dominated by some
    found node."""
    key = Key(term_list)
    all_nodes = [k for level in Key.lattice_levels(key.terms)
                 for k in level]
    # Random index: each node independently missing/truncated/complete.
    index = {}
    for node in all_nodes:
        choice = data.draw(st.sampled_from(["missing", "truncated",
                                            "complete"]))
        if choice == "truncated":
            index[node] = PostingList([Posting(1, 1.0)], global_df=10)
        elif choice == "complete":
            index[node] = PostingList([Posting(1, 1.0)])

    def probe_level(keys):
        return [(index.get(k) is not None, index.get(k)) for k in keys]

    outcome = LatticeExplorer(prune_on_truncated=True).explore(
        key.terms, probe_level)
    visited = [record.key for record in outcome.records]
    assert sorted(visited, key=lambda k: k.terms) == \
        sorted(all_nodes, key=lambda k: k.terms)
    assert len(visited) == len(set(visited))
    found = [record.key for record in outcome.records
             if record.status in (ProbeStatus.UNTRUNCATED,
                                  ProbeStatus.TRUNCATED)]
    for record in outcome.records:
        if record.status == ProbeStatus.SKIPPED:
            assert any(f.dominates(record.key) for f in found)


@given(st.lists(terms, min_size=1, max_size=4, unique=True))
def test_ranking_never_exceeds_query_terms(term_list):
    key = Key(term_list)
    retrieved = {Key([t]): PostingList([Posting(1, 1.0)])
                 for t in key.terms}
    ranked = merge_and_rank(retrieved, key, k=5)
    assert len(ranked) == 1
    assert ranked[0].terms_covered <= key.term_set


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

@given(st.sets(ids, min_size=1, max_size=40), ids, st.data())
@settings(max_examples=50, deadline=None)
def test_lookup_always_finds_successor(scan_route, node_ids, key, data):
    strategy = data.draw(st.sampled_from([NaiveFingers(),
                                          HopSpaceFingers()]))
    ring = DHTRing(strategy)
    for node_id in node_ids:
        ring.add_node(node_id)
    source = data.draw(st.sampled_from(sorted(node_ids)))
    result = ring.lookup_many(source, [key])
    assert result.owners[key] == ring.successor_of(key)
    assert result.per_key_hops[key] == \
        len(scan_route(ring, source, key)) - 1


# ---------------------------------------------------------------------------
# Statistics utilities
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=100))
def test_gini_bounds(values):
    assert 0 <= gini_coefficient(values) <= 1


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=100),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_range(values, q):
    result = percentile(values, q)
    spread = max(values) - min(values)
    tolerance = 1e-9 * max(1.0, spread)  # interpolation rounding
    assert min(values) - tolerance <= result <= max(values) + tolerance


@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0, max_value=3, allow_nan=False))
def test_zipf_weights_normalized_and_monotone(n, exponent):
    weights = zipf_weights(n, exponent)
    assert abs(sum(weights) - 1.0) < 1e-9
    assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))
