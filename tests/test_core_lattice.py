"""Tests for query-lattice exploration — including the paper's Figure 1
example verbatim."""

import pytest

from repro.core.keys import Key
from repro.core.lattice import LatticeExplorer, ProbeStatus
from repro.ir.postings import Posting, PostingList


def _index_probe(index):
    """Build a level probe function over {Key: PostingList}."""
    def probe_level(keys):
        return [(key in index, index.get(key)) for key in keys]
    return probe_level


def _complete(*doc_ids):
    return PostingList([Posting(doc_id, 1.0) for doc_id in doc_ids])


def _truncated(*doc_ids, df=100):
    return PostingList([Posting(doc_id, 1.0) for doc_id in doc_ids],
                       global_df=df)


class TestFigureOne:
    """The exact scenario of Figure 1: query {a,b,c}; bc is indexed with a
    truncated list; ab and ac are not indexed; single terms indexed with
    truncated lists.  Expected: abc, ab, ac, bc, a probed; b, c skipped."""

    def _outcome(self):
        index = {
            Key(["b", "c"]): _truncated(1, 2),
            Key(["a"]): _truncated(3),
            Key(["b"]): _truncated(1),
            Key(["c"]): _truncated(2),
        }
        explorer = LatticeExplorer(prune_on_truncated=True)
        return explorer.explore(["a", "b", "c"], _index_probe(index))

    def test_statuses(self):
        outcome = self._outcome()
        status = {record.key: record.status for record in outcome.records}
        assert status[Key(["a", "b", "c"])] == ProbeStatus.MISSING
        assert status[Key(["a", "b"])] == ProbeStatus.MISSING
        assert status[Key(["a", "c"])] == ProbeStatus.MISSING
        assert status[Key(["b", "c"])] == ProbeStatus.TRUNCATED
        assert status[Key(["a"])] == ProbeStatus.TRUNCATED
        assert status[Key(["b"])] == ProbeStatus.SKIPPED
        assert status[Key(["c"])] == ProbeStatus.SKIPPED

    def test_counts(self):
        outcome = self._outcome()
        assert outcome.probed_count == 5
        assert outcome.skipped_count == 2

    def test_result_is_union_of_bc_and_a(self):
        outcome = self._outcome()
        assert set(outcome.retrieved) == {Key(["b", "c"]), Key(["a"])}


class TestDominationPruning:
    def test_untruncated_full_query_skips_everything(self):
        index = {Key(["a", "b", "c"]): _complete(1, 2, 3)}
        outcome = LatticeExplorer().explore(["a", "b", "c"],
                                            _index_probe(index))
        assert outcome.probed_count == 1
        assert outcome.skipped_count == 6

    def test_untruncated_pruning_always_on(self):
        # Even with prune_on_truncated=False, complete lists prune.
        index = {Key(["a", "b"]): _complete(1), Key(["a"]): _complete(1),
                 Key(["b"]): _complete(1), Key(["c"]): _complete(9)}
        explorer = LatticeExplorer(prune_on_truncated=False)
        outcome = explorer.explore(["a", "b", "c"], _index_probe(index))
        status = {record.key: record.status for record in outcome.records}
        assert status[Key(["a"])] == ProbeStatus.SKIPPED
        assert status[Key(["b"])] == ProbeStatus.SKIPPED
        assert status[Key(["c"])] == ProbeStatus.UNTRUNCATED

    def test_no_truncated_pruning_when_disabled(self):
        index = {Key(["a", "b"]): _truncated(1),
                 Key(["a"]): _complete(1, 2),
                 Key(["b"]): _complete(1, 3)}
        explorer = LatticeExplorer(prune_on_truncated=False)
        outcome = explorer.explore(["a", "b"], _index_probe(index))
        # Truncated ab does not prune; a and b are probed.
        assert outcome.probed_count == 3
        assert outcome.skipped_count == 0

    def test_truncated_pruning_when_enabled(self):
        index = {Key(["a", "b"]): _truncated(1),
                 Key(["a"]): _complete(1, 2),
                 Key(["b"]): _complete(1, 3)}
        explorer = LatticeExplorer(prune_on_truncated=True)
        outcome = explorer.explore(["a", "b"], _index_probe(index))
        assert outcome.probed_count == 1
        assert outcome.skipped_count == 2


class TestExplorationMisc:
    def test_single_term_query(self):
        index = {Key(["a"]): _complete(1)}
        outcome = LatticeExplorer().explore(["a"], _index_probe(index))
        assert outcome.probed_count == 1
        assert outcome.retrieved[Key(["a"])].doc_ids() == [1]

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            LatticeExplorer().explore([], _index_probe({}))

    def test_duplicate_terms_collapsed(self):
        index = {Key(["a"]): _complete(1)}
        outcome = LatticeExplorer().explore(["a", "a"],
                                            _index_probe(index))
        assert outcome.query == Key(["a"])
        assert outcome.probed_count == 1

    def test_max_lattice_terms_bounds_query(self):
        explorer = LatticeExplorer(max_lattice_terms=3)
        probed = []

        def probe_level(keys):
            probed.extend(keys)
            return [(False, None)] * len(keys)

        outcome = explorer.explore(["a", "b", "c", "d", "e"], probe_level)
        assert len(outcome.query) == 3
        assert len(probed) == 7  # 2^3 - 1

    def test_missing_everything(self):
        outcome = LatticeExplorer().explore(["a", "b"], _index_probe({}))
        assert outcome.probed_count == 3
        assert outcome.retrieved == {}
        assert len(outcome.missing_keys()) == 3

    def test_covered_by_untruncated(self):
        index = {Key(["a", "b"]): _complete(1)}
        outcome = LatticeExplorer().explore(["a", "b", "c"],
                                            _index_probe(index))
        assert outcome.covered_by_untruncated(Key(["a"]))
        assert outcome.covered_by_untruncated(Key(["a", "b"]))
        assert not outcome.covered_by_untruncated(Key(["c"]))
        assert not outcome.covered_by_untruncated(Key(["a", "b", "c"]))

    def test_records_in_descending_size_order(self):
        outcome = LatticeExplorer().explore(["a", "b", "c"],
                                            _index_probe({}))
        sizes = [len(record.key) for record in outcome.records]
        assert sizes == sorted(sizes, reverse=True)

    def test_invalid_max_terms_rejected(self):
        with pytest.raises(ValueError):
            LatticeExplorer(max_lattice_terms=0)
