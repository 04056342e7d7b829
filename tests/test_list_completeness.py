"""The list-completeness check (ROADMAP item 1a).

An index entry is *complete* when its ``global_df`` equals the number of
documents, over every peer, that contain all of its key's terms; a
*partial* entry silently drops the documents of peers that never
published for it.  ``list_completeness`` (``tests/conftest.py``) reports
the partial share of the multi-term entries and the share of found
probes answered by multi-term keys.
"""

import pytest

from repro.core.network import AlvisNetwork


class TestSingleTermEntriesComplete:
    def test_after_hdk_build(self, hdk_network, list_completeness):
        report = list_completeness(hdk_network)
        assert report.single > 0
        assert report.single_partial == 0

    def test_after_qdi_build(self, qdi_network, list_completeness):
        report = list_completeness(qdi_network)
        assert report.single > 0
        assert report.single_partial == 0

    def test_after_single_build(self, small_corpus, list_completeness):
        network = AlvisNetwork(num_peers=10, seed=2)
        network.distribute_documents(small_corpus.documents())
        network.build_index(mode="single")
        report = list_completeness(network)
        assert report.single > 0
        assert (report.single_partial, report.multi) == (0, 0)


class TestBaselineComplete:
    def test_every_entry_holds_its_whole_list(self, small_corpus,
                                              single_term_baseline,
                                              list_completeness):
        network = single_term_baseline(small_corpus.documents(),
                                       num_peers=10, seed=2)
        report = list_completeness(network)
        assert report.single > 0
        assert (report.single_partial, report.multi) == (0, 0)
        for peer in network.peers():
            for entry in peer.fragment:
                assert len(entry.postings) == entry.global_df


class TestMultiTermEntries:
    def test_shares_reported(self, hdk_network, small_workload,
                             list_completeness):
        origin = hdk_network.peer_ids()[0]
        traces = [hdk_network.query(origin, list(query))[1]
                  for query in small_workload.pool[:10]]
        report = list_completeness(hdk_network, traces)
        assert report.multi > 0
        assert 0.0 < report.partial_list_share <= 1.0
        assert 0.0 <= report.multi_term_hit_share <= 1.0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 1b: HDK expansion keeps a contributor silent when "
               "its local co-occurrence count is below the bar, so most "
               "multi-term lists miss documents")
    def test_no_multi_term_entry_is_partial(self, hdk_network,
                                            list_completeness):
        assert list_completeness(hdk_network).multi_partial == 0
