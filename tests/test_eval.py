"""Tests for the evaluation toolkit."""

import pytest

from repro.eval.bandwidth import traffic_breakdown
from repro.eval.loadbalance import load_balance_report
from repro.eval.quality import (
    average_overlap_at_k,
    overlap_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.eval.reporting import format_table, print_table
from repro.eval.storage import storage_report
from repro.net import protocol


class TestOverlap:
    def test_identical(self):
        assert overlap_at_k([1, 2, 3], [1, 2, 3], 3) == 1.0

    def test_disjoint(self):
        assert overlap_at_k([1, 2], [3, 4], 2) == 0.0

    def test_partial(self):
        assert overlap_at_k([1, 2, 3, 4], [2, 9, 4, 8], 4) == 0.5

    def test_order_within_topk_irrelevant(self):
        assert overlap_at_k([3, 2, 1], [1, 2, 3], 3) == 1.0

    def test_short_reference(self):
        assert overlap_at_k([1, 2], [1, 2], 10) == 1.0
        assert overlap_at_k([7], [1], 10) == 0.0

    def test_empty_reference(self):
        assert overlap_at_k([], [], 5) == 1.0
        assert overlap_at_k([1], [], 5) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            overlap_at_k([1], [1], 0)

    def test_average(self):
        pairs = [([1], [1]), ([1], [2])]
        assert average_overlap_at_k(pairs, 1) == 0.5

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            average_overlap_at_k([], 1)


class TestPrecisionRecall:
    def test_precision(self):
        assert precision_at_k([1, 2, 3, 4], {1, 3}, 4) == 0.5
        assert precision_at_k([1, 2], {1, 2, 3}, 2) == 1.0

    def test_precision_empty_candidate(self):
        assert precision_at_k([], {1}, 5) == 0.0

    def test_recall(self):
        assert recall_at_k([1, 2, 3], {1, 9}, 3) == 0.5
        assert recall_at_k([1, 9], {1, 9}, 2) == 1.0

    def test_recall_empty_relevant(self):
        assert recall_at_k([1], set(), 5) == 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k([1], {1}, 0)
        with pytest.raises(ValueError):
            recall_at_k([1], {1}, -1)


class TestTrafficBreakdown:
    def test_categories(self):
        breakdown = traffic_breakdown({
            protocol.LOOKUP_HOP: 100.0,
            protocol.PUBLISH_KEY: 200.0,
            protocol.PROBE_KEY: 50.0,
            protocol.PROBE_REPLY: 70.0,
            "BaselineFetch": 10.0,
        })
        assert breakdown.routing == 100.0
        assert breakdown.indexing == 200.0
        assert breakdown.retrieval == 120.0
        assert breakdown.other == 10.0
        assert breakdown.total == 430.0

    def test_handover_is_indexing(self):
        breakdown = traffic_breakdown({protocol.HANDOVER: 5.0})
        assert breakdown.indexing == 5.0

    def test_as_dict(self):
        breakdown = traffic_breakdown({})
        assert breakdown.as_dict()["total"] == 0.0


class TestLoadBalance:
    def test_report_fields(self):
        report = load_balance_report([1.0, 2.0, 3.0])
        assert "gini" in report
        assert "max_over_mean" in report
        assert report["mean"] == pytest.approx(2.0)


class TestStorageReport:
    def test_report_over_network(self, hdk_network):
        report = storage_report(hdk_network)
        assert report.total_keys > 0
        assert report.total_postings > 0
        assert report.total_bytes > 0
        assert len(report.per_peer_bytes) == 10
        assert 1 in report.keys_by_size
        summary = report.summary()
        assert summary["total_keys"] == report.total_keys
        assert 0 <= summary["gini"] < 1

    def test_total_consistent_with_per_peer(self, hdk_network):
        report = storage_report(hdk_network)
        assert report.total_bytes == sum(report.per_peer_bytes.values())


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1], ["long-name", 123456.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_numbers(self):
        table = format_table(["x"], [[1234567.0], [0.12345], [12.5]])
        assert "1,234,567" in table
        assert "0.123" in table
        assert "12.5" in table

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_print_table(self, capsys):
        print_table("Demo", ["a"], [[1]])
        output = capsys.readouterr().out
        assert "== Demo ==" in output
        assert "1" in output
