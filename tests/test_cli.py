"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.peers == 8
        assert args.mode == "hdk"
        assert args.seed == 42

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--mode", "bogus", "demo"])


class TestCluster:
    def test_qdi_mode_rejected(self, capsys):
        code, _output = _run(["--mode", "qdi", "cluster"])
        assert code == 2
        assert "not supported on the UDP cluster" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs(self):
        code, output = _run(["--peers", "4", "demo", "--queries", "2"])
        assert code == 0
        assert "AlvisNetwork" in output
        assert "query:" in output
        assert "keys probed" in output

    def test_demo_qdi_mode(self):
        code, output = _run(["--peers", "4", "--mode", "qdi", "demo",
                             "--queries", "1"])
        assert code == 0


class TestQuery:
    def test_query_with_results(self):
        code, output = _run(["--peers", "4", "query",
                             "posting list truncation"])
        assert code == 0
        assert "score" in output
        assert "Posting list truncation" in output

    def test_query_no_results(self):
        code, output = _run(["--peers", "4", "query",
                             "zzzz qqqq xxxx"])
        assert code == 1
        assert "no results" in output

    def test_query_stopwords_only_is_error(self):
        code, _output = _run(["--peers", "4", "query", "the of and"])
        assert code == 2

    def test_query_refine(self):
        code, output = _run(["--peers", "4", "query", "--refine",
                             "congestion control"])
        assert code == 0

    def test_query_from_directory(self, tmp_path):
        (tmp_path / "zebra.txt").write_text(
            "zebra quagga savanna migration zebra herds")
        (tmp_path / "other.txt").write_text(
            "completely unrelated text about compilers")
        code, output = _run(["--peers", "3", "--docs", str(tmp_path),
                             "query", "zebra quagga"])
        assert code == 0
        assert "zebra.txt" in output

    def test_empty_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            _run(["--docs", str(tmp_path), "query", "x"])


class TestMonitor:
    def test_monitor_dashboard(self):
        code, output = _run(["--peers", "4", "monitor",
                             "--queries", "3"])
        assert code == 0
        assert "AlvisP2P network monitor" in output
        assert "retrieval" in output

    def test_monitor_qdi(self):
        code, output = _run(["--peers", "4", "--mode", "qdi",
                             "monitor", "--queries", "3"])
        assert code == 0
        assert "QDI:" in output
