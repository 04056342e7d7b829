"""Tier-1 guard of the benchmark itself, at ``--smoke`` sizes.

Collected by the plain ``pytest -x -q``.  It pins what later PRs rely
on: ``BENCHMARK.json`` keeps the contract's shape, every declared
workload and metric is emitted (and nothing undeclared), simulator
outputs repeat for a seed and move with it, a failed operation fails the
run, the tracer puts back everything it patched and shrugs off an entry
point that has gone, and ``perf/compare.py`` classifies the way its
docstring says.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from perf import compare, spec, tracer as tracer_module
from perf.harness import measure
from perf.tracer import ENTRY_POINTS, Tracer

BENCHMARK = spec.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Timed wall clock per smoke run: one or two rounds.
SECONDS = 0.05


@pytest.fixture(scope="module")
def runs():
    """Each workload: one seed twice, another seed once, one traced run."""
    return {name: {"first": measure(name, "smoke", 1, SECONDS, False),
                   "again": measure(name, "smoke", 1, SECONDS, False),
                   "other": measure(name, "smoke", 2, SECONDS, False),
                   "traced": measure(name, "smoke", 1, 2 * SECONDS, True)}
            for name in spec.SIZES}


def test_benchmark_file_keeps_the_contract_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perf"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.SIZES)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [entry["name"] for entry in metrics + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(metric["unit"]) for metric in metrics)
    assert all(metric["better"] in ("lower", "higher") for metric in metrics)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])
    assert set(spec.EXACT_METRICS) <= {m["name"]
                                       for m in BENCHMARK["end_to_end"]}


def test_every_declared_metric_is_emitted_and_nothing_else(runs):
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for name, by_kind in runs.items():
        assert set(by_kind["first"]["metrics"]) == end_to_end, name
        assert set(by_kind["traced"]["metrics"]) == per_layer, name
        for record in by_kind.values():
            assert all(math.isfinite(value)
                       for value in record["metrics"].values()), name
            assert record["attempted"] >= 1 and record["failed"] == 0, name
            assert record["correct"], (name, record["checks"])
        # An end-to-end metric is bounded as a share of its median, so
        # it may never read 0.
        assert all(value > 0
                   for value in by_kind["first"]["metrics"].values()), name


def test_exact_metrics_repeat_for_a_seed_and_move_with_it(runs):
    for name, by_kind in runs.items():
        first, again, other = (by_kind[key]["exact_metrics"]
                               for key in ("first", "again", "other"))
        assert set(first) == set(spec.EXACT_METRICS)
        assert first == again, name
        assert first != other, name


def test_a_failed_operation_makes_the_run_incorrect(monkeypatch):
    from repro.core.network import AlvisNetwork
    original = AlvisNetwork.query
    calls = []

    def query(network, origin, terms):
        calls.append(terms)
        if len(calls) == 5:
            raise RuntimeError("injected")
        return original(network, origin, terms)

    monkeypatch.setattr(AlvisNetwork, "query", query)
    record = measure("query_closed", "smoke", 1, SECONDS, False)
    assert record["failed"] == 1 and not record["correct"]
    assert ("no_failed_operations", False) in [
        (check["name"], check["passed"]) for check in record["checks"]]


def test_layers_are_attributed(runs):
    for name, by_kind in runs.items():
        traced = by_kind["traced"]["metrics"]
        assert traced["trace.missing_entry_points"] == 0
        assert 0 <= traced["trace.unattributed_share"] <= 0.15, name
        assert traced["core.calls"] > 0 and traced["net.calls"] > 0, name
    assert runs["index_build"]["traced"]["metrics"]["sim.calls"] == 0
    assert runs["index_build"]["traced"]["metrics"]["ir.calls"] > 0
    assert runs["query_closed"]["traced"]["metrics"]["core.cache_hit_share"] == 0
    assert runs["query_open"]["traced"]["metrics"]["core.cache_hit_share"] > 0
    assert runs["churn_mix"]["traced"]["metrics"]["dht.membership_ops"] > 0


def test_layer_is_read_below_the_last_repro_directory():
    from types import SimpleNamespace

    def layer(filename):
        return tracer_module._layer_of_code(
            SimpleNamespace(co_filename=filename))

    assert layer("/work/repro/src/repro/core/runtime.py") == "core"
    assert layer("src/repro/net/transport.py") == "net"
    assert layer("/work/repro/src/repro/cli.py") == "other"
    assert layer("/work/repro/perf/run.py") == "other"


def _patch_targets():
    import importlib
    targets = []
    for _layer, module_name, class_name, attribute in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        targets.append((owner, attribute))
    from repro.sim.events import Simulator
    targets += [(Simulator, "schedule"), (Simulator, "schedule_at"),
                (Simulator, "spawn")]
    return targets


def test_tracer_restores_every_patched_attribute(runs):
    import repro.core.retrieval
    import repro.core.runtime
    targets = _patch_targets() + [
        (repro.core.retrieval, "merge_and_rank"),
        (repro.core.runtime, "merge_and_rank")]
    before = [owner.__dict__[attribute] for owner, attribute in targets]
    with Tracer() as tracer:
        assert tracer.missing == []
        assert all(owner.__dict__[attribute] is not original
                   for (owner, attribute), original in zip(targets, before))
    after = [owner.__dict__[attribute] for owner, attribute in targets]
    assert all(now is original for now, original in zip(after, before))


def test_tracer_skips_an_entry_point_that_no_longer_exists(monkeypatch):
    monkeypatch.setattr(tracer_module, "ENTRY_POINTS", ENTRY_POINTS + (
        ("core", "repro.core.protocol_gone", None, "anything"),
        ("dht", "repro.dht.ring", "DHTRing", "lookup_retired")))
    with Tracer() as tracer:
        assert tracer.missing == [
            "repro.core.protocol_gone:protocol_gone.anything",
            "repro.dht.ring:DHTRing.lookup_retired"]


def test_compare_classifies_against_the_bound():
    def status(base, new, better="lower", bound=0.10):
        return compare.verdict(base, new, better, bound)["status"]

    assert status([100.0], [105.0]) == "within bound"
    assert status([100.0], [115.0]) == "worse"
    assert status([100.0], [85.0]) == "better"
    assert status([100.0], [85.0], better="higher") == "worse"
    # Spread wider than the bound and the difference inside it.
    assert status([80.0, 100.0, 120.0, 140.0],
                  [90.0, 110.0, 130.0, 150.0]) == "unresolved"
    # Spread wider than the bound, but the difference stands clear.
    assert status([80.0, 100.0, 120.0, 140.0],
                  [280.0, 300.0, 320.0, 340.0]) == "worse"


def test_compare_gates_on_failures_and_on_repeatability():
    def result_set(source, failed, bytes_per_op):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
        metrics["bytes_per_op"]["value"] = bytes_per_op
        return {"seed": 1, "stamp": {"source": source},
                "workloads": {"query_closed": {
                    "attempted": 1000, "failed": failed,
                    "metrics": metrics}}}

    def statuses(base, new):
        return {row["metric"]: row["status"]
                for row in compare.compare([base], [new], BENCHMARK)}

    same = statuses(result_set("a", 0, 100.0), result_set("a", 0, 100.0))
    assert set(same.values()) == {"within bound"}
    assert len(same) == len(BENCHMARK["end_to_end"]) + 1
    assert statuses(result_set("a", 0, 100.0), result_set("a", 2, 100.0)
                    )["failed_share"] == "worse"
    assert statuses(result_set("a", 0, 100.0), result_set("a", 1, 100.0)
                    )["failed_share"] == "within bound"
    # The same source on the same seed must repeat a simulator output;
    # another source may move it inside the bound.
    assert statuses(result_set("a", 0, 100.0), result_set("a", 0, 100.5)
                    )["bytes_per_op"] == "not repeatable"
    assert statuses(result_set("a", 0, 100.0), result_set("b", 0, 100.5)
                    )["bytes_per_op"] == "within bound"


def test_smoke_output_never_takes_a_full_run_path(tmp_path):
    from perf import run
    smoke = run._out_path("smoke", "", str(tmp_path / "set.json"))
    assert smoke.name == "set.smoke.json"
    assert run._out_path("full", "", str(tmp_path / "set.json")).name \
        == "set.json"
    assert run._out_path("smoke", "set_seed1.json", None) \
        == spec.OUT_DIR / "set_seed1.smoke.json"
    with pytest.raises(SystemExit):
        run._out_path("full", "", str(smoke))


def test_result_line_is_the_last_line_and_well_formed(tmp_path):
    """The driver's form of the command, end to end, once."""
    import os
    import subprocess
    import sys
    done = subprocess.run(
        [sys.executable, str(spec.ROOT / "perf" / "run.py"), "--workload",
         "query_closed", "--seed", "3", "--seconds", "0.05", "--trace", "0",
         "--smoke", "--out", str(tmp_path / "record.json")],
        capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [path.name for path in tmp_path.iterdir()] == ["record.smoke.json"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: cell["unit"]
            for name, cell in result["metrics"].items()} == units
