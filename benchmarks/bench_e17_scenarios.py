"""E17 — the scenario atlas as a regression suite.

Runs every named scenario of :mod:`repro.scenarios.registry` (churn
storm, flash crowd, partition+heal, graceful drain, slow minority, and
the Poisson baseline) and reports recall@k / p99 / goodput per scenario,
with each scenario's declared pass criteria evaluated (a ``BENCH_FULL=1``
run records them in ``BENCH_scenarios.json``; smoke runs write
nothing).

Acceptance targets:

* every scenario completes its full query stream and *passes* its own
  declared criteria at the benchmark seed;
* the baseline scenario is the E14 open workload in scenario clothing:
  replaying its exact base query stream as a plain Poisson
  ``run_workload`` on an identically-built network yields identical
  per-query top-k (the scenario layer changes no retrieval semantics).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import write_bench_artifact
from repro.core.workload import PoissonArrivals, Workload
from repro.eval.reporting import print_table
from repro.scenarios import ScenarioRunner, get_scenario, scenario_names

#: The atlas is deterministic per seed; the benchmark pins one.
SCENARIO_SEED = 0


def _scaled(name, bench_smoke):
    scenario = get_scenario(name)
    # The registry sizes are already smoke-friendly (seconds per
    # scenario); full mode doubles the network and the stream for a
    # more crowded story.
    if not bench_smoke:
        scenario = scenario.scaled(num_peers=scenario.num_peers * 2,
                                   queries=scenario.workload.queries * 2)
    return scenario


@pytest.fixture(scope="module")
def e17_runs(bench_smoke):
    runs = {}
    for name in scenario_names():
        runner = ScenarioRunner(_scaled(name, bench_smoke),
                                seed=SCENARIO_SEED)
        started = time.perf_counter()
        report = runner.run()
        elapsed = time.perf_counter() - started
        runs[name] = {"report": report, "runner": runner,
                      "wallclock_s": elapsed}
    return runs


def test_e17_scenario_atlas(capsys, e17_runs):
    with capsys.disabled():
        print_table(
            "E17 scenario atlas (declared pass criteria per scenario)",
            ["scenario", "passed", "recall@k", "p99", "goodput q/s",
             "dropped", "handover B", "peers", "wallclock"],
            [[name,
              "PASS" if run["report"].passed else "FAIL",
              round(run["report"].recall_at_k, 3),
              round(run["report"].latency_p99, 4),
              round(run["report"].goodput_qps, 1),
              run["report"].dropped_probes,
              run["report"].handover_bytes,
              f"{run['report'].peers_start}->"
              f"{run['report'].peers_end}",
              round(run["wallclock_s"], 2)]
             for name, run in e17_runs.items()])
    write_bench_artifact("scenarios", {
        "scenario_seed": SCENARIO_SEED,
        "scenarios": {name: dict(run["report"].to_dict(),
                                 wallclock_s=run["wallclock_s"])
                      for name, run in e17_runs.items()},
    })


def test_e17_acceptance(e17_runs):
    for name, run in e17_runs.items():
        report = run["report"]
        # Every scenario evaluates explicit criteria and passes them.
        assert report.criteria, f"{name} declares no criteria"
        assert report.passed, (
            f"{name} failed its declared criteria: "
            + "; ".join(str(criterion) for criterion in report.criteria
                        if not criterion.passed))
        # Drops surface as probe outcomes, never as lost queries.
        assert report.queries_completed == report.queries_submitted


def test_e17_baseline_matches_plain_workload(e17_runs):
    """The scenario layer is a pure re-surfacing of the E14 path:
    identical top-k for the baseline scenario vs a plain Poisson
    ``run_workload``."""
    runner = e17_runs["baseline_poisson"]["runner"]
    scenario_top_k = [[document.doc_id for document in job.results]
                      for job in runner.base_jobs]
    replay = runner.build_network()
    replay_jobs = replay.run_workload(Workload(
        runner.base_queries,
        PoissonArrivals(runner.scenario.workload.arrival_rate)))
    replay_top_k = [[document.doc_id for document in job.results]
                    for job in replay_jobs]
    assert scenario_top_k == replay_top_k
    # Same arrival schedule too.  The oracle pre-pass shifts the
    # scenario's absolute clock, so timestamps differ by a constant and
    # per-query latencies only by float summation order — compare those
    # within float-accumulation tolerance.
    assert [job.trace.latency for job in runner.base_jobs] == \
        pytest.approx([job.trace.latency for job in replay_jobs],
                      abs=1e-9)
