"""The named scenario atlas.

Six adversarial stories, each with explicit pass criteria, sized so the
whole atlas runs in seconds (``repro scenario run <name>`` /
``benchmarks/bench_e17_scenarios.py``).  Thresholds are deliberately
slack floors/ceilings — regression tripwires, not tuned SLOs: they must
hold across seeds and smoke scalings, and a behavior change that breaks
one is worth a look.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios.spec import (FlashCrowd, GracefulDeparture, Heal,
                                  JoinWave, LeaveWave, Partition,
                                  PassCriteria, Scenario, SlowPeers,
                                  WorkloadSpec)

__all__ = ["get_scenario", "scenario_names", "SCENARIOS"]


SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    SCENARIOS[scenario.name] = scenario
    return scenario


#: The control: static membership, Poisson arrivals over the Zipf mix —
#: exactly the E14 open workload, which the benchmark cross-checks
#: against a plain Poisson ``run_workload`` at identical top-k.
BASELINE_POISSON = _register(Scenario(
    name="baseline_poisson",
    description="Static membership, Poisson arrivals over a Zipf query "
                "mix (the E14 control; top-k pinned against a "
                "plain run_workload).",
    workload=WorkloadSpec(queries=40, arrival_rate=50.0),
    criteria=PassCriteria(min_recall_at_k=0.99,
                          max_p99_latency=0.5,
                          min_goodput_qps=5.0)))

#: Mass joins and fail-stop crashes overlapping the query stream.
#: Crashed fragments are gone (no replication configured), so the
#: recall floor is deliberately modest; the real assertions are that
#: every query still completes and drops surface as probe outcomes.
CHURN_STORM = _register(Scenario(
    name="churn_storm",
    description="Overlapping join wave and crash wave under load: "
                "queries survive (dropped probes, never exceptions) "
                "with bounded recall loss.",
    workload=WorkloadSpec(queries=40, arrival_rate=40.0,
                          pinned_origins=4),
    timeline=(JoinWave(at=0.10, count=3, spread=0.50),
              LeaveWave(at=0.15, count=3, spread=0.50)),
    criteria=PassCriteria(min_recall_at_k=0.45,
                          max_p99_latency=0.5,
                          min_goodput_qps=5.0)))

#: An arrival-rate spike (>6x base) with topic drift on the side.
FLASH_CROWD = _register(Scenario(
    name="flash_crowd",
    description="Query spike at >6x the base arrival rate with topic "
                "drift; recall holds and p99 stays bounded.",
    workload=WorkloadSpec(queries=20, arrival_rate=30.0),
    timeline=(FlashCrowd(at=0.20, queries=40, arrival_rate=200.0,
                         drift_per_query=0.5),),
    criteria=PassCriteria(min_recall_at_k=0.99,
                          max_p99_latency=0.5,
                          min_goodput_qps=15.0)))

#: A third of the network is unreachable for half the run, then heals.
#: Cross-cut probes drop (bounded recall loss); nothing wedges, and
#: queries after the heal see the full index again.
PARTITION_HEAL = _register(Scenario(
    name="partition_heal",
    description="A minority partition under load, healed mid-stream: "
                "cross-cut probes drop, every query completes, the "
                "post-heal tail recovers.",
    workload=WorkloadSpec(queries=40, arrival_rate=40.0),
    timeline=(Partition(at=0.10, fraction=0.30),
              Heal(at=0.60)),
    criteria=PassCriteria(min_recall_at_k=0.60,
                          max_p99_latency=0.5,
                          min_goodput_qps=5.0)))

#: Peers leave cleanly, handing their key ranges over.  Their *documents*
#: leave with them — a quarter of the collection at count=4/16 peers —
#: so the recall floor is 1 minus that share with a little slack; the
#: point is that the *index* survives (recall tracks the document loss
#: instead of collapsing like a crash) within a handover-byte budget.
GRACEFUL_DRAIN = _register(Scenario(
    name="graceful_drain",
    description="Four graceful departures with key handover under "
                "load: recall tracks only the departed document share "
                "(the index survives) within a handover-byte budget.",
    workload=WorkloadSpec(queries=40, arrival_rate=40.0,
                          pinned_origins=4),
    timeline=(GracefulDeparture(at=0.10, count=4, spread=0.60),),
    criteria=PassCriteria(min_recall_at_k=0.65,
                          max_p99_latency=0.5,
                          min_goodput_qps=5.0,
                          max_handover_bytes=200_000)))

#: Heterogeneity: a quarter of the peers serve requests at a quarter of
#: the configured rate (bounded service queues active) with their probe
#: caches disabled — the latency ceiling is the criterion under test.
SLOW_MINORITY = _register(Scenario(
    name="slow_minority",
    description="A slow minority (quarter-rate service, no probe "
                "cache) under the bounded-service-queue model: recall "
                "intact, p99 within the heterogeneity ceiling.",
    config_overrides=(("service_rate", 400.0),
                      ("queue_capacity", 64),
                      ("dispatch_window", 0.002)),
    workload=WorkloadSpec(queries=40, arrival_rate=40.0),
    timeline=(SlowPeers(at=0.0, fraction=0.25,
                        service_rate_factor=0.25, cache_bytes=0),),
    criteria=PassCriteria(min_recall_at_k=0.99,
                          max_p99_latency=1.0,
                          min_goodput_qps=4.0)))


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a named scenario (ValueError with the catalog on miss)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(scenario_names())}") from None
