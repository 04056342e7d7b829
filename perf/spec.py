"""What the benchmark runs: sizes, configurations and pass bars.

``BENCHMARK.json`` (repository root) is the single declaration of the
workload and metric *names*, units, directions and bounds; this module
holds everything else a run needs — how big each workload is, which
``AlvisConfig`` fields it sets, and the thresholds its correctness
checks apply.  Sizes were calibrated on a 2-core box (Python 3.11,
numpy 2.4) so one round of every workload lasts 1.5-4 s; see
``perf/README.md`` for why they are a quarter of the sizes the issue
first measured.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: The document collection, the query pool and the peers' ring positions
#: are a fixed dataset; ``--seed`` drives what is laid over it (the
#: origin of every query, arrival times, publish targets, where churned
#: nodes join).  Regenerating the corpus per seed moved ``bytes_per_op``
#: by +-5 % between seeds and placing the peers per seed still by 2 %
#: on ``index_build``, which would have forced bounds too loose to catch
#: a traffic regression.
CORPUS_SEED = 20080824

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = {"full": 3, "smoke": 1}

#: The scale-out configuration every workload runs (each field is passed
#: only if ``AlvisConfig`` still defines it).
SCALE_OUT = dict(async_queries=True, packed_postings=True,
                 batch_index_lookups=True)

#: Extra fields of the open-loop workload: probe cache smaller than the
#: working set, cross-query coalescing, bounded owner queues, AIMD.
OPEN_LOOP = dict(cache_bytes=64 * 1024, dispatch_window=0.010,
                 service_rate=150.0, queue_capacity=16,
                 congestion_control=True, request_timeout=2.0)

#: Open-loop arrival rates (queries per virtual second): the base rung
#: every round runs, then the two ladder rungs of the traced run.
OPEN_BASE_RATE = 100.0
OPEN_LADDER = (100.0, 400.0, 1600.0)
#: A rung is within the limit when its virtual p99 stays below this,
#: at most 1 % of its queries fail and every query completes.
OPEN_LATENCY_LIMIT_MS = 1500.0
OPEN_FAILED_SHARE_LIMIT = 0.01

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "index_build": {
        "full": dict(peers=256, docs=600, pool=600, sample=600),
        "smoke": dict(peers=48, docs=48, pool=48, sample=40),
    },
    "query_closed": {
        "full": dict(peers=256, docs=400, pool=800,
                     round_ops=2000, warmup_ops=600),
        "smoke": dict(peers=48, docs=48, pool=48,
                      round_ops=60, warmup_ops=20),
    },
    "query_open": {
        "full": dict(peers=256, docs=400, pool=800,
                     round_ops=2000, warmup_ops=1000, origins=32,
                     ladder_ops=2000),
        "smoke": dict(peers=48, docs=48, pool=48,
                      round_ops=80, warmup_ops=40, origins=8,
                      ladder_ops=80),
    },
    "churn_mix": {
        "full": dict(peers=1024, docs=400, held_back=500, pool=800,
                     sample=300, round_ops=250, warmup_ops=80, standing=16),
        "smoke": dict(peers=64, docs=48, held_back=48, pool=48,
                      sample=40, round_ops=16, warmup_ops=8, standing=4),
    },
}

#: ``recall_at_10`` below these fails the run (overlap@10 against
#: ``CentralizedEngine``; full-size floors sit ~0.05 under the values
#: measured at the commit that introduced the benchmark).
RECALL_FLOOR = {
    "full": {"index_build": 0.53, "query_closed": 0.65,
             "query_open": 0.65, "churn_mix": 0.74},
    "smoke": {"index_build": 0.30, "query_closed": 0.30,
              "query_open": 0.30, "churn_mix": 0.30},
}

#: Metrics that are simulator outputs: bit-identical at a fixed seed.
EXACT_METRICS = ("bytes_per_op", "storage_bytes_per_doc", "recall_at_10",
                 "sim_latency_mean_ms", "sim_latency_tail_ms")


def load_benchmark() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)
