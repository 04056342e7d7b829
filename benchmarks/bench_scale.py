"""Scale sweep — the 100k-peer kernel benchmark (the scale-out gate).

Sweeps network sizes through :mod:`repro.eval.scale` legs, each in its
own subprocess (isolated peak RSS).

Smoke mode (default, CI): one 1k-peer leg under a hard per-leg
timeout, whose built index (``state_fingerprint``) and top-k digest
must equal golden constants.  Run under ``REPRO_PURE_PYTHON=1`` the
same constants gate the pure-Python BM25 and bulk-hop fallbacks.

``BENCH_FULL=1``: the full 1k -> 10k -> 100k sweep, written to
``BENCH_scale.json``.  Acceptance: the sweep completes at every size
(100k peers is buildable and queryable on one machine).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

from benchmarks.conftest import BENCH_SEED, write_bench_artifact
from repro.eval.reporting import print_table

#: Hard per-leg subprocess timeout (seconds): smoke legs are small and
#: must stay CI-friendly; full legs include the 100k build.
SMOKE_LEG_TIMEOUT = 300
FULL_LEG_TIMEOUT = 2400

#: Corpus size for every leg.  Dense enough that a meaningful fraction
#: of peers contribute documents and the indexing phase is dominated by
#: statistics/publish work rather than per-peer fixed costs (with the
#: old 240-document corpus, 97% of a 10k-peer network had nothing to
#: publish and the indexing comparison mostly measured empty-peer
#: collection round-trips).
LEG_DOCUMENTS = 1000

#: The smoke leg (1k peers, 24 queries, 40 churn events) must build
#: this index and return these top-k lists, with or without numpy.
#: Captured when a pre-optimisation kernel still ran the same leg and
#: agreed with it.
SMOKE_INDEX_FINGERPRINT = "36a79b199298ac5d376f5b9b370a671db0cc5dc4"
SMOKE_TOP_K_SHA1 = "a77bc00bf3b6607d6f1db37758dca75f7e941a12"

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_leg(peers, queries=36, churn=90, timeout=FULL_LEG_TIMEOUT):
    """Run one leg as ``python -m repro.eval.scale`` and parse its JSON."""
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro.eval.scale",
               "--peers", str(peers),
               "--documents", str(LEG_DOCUMENTS),
               "--queries", str(queries), "--churn", str(churn),
               "--seed", str(BENCH_SEED), "--json", "-"]
    result = subprocess.run(command, capture_output=True, text=True,
                            env=env, timeout=timeout, cwd=_REPO_ROOT)
    assert result.returncode == 0, \
        f"leg peers={peers} failed:\n{result.stderr}"
    return json.loads(result.stdout)


def _top_k_digest(leg):
    canonical = json.dumps(leg["top_k"], sort_keys=True)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def _strip(leg):
    """Replace the bulky per-query fingerprint with its digest."""
    slim = {name: value for name, value in leg.items()
            if name != "top_k"}
    slim["top_k_sha1"] = _top_k_digest(leg)
    return slim


def _report(legs, capsys):
    with capsys.disabled():
        print_table(
            "Scale sweep (events/sec = effective, over the churning "
            "workload phase)",
            ["peers", "events/s", "kernel events/s", "bytes/query",
             "index s", "query s", "wall s", "peak RSS MB"],
            [[leg["peers"], leg["events_per_sec"],
              leg["kernel_events_per_sec"], leg["bytes_per_query"],
              leg["timings"]["indexing_phase_s"],
              leg["timings"]["query_phase_s"], leg["wall_clock_s"],
              leg["peak_rss_kb"] / 1024.0] for leg in legs])


def test_scale_sweep(bench_smoke, capsys):
    if bench_smoke:
        sizes = [1000]
        queries, churn, timeout = 24, 40, SMOKE_LEG_TIMEOUT
    else:
        sizes = [1000, 10_000, 100_000]
        queries, churn, timeout = 36, 90, FULL_LEG_TIMEOUT

    legs = [_run_leg(peers, queries=queries, churn=churn,
                     timeout=timeout) for peers in sizes]
    write_bench_artifact("scale", {"legs": [_strip(leg) for leg in legs]})
    _report(legs, capsys)

    for leg in legs:
        assert len(leg["top_k"]) == queries
        assert leg["events_processed"] > 0
        assert leg["peak_rss_kb"] > 0
    if bench_smoke:
        assert legs[0]["index_fingerprint"] == SMOKE_INDEX_FINGERPRINT
        assert _top_k_digest(legs[0]) == SMOKE_TOP_K_SHA1
