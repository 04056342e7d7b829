"""Shared benchmark fixtures.

Experiment scenarios are expensive (corpus generation + statistics phase +
index build); they are session-scoped and shared across benchmark files.
Every benchmark prints its result table through ``capsys.disabled()`` so
the series appear on the terminal (and in ``bench_output.txt``).

Two run modes: plain ``pytest benchmarks/`` runs in *smoke* mode (scaled
down so each experiment finishes in seconds — CI-friendly) and writes no
file; set ``BENCH_FULL=1`` in the environment for full-size runs, whose
results persist as JSON via :func:`write_bench_artifact`
(``benchmarks/BENCH_<name>.json``).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from typing import Optional

import pytest

from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.util.process import peak_rss_kb

#: The reference scenario used by several experiments.
BENCH_SEED = 1234

#: Smoke mode (the default) shrinks workloads for sub-10s runs; export
#: BENCH_FULL=1 for the full-size series.
BENCH_SMOKE = os.environ.get("BENCH_FULL", "") != "1"

_ARTIFACT_DIR = pathlib.Path(__file__).resolve().parent


@pytest.fixture(scope="session")
def bench_smoke() -> bool:
    """True when running the scaled-down (default) benchmark mode."""
    return BENCH_SMOKE


def pytest_addoption(parser):
    try:
        parser.addoption(
            "--profile", action="store_true", default=False,
            help="profile each benchmark with cProfile; writes "
                 "benchmarks/profiles/<test>.prof and prints the top "
                 "functions by cumulative time")
    except ValueError:  # pragma: no cover - option already registered
        pass


@pytest.fixture(autouse=True)
def _bench_profiler(request):
    """Opt-in cProfile wrapper around every benchmark test.

    Enabled by ``pytest benchmarks/ --profile`` or ``BENCH_PROFILE=1``;
    off by default so profiling overhead never distorts the recorded
    throughput numbers.
    """
    enabled = (request.config.getoption("--profile", default=False)
               or os.environ.get("BENCH_PROFILE", "") == "1")
    # pytest-benchmark's calibrated timing loop cannot run under an
    # active cProfile (only one profiler can hold sys.setprofile).
    if not enabled or "benchmark" in request.fixturenames:
        yield
        return
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    profiler.enable()
    yield
    profiler.disable()
    profile_dir = _ARTIFACT_DIR / "profiles"
    profile_dir.mkdir(exist_ok=True)
    safe_name = request.node.name.replace("/", "_").replace("[", "_") \
        .replace("]", "")
    path = profile_dir / f"{safe_name}.prof"
    profiler.dump_stats(path)
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    with capmanager.global_and_fixture_disabled():
        print(f"\n--- cProfile: {request.node.name} -> {path} ---")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(15)


def write_bench_artifact(name: str,
                         payload: dict) -> Optional[pathlib.Path]:
    """Persist one full-mode benchmark's result dict as
    ``BENCH_<name>.json``; a smoke run writes nothing (returns None), so
    it can never overwrite a committed full-size record.
    """
    if BENCH_SMOKE:
        return None
    path = _ARTIFACT_DIR / f"BENCH_{name}.json"
    document = {"name": name, "smoke": False, "seed": BENCH_SEED,
                "peak_rss_kb": peak_rss_kb()}
    document.update(payload)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def bench_stamp() -> dict:
    """What a full-mode artifact was measured on: commit, Python, numpy
    and host."""
    try:
        done = subprocess.run(("git", "-C", str(_ARTIFACT_DIR), "rev-parse",
                               "HEAD"), capture_output=True, text=True,
                              timeout=10)
        commit = done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy_version,
            "host": f"{platform.platform()}, {os.cpu_count()} cpus"}


@pytest.fixture(scope="session")
def bench_corpus() -> SyntheticCorpus:
    """240 documents / 1200-term vocabulary: large enough for HDK
    expansion and meaningful df skew, small enough for quick runs."""
    return SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=240, vocabulary_size=1200, num_topics=8,
        seed=BENCH_SEED))


@pytest.fixture(scope="session")
def bench_workload(bench_corpus) -> QueryWorkload:
    return QueryWorkload.from_corpus(
        bench_corpus,
        QueryWorkloadConfig(pool_size=60, min_terms=2, max_terms=3,
                            seed=BENCH_SEED))


def paper_config(**overrides) -> AlvisConfig:
    """An ``AlvisConfig`` on the paper's per-probe wire format — one
    one-key lookup round and one ``ProbeKey`` per lattice node, the
    traffic E1-E13 reproduce — with ``overrides`` applied."""
    return AlvisConfig(batch_lookups=False, **overrides)


@pytest.fixture(scope="session")
def bench_hdk_network(bench_corpus) -> AlvisNetwork:
    network = AlvisNetwork(num_peers=16, config=paper_config(),
                           seed=BENCH_SEED)
    network.distribute_documents(bench_corpus.documents())
    network.build_index(mode="hdk")
    return network


def make_network(corpus, num_peers=16, mode="hdk", config=None,
                 seed=BENCH_SEED, **network_kwargs) -> AlvisNetwork:
    """Build a fresh network over ``corpus`` (for sweeps that mutate);
    per-probe traffic (:func:`paper_config`) unless ``config`` says
    otherwise."""
    network = AlvisNetwork(num_peers=num_peers,
                           config=config or paper_config(), seed=seed,
                           **network_kwargs)
    network.distribute_documents(corpus.documents())
    network.build_index(mode=mode)
    return network
