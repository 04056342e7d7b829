"""Shared fixtures.

Networks are expensive to build (statistics phase + index construction),
so the fully built ones are module-scoped; tests must not mutate them
destructively (tests that need mutation build their own small network).
"""

from __future__ import annotations

import hashlib
import random
import textwrap
from types import SimpleNamespace

import pytest

from repro.baselines.single_term import single_term_query
from repro.core.config import AlvisConfig
from repro.core.lattice import ProbeStatus
from repro.core.network import AlvisNetwork
from repro.corpus.loader import sample_documents
from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.dht.ring import DHTRing
from repro.dht.routing import HopSpaceFingers
from repro.ir.analysis import Analyzer
from repro.net.latency import ConstantLatency
from repro.net.transport import SimTransport
from repro.sim.events import Simulator


@pytest.fixture(scope="session")
def analyzer() -> Analyzer:
    return Analyzer()


@pytest.fixture(scope="session")
def small_corpus() -> SyntheticCorpus:
    """120 documents, 800-word vocabulary — enough for HDK expansion."""
    return SyntheticCorpus(SyntheticCorpusConfig(
        num_documents=120, vocabulary_size=800, num_topics=6, seed=3))


@pytest.fixture(scope="session")
def small_corpus_documents(small_corpus):
    return small_corpus.documents()


@pytest.fixture(scope="session")
def small_workload(small_corpus) -> QueryWorkload:
    return QueryWorkload.from_corpus(
        small_corpus, QueryWorkloadConfig(pool_size=40, seed=5))


@pytest.fixture(scope="module")
def hdk_network(small_corpus) -> AlvisNetwork:
    """A 10-peer network with a built HDK index over the small corpus,
    on the paper's per-probe wire format (one lookup round and one
    ``ProbeKey`` per lattice node)."""
    network = AlvisNetwork(num_peers=10,
                           config=AlvisConfig(batch_lookups=False), seed=2)
    network.distribute_documents(small_corpus.documents())
    network.build_index(mode="hdk")
    return network


@pytest.fixture(scope="module")
def qdi_network(small_corpus) -> AlvisNetwork:
    """A 10-peer network in QDI mode (single-term base, managers on),
    per-probe like ``hdk_network``."""
    config = AlvisConfig(qdi_activation_threshold=2, batch_lookups=False)
    network = AlvisNetwork(num_peers=10, config=config, seed=2)
    network.distribute_documents(small_corpus.documents())
    network.build_index(mode="qdi")
    return network


@pytest.fixture(scope="session")
def scan_route():
    """The routing reference: ``scan_route(ring, source, key)`` is the
    path of the greedy scan over each node's fingers plus successor list
    (``ring.node(x).next_hop``), ended by the ownership oracle.  It
    shares no code with the closed form ``DHTRing.lookup_many`` routes
    with, so ``path[-1]`` and ``len(path) - 1`` check its owner and
    per-key hop count."""

    def route(ring, source, key):
        path = [source]
        while ring.successor_of(key) != path[-1]:
            assert len(path) <= 2 * 64 + ring.size, "scan does not converge"
            node = ring.node(path[-1])
            next_id = node.next_hop(key)
            path.append(next_id if next_id is not None else node.successor)
        return path

    return route


class _HopSink:
    """An endpoint that accepts routing hops (one-way: no reply)."""

    def on_message(self, message):
        return None


@pytest.fixture(scope="session")
def transport_ring():
    """``transport_ring(node_ids)`` -> ``(simulator, transport, ring)``:
    a ring over a ``SimTransport`` (constant 20 ms latency) with a
    no-reply endpoint per node, so both routing walks send and account
    their ``LookupHop`` messages."""

    def build(node_ids):
        simulator = Simulator()
        transport = SimTransport(simulator, ConstantLatency(0.02),
                                 random.Random(0))
        ring = DHTRing(HopSpaceFingers(), transport)
        for node_id in node_ids:
            ring.add_node(node_id)
            transport.register(node_id, _HopSink())
        return simulator, transport, ring

    return build


@pytest.fixture()
def lint_project(tmp_path):
    """Factory fixture for lint tests: build a throwaway project tree.

    ``build({"sim/x.py": "...", ...})`` writes the (dedented) sources
    under ``tmp_path/src/repro/`` — so scope rules keyed on the position
    inside the repro package apply exactly as in the real tree — and
    returns the loaded :class:`repro.lint.source.Project`.  Paths with a
    leading ``./`` are written relative to the project root instead
    (for files outside the package, e.g. benchmarks).
    """
    from repro.lint.source import Project

    def build(files):
        for rel, text in files.items():
            if rel.startswith("./"):
                path = tmp_path / rel[2:]
            else:
                path = tmp_path / "src" / "repro" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        return Project.load([tmp_path], tmp_path)

    return build


@pytest.fixture()
def tiny_network() -> AlvisNetwork:
    """A fresh 6-peer network over the built-in sample documents.

    Function-scoped: safe to mutate (churn, incremental publishing...).
    """
    network = AlvisNetwork(num_peers=6, seed=4)
    network.distribute_documents(sample_documents())
    network.build_index(mode="hdk")
    return network


@pytest.fixture(scope="session")
def single_term_baseline():
    """``single_term_baseline(documents, num_peers, seed)`` -> the E2
    baseline: an ``AlvisNetwork`` whose ``truncation_k`` covers the whole
    collection, built with ``build_index("single")``, so every term's
    list is complete."""

    def build(documents, num_peers=8, seed=0):
        network = AlvisNetwork(
            num_peers=num_peers, seed=seed,
            config=AlvisConfig(truncation_k=len(documents)))
        network.distribute_documents(documents)
        network.build_index(mode="single")
        return network

    return build


def _sha1(rows) -> str:
    return hashlib.sha1(repr(rows).encode()).hexdigest()


def _baseline_index_rows(network):
    """``(term, owner, [(doc_id, score.hex())])`` per single-term entry,
    sorted: the exact content of a baseline index."""
    return sorted((entry.key.terms[0], peer.peer_id,
                   [(posting.doc_id, posting.score.hex())
                    for posting in entry.postings])
                  for peer in network.peers() for entry in peer.fragment)


def _baseline_topk_rows(network, queries, mode):
    """Each query's top-k with exact scores, origins round-robin."""
    ids = network.peer_ids()
    rows = []
    for index, terms in enumerate(queries):
        trace = single_term_query(network, ids[index % len(ids)], terms,
                                  mode=mode)
        rows.append((tuple(terms), [(doc_id, score.hex())
                                    for doc_id, score in trace.results]))
    return rows


@pytest.fixture(scope="session")
def baseline_digests():
    """sha1 digests pinning a baseline's index (``index(network)``) and
    one mode's top-k over a query list (``topk(network, queries,
    mode)``), scores compared bit for bit."""
    return SimpleNamespace(
        index=lambda network: _sha1(_baseline_index_rows(network)),
        topk=lambda network, queries, mode: _sha1(
            _baseline_topk_rows(network, queries, mode)))


def _list_completeness(network, traces=()):
    """Check every global-index entry against the documents it covers.

    An entry is *partial* when the number of documents matching all of
    its key's terms, summed over every peer's local index, differs from
    the entry's ``global_df``.  Returns the single- and multi-term entry
    and partial counts, ``partial_list_share`` (partial share of the
    multi-term entries) and ``multi_term_hit_share`` (share of the
    ``traces``' found probes that a multi-term key answered).
    """
    true_df = {}
    counts = {"single": 0, "single_partial": 0,
              "multi": 0, "multi_partial": 0}
    for owner in network.peers():
        for entry in owner.fragment:
            terms = entry.key.terms
            if terms not in true_df:
                true_df[terms] = sum(
                    len(peer.engine.index.documents_with_all(terms))
                    for peer in network.peers())
            size = "single" if len(terms) == 1 else "multi"
            counts[size] += 1
            if true_df[terms] != entry.global_df:
                counts[size + "_partial"] += 1
    found = [key for trace in traces for key, status in trace.probes
             if status in (ProbeStatus.UNTRUNCATED, ProbeStatus.TRUNCATED)]
    return SimpleNamespace(
        **counts,
        partial_list_share=(counts["multi_partial"] / counts["multi"]
                            if counts["multi"] else 0.0),
        multi_term_hit_share=(sum(1 for key in found if len(key) > 1)
                              / len(found) if found else 0.0))


@pytest.fixture(scope="session")
def list_completeness():
    """``list_completeness(network, traces=())``: the list-completeness
    check (ROADMAP 1a); see :func:`_list_completeness`."""
    return _list_completeness
