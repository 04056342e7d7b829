"""Command-line interface: the AlvisP2P client, headless.

Section 4 describes the peer client software (standalone or Web mode);
this CLI is its offline equivalent, driving a simulated network::

    python -m repro demo                          # end-to-end demo
    python -m repro query "peer retrieval" --mode qdi --peers 12
    python -m repro query "truncation" --docs ./my_texts
    python -m repro monitor --queries 20          # dashboard snapshot

All commands are deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.config import AlvisConfig
from repro.core.network import AlvisNetwork
from repro.corpus.loader import load_directory, sample_documents
from repro.corpus.queries import QueryWorkload, QueryWorkloadConfig
from repro.eval.monitor import NetworkMonitor
from repro.eval.reporting import format_table
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.util.rng import make_rng

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AlvisP2P reproduction — simulated P2P text "
                    "retrieval client")
    parser.add_argument("--peers", type=int, default=8,
                        help="number of peers in the network")
    parser.add_argument("--seed", type=int, default=42,
                        help="deterministic seed")
    parser.add_argument("--mode", choices=("hdk", "qdi"), default="hdk",
                        help="distributed indexing strategy")
    parser.add_argument("--docs", metavar="DIR", default=None,
                        help="directory of .txt documents to index "
                             "(default: built-in sample collection)")
    parser.add_argument("--k", type=int, default=5,
                        help="results to display")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="build a network and run showcase queries")
    demo.add_argument("--queries", type=int, default=3,
                      help="number of showcase queries")

    query = subparsers.add_parser(
        "query", help="run one multi-keyword query")
    query.add_argument("text", help="the query string")
    query.add_argument("--refine", action="store_true",
                       help="two-step retrieval (refine at holders)")

    monitor = subparsers.add_parser(
        "monitor", help="print the network-state dashboard")
    monitor.add_argument("--queries", type=int, default=10,
                         help="queries to run before the snapshot")

    cluster = subparsers.add_parser(
        "cluster", help="run queries over a real localhost UDP cluster "
                        "(multi-process)")
    cluster.add_argument("--hosts", type=int, default=2,
                         help="number of OS processes hosting peers")
    cluster.add_argument("--queries", type=int, default=3,
                         help="number of showcase queries")
    cluster.add_argument("--timeout", type=float, default=5.0,
                         help="per-request UDP timeout in seconds")
    # Internal: how the driver re-invokes this CLI as a peer host.
    cluster.add_argument("--serve-host", type=int, default=None,
                         help=argparse.SUPPRESS)
    cluster.add_argument("--driver", default=None,
                         help=argparse.SUPPRESS)
    cluster.add_argument("--spec", default=None,
                         help=argparse.SUPPRESS)

    lint = subparsers.add_parser(
        "lint", help="run the repo's AST invariant checkers "
                     "(determinism, wire-schema sync, layering, ...)")
    add_lint_arguments(lint)

    scenario = subparsers.add_parser(
        "scenario", help="run a named adversarial scenario from the "
                         "atlas (churn storms, flash crowds, "
                         "partitions, ...)")
    scenario.add_argument("action", choices=("run", "list"),
                          help="'run' a named scenario or 'list' the "
                               "atlas")
    scenario.add_argument("name", nargs="?", default=None,
                          help="scenario name (see `repro scenario "
                               "list`)")
    # Distinct dests so the scenario spec's own sizing wins unless the
    # user explicitly overrides it after the subcommand.
    scenario.add_argument("--seed", type=int, default=None,
                          dest="scenario_seed",
                          help="deterministic seed (default: the "
                               "global --seed)")
    scenario.add_argument("--peers", type=int, default=None,
                          dest="scenario_peers",
                          help="override the scenario's network size")
    scenario.add_argument("--queries", type=int, default=None,
                          dest="scenario_queries",
                          help="override the scenario's base query "
                               "count")
    scenario.add_argument("--json", metavar="PATH", default=None,
                          dest="scenario_json",
                          help="write the ScenarioReport JSON to PATH "
                               "('-' for stdout)")
    return parser


def _build_network(args) -> AlvisNetwork:
    network = AlvisNetwork(num_peers=args.peers, config=AlvisConfig(),
                           seed=args.seed)
    if args.docs is not None:
        documents = load_directory(args.docs)
        if not documents:
            raise SystemExit(f"no documents found under {args.docs}")
    else:
        documents = sample_documents()
    network.distribute_documents(documents)
    network.build_index(mode=args.mode)
    return network


def _print_results(network, origin, results, trace, k, out) -> None:
    rows = []
    for document in results[:k]:
        details = network.fetch_document(origin, document.doc_id,
                                         terms=trace.query.terms)
        title = details.get("title") if details.get("ok") else \
            f"<{details.get('error')}>"
        url = details.get("url", "")
        rows.append([document.doc_id, f"{document.score:.3f}",
                     title, url])
    print(format_table(["doc", "score", "title", "url"], rows),
          file=out)
    print(f"[{trace.probed_count} keys probed, "
          f"{trace.skipped_count} skipped, {trace.bytes_sent} bytes, "
          f"{trace.lookup_hops} hops]", file=out)


def _command_demo(args, out) -> int:
    network = _build_network(args)
    print(f"{network}", file=out)
    workload = QueryWorkload.from_documents(
        list(_all_documents(network)),
        QueryWorkloadConfig(pool_size=max(args.queries, 1),
                            seed=args.seed))
    origin = network.peer_ids()[0]
    rng = make_rng(args.seed, "cli-demo")
    for index in range(args.queries):
        query_terms = list(workload.sample(rng))
        print(f"\nquery: {' '.join(query_terms)}", file=out)
        results, trace = network.query(origin, query_terms)
        _print_results(network, origin, results, trace, args.k, out)
    return 0


def _command_query(args, out) -> int:
    network = _build_network(args)
    origin = network.peer_ids()[0]
    try:
        results, trace = network.query(origin, args.text,
                                       refine=args.refine)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not results:
        print("no results", file=out)
        return 1
    _print_results(network, origin, results, trace, args.k, out)
    return 0


def _command_monitor(args, out) -> int:
    network = _build_network(args)
    workload = QueryWorkload.from_documents(
        list(_all_documents(network)),
        QueryWorkloadConfig(pool_size=max(args.queries, 1),
                            seed=args.seed))
    rng = make_rng(args.seed, "cli-monitor")
    origins = network.peer_ids()
    for index in range(args.queries):
        network.query(origins[index % len(origins)],
                      list(workload.sample(rng)))
    print(NetworkMonitor(network).render(), file=out)
    return 0


def _command_cluster(args, out) -> int:
    # Imported lazily: the cluster layer pulls in asyncio/subprocess
    # machinery the simulated commands never need.
    from repro.cluster import ClusterDriver, ClusterSpec, PeerProcessHost

    if args.serve_host is not None:
        # Internal entry point: this process is a peer host spawned by a
        # ClusterDriver; --driver/--spec carry the rendezvous details.
        if not args.driver or not args.spec:
            raise SystemExit("--serve-host requires --driver and --spec")
        host, _, port = args.driver.rpartition(":")
        return PeerProcessHost(ClusterSpec.from_json(args.spec),
                               args.serve_host,
                               (host, int(port))).serve()
    try:
        spec = ClusterSpec(num_peers=args.peers, num_hosts=args.hosts,
                           seed=args.seed, mode=args.mode,
                           request_timeout=args.timeout)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with ClusterDriver(spec) as driver:
        network = driver.network
        print(f"UDP cluster: {network} across {args.hosts} processes, "
              f"driver at {driver.transport.local_address[0]}:"
              f"{driver.transport.local_address[1]}", file=out)
        workload = QueryWorkload.from_documents(
            list(_all_documents(network)),
            QueryWorkloadConfig(pool_size=max(args.queries, 1),
                                seed=args.seed))
        origin = sorted(network.peer_ids())[0]
        rng = make_rng(args.seed, "cli-cluster")
        for _index in range(args.queries):
            query_terms = list(workload.sample(rng))
            print(f"\nquery: {' '.join(query_terms)}", file=out)
            results, trace = driver.run_query(origin, query_terms)
            _print_results(network, origin, results, trace, args.k, out)
        print(f"\n[{driver.transport.datagrams_sent} datagrams out, "
              f"{driver.transport.datagrams_received} in, "
              f"{driver.transport.wire_bytes_sent} wire bytes out]",
              file=out)
    return 0


def _command_scenario(args, out) -> int:
    # Imported lazily: the scenario layer is only needed here.
    from repro.scenarios import ScenarioRunner, get_scenario, \
        scenario_names
    from repro.scenarios.registry import SCENARIOS

    if args.action == "list":
        rows = [[name,
                 str(SCENARIOS[name].num_peers),
                 str(SCENARIOS[name].workload.queries),
                 SCENARIOS[name].description]
                for name in scenario_names()]
        print(format_table(["scenario", "peers", "queries",
                            "description"], rows), file=out)
        return 0
    if args.name is None:
        print("error: `repro scenario run` needs a scenario name "
              "(see `repro scenario list`)", file=sys.stderr)
        return 2
    try:
        scenario = get_scenario(args.name)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scenario = scenario.scaled(num_peers=args.scenario_peers,
                               queries=args.scenario_queries)
    seed = (args.scenario_seed if args.scenario_seed is not None
            else args.seed)
    report = ScenarioRunner(scenario, seed=seed).run()
    print(report.render(), file=out)
    if args.scenario_json == "-":
        print(report.to_json(), file=out)
    elif args.scenario_json is not None:
        with open(args.scenario_json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    return 0 if report.passed else 1


def _all_documents(network):
    for peer in network.peers():
        yield from peer.engine.store


_COMMANDS = {
    "demo": _command_demo,
    "query": _command_query,
    "monitor": _command_monitor,
    "cluster": _command_cluster,
    "lint": run_lint_command,
    "scenario": _command_scenario,
}


def main(argv: Optional[Sequence[str]] = None,
         out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(
        list(argv) if argv is not None else None)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
