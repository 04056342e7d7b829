"""Overlay robustness: churn with index handover, and congestion control.

Exercises the two Layer-2 mechanisms the paper highlights (Section 3):

* **Churn** — peers join and leave while the global index stays
  consistent: key ranges are handed over (byte-accounted), and queries
  keep returning the same results.
* **Congestion control** — the NCA'06-style AIMD window on each
  origin's dispatch queue vs. blind retransmission, with one origin
  querying one hot key whose owner is a bounded service queue: the open
  loop collapses into retransmission churn past saturation, AIMD does
  not.

Run with::

    python examples/churn_and_congestion.py
"""

from __future__ import annotations

from repro import AlvisNetwork
from repro.corpus import sample_documents
from repro.eval.congestion import hot_key, overload_point
from repro.eval.reporting import print_table


def churn_demo() -> None:
    network = AlvisNetwork(num_peers=8, seed=3)
    network.distribute_documents(sample_documents())
    network.build_index(mode="hdk")
    origin = network.peer_ids()[0]
    baseline_results, _ = network.query(origin, "query lattice")
    baseline_ids = [doc.doc_id for doc in baseline_results]

    churn = network.churn()
    rows = []
    for step in range(6):
        network.reset_traffic()
        if step % 2 == 0:
            action = "join"
            churn.join()
        else:
            # A departing peer takes its documents with it (they "always
            # remain at the peer that holds them"); its index range is
            # handed to the successor.
            action = "leave"
            churn.leave()
        handover = network.bytes_by_kind().get("IndexHandover", 0.0)
        origin = network.peer_ids()[0]  # query from any live peer
        results, _ = network.query(origin, "query lattice")
        live_ids = [doc.doc_id for doc in results]
        surviving = [doc_id for doc_id in baseline_ids
                     if network.doc_owner(doc_id) is not None]
        stable = all(doc_id in live_ids for doc_id in surviving)
        rows.append([step + 1, action, network.num_peers,
                     network.total_keys(), handover, len(results),
                     "yes" if stable else "NO"])
    print_table(
        "churn session: index handover and query stability",
        ["step", "event", "peers", "keys", "handover bytes", "results",
         "surviving docs found"], rows)


def congestion_demo() -> None:
    # The paper's per-probe traffic: one lookup plus one ProbeKey per
    # single-key query, all aimed at one owner's service queue.
    hot = hot_key(3)
    rows = []
    for load in (0.5, 1.0, 2.0, 5.0, 10.0):
        open_loop, aimd = (overload_point(hot, load, span=2.0,
                                          congestion_control=controlled)
                           for controlled in (False, True))
        rows.append([load, open_loop["goodput"], open_loop["queue_drops"],
                     aimd["goodput"], aimd["queue_drops"]])
    print_table(
        f"congestion: goodput while arrivals last vs offered load "
        f"(capacity {hot.capacity:.0f} queries/s)",
        ["offered/capacity", "open-loop goodput", "open-loop drops",
         "AIMD goodput", "AIMD drops"], rows)


def main() -> None:
    churn_demo()
    print()
    congestion_demo()


if __name__ == "__main__":
    main()
