"""E7 — DHT routing: O(log n) tables and hops under arbitrary skew.

"Peers build routing tables of size O(log n), which results in an
expected routing cost of O(log n) hops... the DHT supports arbitrary
skews in the distribution of the peers in the identifier space"
(Section 3, citing Klemm et al., P2P 2007).

Series reproduced: mean/p99 lookup hops and routing-table size vs.
network size, for uniform and heavily clustered peer placement, comparing
naive id-space fingers with hop-space fingers.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.dht.idspace import random_id
from repro.dht.ring import DHTRing
from repro.dht.routing import (
    HopSpaceFingers,
    NaiveFingers,
    skewed_ids,
    uniform_ids,
)
from repro.eval.reporting import print_table
from repro.util.stats import percentile

_SIZES = (64, 256, 1024)
_LOOKUPS = 300

#: Every row of the series (n, placement, fingers, mean hops, p99, max,
#: mean table size), captured while routing still scanned per-node
#: finger tables; the closed-form routing must reproduce it exactly.
GOLDEN_ROWS = [
    [64, "uniform", "naive", 3.7066666666666666, 6.0, 6, 7.59375],
    [64, "uniform", "hop-space", 3.8033333333333332, 6.0, 6, 7.0],
    [64, "skewed", "naive", 3.1133333333333333, 5.0, 6, 7.4375],
    [64, "skewed", "hop-space", 2.783333333333333, 5.0, 5, 7.0],
    [256, "uniform", "naive", 4.62, 7.0, 7, 9.62109375],
    [256, "uniform", "hop-space", 4.773333333333333, 7.0, 7, 9.0],
    [256, "skewed", "naive", 4.083333333333333, 7.0, 8, 13.125],
    [256, "skewed", "hop-space", 3.756666666666667, 6.0, 7, 9.0],
    [1024, "uniform", "naive", 5.526666666666666, 9.0, 9, 11.650390625],
    [1024, "uniform", "hop-space", 5.6466666666666665, 9.0, 9, 11.0],
    [1024, "skewed", "naive", 6.49, 11.0, 12, 16.1142578125],
    [1024, "skewed", "hop-space", 4.843333333333334, 7.009999999999991, 8,
     11.0],
]


def _measure(ids, strategy, seed=0, peer_targets=False):
    ring = DHTRing(strategy)
    for node_id in ids:
        ring.add_node(node_id)
    rng = random.Random(seed)
    hops = []
    for _ in range(_LOOKUPS):
        source = rng.choice(ids)
        target = rng.choice(ids) if peer_targets else random_id(rng)
        hops.append(ring.lookup_many(source, [target]).per_key_hops[target])
    return {
        "mean": sum(hops) / len(hops),
        "p99": percentile(hops, 99),
        "max": max(hops),
        "table": ring.mean_routing_table_size(),
    }


@pytest.fixture(scope="module")
def e7_rows():
    rows = []
    for n in _SIZES:
        for placement, generator, peer_targets in (
                ("uniform", uniform_ids, False),
                ("skewed", lambda rng, count: skewed_ids(
                    rng, count, cluster_fraction=0.95,
                    cluster_width=1e-9), True)):
            ids = generator(random.Random(42), n)
            for name, strategy in (("naive", NaiveFingers()),
                                   ("hop-space", HopSpaceFingers())):
                stats = _measure(ids, strategy,
                                 peer_targets=peer_targets)
                rows.append([n, placement, name, stats["mean"],
                             stats["p99"], stats["max"],
                             stats["table"]])
    return rows


def test_e7_routing_hops(benchmark, capsys, e7_rows):
    ids = uniform_ids(random.Random(1), 256)
    ring = DHTRing(HopSpaceFingers())
    for node_id in ids:
        ring.add_node(node_id)
    rng = random.Random(2)
    benchmark(lambda: ring.lookup_many(rng.choice(ids), [random_id(rng)]))
    with capsys.disabled():
        print_table(
            "E7 lookup hops and table size vs n",
            ["n", "placement", "fingers", "mean hops", "p99", "max",
             "table size"],
            e7_rows)


def test_e7_shape_holds(e7_rows):
    by_key = {(row[0], row[1], row[2]): row for row in e7_rows}
    for n in _SIZES:
        log_n = math.log2(n)
        # Hop-space: ~log2(n) mean hops and table size, both placements.
        for placement in ("uniform", "skewed"):
            row = by_key[(n, placement, "hop-space")]
            assert row[3] <= log_n + 1           # mean hops
            assert row[6] <= log_n + 5           # table size
        # Under skew, hop-space must beat naive on worst-case hops and
        # keep smaller tables.
        naive = by_key[(n, "skewed", "naive")]
        hopspace = by_key[(n, "skewed", "hop-space")]
        assert hopspace[5] <= naive[5]           # max hops
        assert hopspace[6] <= naive[6] + 1       # table size
    # Hops grow logarithmically: quadrupling n adds ~2 hops, not 4x.
    small = by_key[(_SIZES[0], "uniform", "hop-space")][3]
    large = by_key[(_SIZES[-1], "uniform", "hop-space")][3]
    assert large - small < 2 * math.log2(_SIZES[-1] / _SIZES[0])


def test_e7_rows_pinned(e7_rows):
    assert e7_rows == GOLDEN_ROWS
