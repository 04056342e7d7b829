"""Compare two sides of benchmark results under the bounds of
``BENCHMARK.json``.

    python3 perf/compare.py BASE.json NEW.json
    python3 perf/compare.py base1.json,base2.json,... new1.json,new2.json,...

Each file is a result set written by ``perf/run.py`` (all workloads, one
seed).  One row is printed per (workload, end-to-end metric):

* ``better`` / ``worse`` — NEW's median moved by more than the metric's
  bound (a share of BASE's median) in that direction;
* ``within bound`` — it did not;
* ``unresolved`` — the run-to-run spread of a side is wider than the
  bound and the difference does not stand clear of it;
* ``not repeatable`` — a simulator-output metric differs although both
  sides ran the same source (the stamps' ``source`` hash) on the same
  seeds, where it must repeat bit for bit.

With several runs per side the medians are compared and each side's
spread is its inter-quartile distance over its median (its full range
with fewer than four runs); with one run per side no spread is known.
Each workload also gets a ``failed_share`` row (failed / attempted
operations), ``worse`` when NEW's exceeds BASE's by more than 0.001.
The exit code is 1 if any row is ``worse`` or ``not repeatable``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perf import spec  # noqa: E402  (needs the path set above)

#: How far the failed share of a workload's operations may rise (absolute).
FAILED_SHARE_BOUND = 0.001


def load_side(argument: str) -> List[Dict[str, Any]]:
    """The result sets named by one comma-separated argument."""
    sets = []
    for name in argument.split(","):
        with open(name, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    return sets


def spread(values: Sequence[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median (None for one run)."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        width = quartiles[2] - quartiles[0]
    else:
        width = max(values) - min(values)
    return abs(width / median) if median else 0.0


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> Dict[str, Any]:
    """Classify one (workload, metric) pair."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = ((new_median - base_median) / abs(base_median)
              if base_median else 0.0)
    worse_by = change if better == "lower" else -change
    spreads = [value for value in (spread(base), spread(new))
               if value is not None]
    noise = max(spreads) if spreads else None
    if noise is not None and noise > bound and abs(worse_by) <= noise:
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    elif worse_by < -bound:
        status = "better"
    else:
        status = "within bound"
    return {"base": base_median, "new": new_median, "worse_by": worse_by,
            "noise": noise, "status": status,
            "identical": list(base) == list(new)}


def failed_share_row(attempted: Sequence[int],
                     failed: Sequence[int]) -> Dict[str, Any]:
    """The row that keeps a change from trading failures for speed."""
    base, new = (count / total for count, total in zip(failed, attempted))
    worse_by = new - base       # absolute: the base is 0 when all is well
    return {"metric": "failed_share", "unit": "share", "base": base,
            "new": new, "worse_by": worse_by, "bound": FAILED_SHARE_BOUND,
            "noise": None, "identical": base == new,
            "status": ("worse" if worse_by > FAILED_SHARE_BOUND else
                       "better" if worse_by < -FAILED_SHARE_BOUND else
                       "within bound")}


def compare(base_sets: List[Dict[str, Any]], new_sets: List[Dict[str, Any]],
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) both sides measured,
    and one for the workload's failed share."""
    must_repeat = (
        len({result_set["stamp"]["source"]
             for result_set in base_sets + new_sets}) == 1
        and [result_set["seed"] for result_set in base_sets]
        == [result_set["seed"] for result_set in new_sets])
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        sides = [[result_set["workloads"][workload]
                  for result_set in sets
                  if workload in result_set["workloads"]]
                 for sets in (base_sets, new_sets)]
        if not all(sides):
            continue
        counts = {key: [sum(run[key] for run in side) for side in sides]
                  for key in ("attempted", "failed")}
        of_workload = []
        for metric in benchmark["end_to_end"]:
            values = [[run["metrics"][metric["name"]]["value"]
                       for run in side] for side in sides]
            row = verdict(values[0], values[1], metric["better"],
                          metric["bound"])
            if (must_repeat and metric["name"] in spec.EXACT_METRICS
                    and not row["identical"]):
                row["status"] = "not repeatable"
            row.update(metric=metric["name"], unit=metric["unit"],
                       bound=metric["bound"])
            of_workload.append(row)
        of_workload.append(failed_share_row(**counts))
        rows.extend(dict(row, workload=workload, **counts)
                    for row in of_workload)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark result sets under the bounds of "
                    "BENCHMARK.json")
    parser.add_argument("base", help="result set(s) of the parent commit, "
                                     "comma-separated")
    parser.add_argument("new", help="result set(s) of the change")
    args = parser.parse_args(argv)
    base_sets, new_sets = load_side(args.base), load_side(args.new)
    for label, sets in (("base", base_sets), ("new", new_sets)):
        modes = {result_set["mode"] for result_set in sets}
        print(f"{label}: {len(sets)} run(s), mode {'/'.join(sorted(modes))}, "
              f"seeds {[result_set['seed'] for result_set in sets]}, "
              f"commit {sets[0]['stamp']['commit'][:12]}, "
              f"source {sets[0]['stamp']['source']}")
    rows = compare(base_sets, new_sets, spec.load_benchmark())
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            print(f"\n{workload}: attempted {row['attempted'][0]} -> "
                  f"{row['attempted'][1]}, failed {row['failed'][0]} -> "
                  f"{row['failed'][1]}")
        noise = ("      -" if row["noise"] is None
                 else f"{row['noise']:7.2%}")
        print(f"  {row['metric']:24s} {row['base']:14.4f} -> "
              f"{row['new']:14.4f} {row['unit']:6s} "
              f"worse by {row['worse_by']:+8.2%}  bound {row['bound']:6.2%}  "
              f"spread {noise}  {row['status']}"
              f"{'  (identical)' if row['identical'] else ''}")
    count = {status: sum(row["status"] == status for row in rows)
             for status in ("worse", "not repeatable", "unresolved")}
    print(f"\n{len(rows)} rows, " + ", ".join(
        f"{number} {status}" for status, number in count.items()))
    return 1 if count["worse"] or count["not repeatable"] else 0


if __name__ == "__main__":
    sys.exit(main())
