"""The benchmark command.

Two ways in, one code path:

* ``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as the last line of
  standard output, one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics`` — every end-to-end metric of
  ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
  ``--trace 1``.  This is the form the PR driver calls.
* without ``--workload`` it runs all four, each in a subprocess of its
  own (attributable RSS, no shared interpreter state), prints every
  metric by name with its unit and writes one stamped result set to
  ``perf/out/``.  ``--trace`` adds the traced run of each workload,
  ``--smoke`` shrinks the sizes (labelled, and never written where a
  full run writes), ``--check-determinism`` runs the smoke set twice
  with one seed and once with another and compares the simulator-output
  metrics.

The exit code is non-zero when a correctness check fails.
``PYTHONHASHSEED`` is pinned to 0 (by re-executing once if need be), so
dict and set layout — and with it timing — repeats between runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} "
             "is missing")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import spec  # noqa: E402  (needs the path set above)

#: Wall-clock cap of one child run; the driver allows 180 s.
CHILD_TIMEOUT_S = 170


def _source_hash() -> str:
    """Identifies the program and the benchmark that ran, committed or
    not (the checkout the PR driver runs in is no git repository)."""
    digest = hashlib.sha256()
    for path in sorted(path for top in ("src", "perf")
                       for path in (ROOT / top).rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _stamp() -> Dict[str, Any]:
    """Where and on what this ran."""
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(("git", "-C", str(ROOT)) + args,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        import numpy
        numerics = ("pure-python"
                    if os.environ.get("REPRO_PURE_PYTHON") == "1"
                    else f"numpy {numpy.__version__}")
    except ImportError:
        numerics = "pure-python"
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD") or "unknown",
            "dirty": bool(status) if status is not None else None,
            "source": _source_hash(),
            "python": platform.python_version(), "numerics": numerics,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}


def _declared(benchmark: Dict[str, Any], trace: bool) -> Dict[str, str]:
    """Metric name -> unit for the run kind."""
    return {metric["name"]: metric["unit"]
            for metric in benchmark["per_layer" if trace else "end_to_end"]}


def run_one(name: str, mode: str, seed: int, seconds: float,
            trace: bool, out: Optional[str]) -> int:
    """Measure one workload here; print its metrics and the result line."""
    from perf.harness import measure    # imports the program under test
    benchmark = spec.load_benchmark()
    units = _declared(benchmark, trace)
    stamp = _stamp()
    record = measure(name, mode, seed, seconds, trace)
    stamp["loadavg_end"] = list(os.getloadavg())
    record["stamp"] = stamp
    if set(record["metrics"]) != set(units):
        sys.exit("perf/run.py: emitted metrics differ from BENCHMARK.json: "
                 f"{sorted(set(record['metrics']) ^ set(units))}")

    path = _out_path(
        mode, f"{name}_seed{seed}{'_trace' if trace else ''}.json", out)
    if trace:       # the span report goes beside the record
        report = record.pop("trace_report")
        report["stamp"] = stamp
        _out_path(mode, "", str(path.with_name(f"trace_{name}.json"))
                  ).write_text(json.dumps(report) + "\n", encoding="utf-8")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {name}  mode={mode} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}  rounds={len(record['round_wall_s'])} "
          f"wall={record['wall_s']:.1f}s")
    for metric, value in record["metrics"].items():
        print(f"{metric:36s} {value:18.6f} {units[metric]}")
    for check in record["checks"]:
        print(f"check {check['name']:24s} "
              f"{'ok  ' if check['passed'] else 'FAIL'} {check['detail']}")
    if record["first_error"]:
        print(record["first_error"], file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in record["metrics"].items()}}))
    return 0 if record["correct"] else 1


def _child(name: str, mode: str, seed: int, seconds: float,
           trace: bool) -> Dict[str, Any]:
    """One workload in a subprocess of its own; its parsed result line."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if mode == "smoke":
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"perf/run.py: {name} printed no result "
                 f"(exit code {done.returncode})")
    result["exit_code"] = done.returncode
    return result


def run_set(mode: str, seed: int, seconds: float, trace: bool,
            names: List[str]) -> Dict[str, Any]:
    """Every workload once (plus its traced run with ``trace``)."""
    stamp = _stamp()
    workloads: Dict[str, Any] = {}
    for name in names:
        print(f"running {name} ...", file=sys.stderr)
        result = _child(name, mode, seed, seconds, False)
        if trace:
            traced = _child(name, mode, seed, seconds, True)
            result["per_layer"] = traced["metrics"]
            result["correct"] = result["correct"] and traced["correct"]
            result["exit_code"] = result["exit_code"] or traced["exit_code"]
        workloads[name] = result
    stamp["loadavg_end"] = list(os.getloadavg())
    return {"mode": mode, "seed": seed, "seconds": seconds, "stamp": stamp,
            "sizes": {name: spec.SIZES[name][mode] for name in names},
            "workloads": workloads}


def _print_set(result_set: Dict[str, Any]) -> None:
    for name, result in result_set["workloads"].items():
        print(f"\n== {name} [{result_set['mode']}]  "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        for group in ("metrics", "per_layer"):
            for metric, cell in result.get(group, {}).items():
                print(f"  {metric:36s} {cell['value']:18.6f} {cell['unit']}")


def _out_path(mode: str, default_name: str,
              requested: Optional[str]) -> pathlib.Path:
    """Where a result goes: ``requested``, else ``default_name`` in
    ``perf/out/``.  Smoke output can never take the path a full run
    uses (its name always ends in ``.smoke.json``)."""
    if requested is None:
        spec.OUT_DIR.mkdir(exist_ok=True)
        path = spec.OUT_DIR / default_name
    else:
        path = pathlib.Path(requested)
    if mode == "smoke" and not path.name.endswith(".smoke.json"):
        path = path.with_name(path.stem + ".smoke.json")
    if mode == "full" and path.name.endswith(".smoke.json"):
        sys.exit(f"perf/run.py: {path} is reserved for --smoke output")
    return path


def check_determinism(seed: int, seconds: float, names: List[str]) -> int:
    """Exact metrics: equal for equal seeds, different for another."""
    first, second, other = (
        run_set("smoke", run_seed, seconds, False, names)["workloads"]
        for run_seed in (seed, seed, seed + 1))
    status = 0
    for name in names:
        same, moved = [], []
        for metric in spec.EXACT_METRICS:
            values = [run[name]["metrics"][metric]["value"]
                      for run in (first, second, other)]
            if values[0] != values[1]:
                same.append(f"{metric}: {values[0]!r} != {values[1]!r}")
            if values[0] != values[2]:
                moved.append(metric)
        if same or not moved:
            status = 1
        print(f"{name:14s} same seed: "
              f"{'identical' if not same else '; '.join(same)}   "
              f"other seed moved: {', '.join(moved) or 'NOTHING'}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.SIZES),
                        help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed wall clock per run "
                             "(default: run_seconds of BENCHMARK.json; "
                             "1 with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="run with the span tracer installed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for tests; output is labelled")
    parser.add_argument("--out", help="where to write the result "
                                      "(default: a file in perf/out/)")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke or args.check_determinism else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = (1.0 if mode == "smoke"
                   else float(spec.load_benchmark()["run_seconds"]))
    names = [args.workload] if args.workload else list(spec.SIZES)
    if args.check_determinism:
        return check_determinism(args.seed, seconds, names)
    if args.workload:
        if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
            os.environ["PYTHONHASHSEED"] = "0"
            os.execv(sys.executable, [sys.executable] + sys.argv)
        return run_one(args.workload, mode, args.seed, seconds,
                       bool(args.trace), args.out)
    result_set = run_set(mode, args.seed, seconds, bool(args.trace), names)
    _print_set(result_set)
    path = _out_path(mode, f"set_seed{args.seed}.json", args.out)
    path.write_text(json.dumps(result_set, indent=1) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path}")
    return max(result["exit_code"]
               for result in result_set["workloads"].values())


if __name__ == "__main__":
    sys.exit(main())
