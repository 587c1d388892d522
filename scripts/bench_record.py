#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<PR>.json.

Usage: python scripts/bench_record.py PR

From the root of the checkout that holds this script, runs every workload of
BENCHMARK.json five times (``RUNS``), untraced, for its declared
``run_seconds``, alternating between the workloads (one run of each in
turn), then the tier-1 suite once, and writes BENCH_<PR>.json there with:
  - per workload:
    - ``runs``: each run's exit code, its metrics (name -> value, from the
      last JSON line perfbench prints) and ``minor_faults``, the minor page
      faults of the run's process (the ``resource.getrusage(RUSAGE_CHILDREN)``
      delta across it);
    - ``stats``: per metric and for ``minor_faults``, the median and the
      first and third quartiles (``q1``, ``q3``) over the runs;
    - ``result`` and ``provenance``: those of the run whose wall_s is the
      median;
    - ``exit_code``: the first nonzero exit code of the runs (a run killed by
      a signal has a negative one), or 0;
  - the tier-1 command, wall time, exit code and summary line;
  - the commit (``git rev-parse HEAD``) and whether the tree had changes.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["python", "-m", "pytest", "-q", "--continue-on-collection-errors"]
RUNS = 5


def run(argv, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def workload(command, name: str, seconds: float) -> dict:
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = run(command + ["--workload", name, "--seconds", str(seconds), "--trace", "0"])
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = out.stdout.splitlines()
    provenance = [line for line in lines if line.startswith("provenance ")]
    result = None
    for line in reversed(lines):
        try:
            result = json.loads(line)
            break
        except ValueError:
            continue
    return {"exit_code": out.returncode, "result": result, "minor_faults": faults,
            "provenance": json.loads(provenance[-1][len("provenance "):]) if provenance else None}


def metrics(one: dict) -> dict:
    """A run's metric values by name, with its minor page faults."""
    values = {k: m["value"] for k, m in ((one["result"] or {}).get("metrics") or {}).items()}
    return {**values, "minor_faults": one["minor_faults"]}


def summarize(runs: list) -> dict:
    """The record of one workload from its runs (see the module docstring)."""
    per_run = [metrics(one) for one in runs]
    stats = {}
    for name in sorted({k for values in per_run for k in values}):
        values = [v[name] for v in per_run if name in v]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        stats[name] = {"median": median, "q1": q1, "q3": q3}
    timed = sorted((v["wall_s"], i) for i, v in enumerate(per_run) if "wall_s" in v)
    middle = runs[timed[(len(timed) - 1) // 2][1]] if timed else runs[-1]
    codes = [one["exit_code"] for one in runs]
    return {"exit_code": next((c for c in codes if c != 0), 0), "result": middle["result"],
            "provenance": middle["provenance"], "stats": stats,
            "runs": [{"exit_code": one["exit_code"], "metrics": values}
                     for one, values in zip(runs, per_run)]}


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    started = time.perf_counter()
    out = run(TIER1, env)
    wall = time.perf_counter() - started
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    return {"command": "PYTHONPATH=src " + " ".join(TIER1), "wall_s": wall,
            "exit_code": out.returncode, "summary": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", help="PR number, the suffix of BENCH_<PR>.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    for _ in range(RUNS):
        for name in names:
            runs[name].append(workload(spec["command"], name, spec["run_seconds"]))
    record = {
        "pr": args.pr,
        "commit": run(["git", "rev-parse", "HEAD"]).stdout.strip(),
        "tree_changed": bool(run(["git", "status", "--porcelain", "--untracked-files=no"])
                             .stdout.strip()),
        "run_seconds": spec["run_seconds"],
        "runs_per_workload": RUNS,
        "workloads": {name: summarize(runs[name]) for name in names},
        "tier1": tier1(),
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    failed = [name for name, w in record["workloads"].items()
              if w["exit_code"] != 0 or not all((one["result"] or {}).get("correct")
                                                for one in runs[name])]
    return 1 if failed or record["tier1"]["exit_code"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
