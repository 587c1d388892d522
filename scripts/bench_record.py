#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<PR>.json.

Usage: python scripts/bench_record.py PR

From the root of the checkout that holds this script, runs every workload of
BENCHMARK.json once, untraced, for its declared ``run_seconds``, then the
tier-1 suite once, and writes BENCH_<PR>.json there with:
  - per workload, the result (the last JSON line perfbench prints) and the
    machine provenance line;
  - the tier-1 command, wall time, exit code and summary line;
  - the commit (``git rev-parse HEAD``) and whether the tree had changes.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["python", "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run(argv, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def workload(command, name: str, seconds: float) -> dict:
    out = run(command + ["--workload", name, "--seconds", str(seconds), "--trace", "0"])
    lines = out.stdout.splitlines()
    provenance = [line for line in lines if line.startswith("provenance ")]
    result = None
    for line in reversed(lines):
        try:
            result = json.loads(line)
            break
        except ValueError:
            continue
    return {"exit_code": out.returncode, "result": result,
            "provenance": json.loads(provenance[-1][len("provenance "):]) if provenance else None}


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
    record = {
        "pr": args.pr,
        "commit": run(["git", "rev-parse", "HEAD"]).stdout.strip(),
        "tree_changed": bool(run(["git", "status", "--porcelain", "--untracked-files=no"])
                             .stdout.strip()),
        "run_seconds": spec["run_seconds"],
        "workloads": {w["name"]: workload(spec["command"], w["name"], spec["run_seconds"])
                      for w in spec["workloads"]},
        "tier1": tier1(),
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    failed = [name for name, w in record["workloads"].items()
              if w["exit_code"] != 0 or not (w["result"] or {}).get("correct")]
    return 1 if failed or record["tier1"]["exit_code"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
