#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<PR>.json, paired
with an earlier commit.

Usage: python scripts/bench_record.py PR [--against REV]

From the root of the checkout that holds this script, exports REV with
``git archive`` into a temporary directory and replaces its perfbench/ with
this checkout's, so that both sides run the same benchmark code, each on its
own src/. REV defaults to the commit of the newest BENCH_<n>.json with n
below PR. Then it runs every workload of BENCHMARK.json ``RUNS`` times on
each side, untraced, for its declared ``run_seconds``. Round i runs each
workload once on each side, REV first in even rounds and this checkout first
in odd ones, and the two runs of a round are a pair. Then it runs the tier-1
suite once and writes BENCH_<PR>.json there with:
  - per workload, for this checkout's runs:
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
  - ``against``: REV as given, its commit, and per workload the same record
    of REV's runs;
  - ``ratios``: per workload and metric, this checkout's value over REV's in
    each pair (``pairs``, in round order), with their median and quartiles;
  - the tier-1 command, wall time, exit code and summary line;
  - the commit (``git rev-parse HEAD``) and whether the tree had changes.
Raw medians compare only within one record; the trajectory across records
is read as the chain of their paired ratios.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["python", "-m", "pytest", "-q", "--continue-on-collection-errors"]
RUNS = 5


def run(argv, env=None, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def workload(command, name: str, seconds: float, cwd=ROOT) -> dict:
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = run(command + ["--workload", name, "--seconds", str(seconds), "--trace", "0"],
              cwd=cwd)
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


def quartiles(values: list) -> dict:
    """The median and the first and third quartiles of ``values``."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list) -> dict:
    """The record of one workload from its runs (see the module docstring)."""
    per_run = [metrics(one) for one in runs]
    stats = {name: quartiles([v[name] for v in per_run if name in v])
             for name in sorted({k for values in per_run for k in values})}
    timed = sorted((v["wall_s"], i) for i, v in enumerate(per_run) if "wall_s" in v)
    middle = runs[timed[(len(timed) - 1) // 2][1]] if timed else runs[-1]
    codes = [one["exit_code"] for one in runs]
    return {"exit_code": next((c for c in codes if c != 0), 0), "result": middle["result"],
            "provenance": middle["provenance"], "stats": stats,
            "runs": [{"exit_code": one["exit_code"], "metrics": values}
                     for one, values in zip(runs, per_run)]}


def ratios(base_runs: list, head_runs: list) -> dict:
    """Per metric, the head's value over the base's in each pair of runs (the
    i-th run of each side), with their median and quartiles.  A pair where
    either side lacks the metric, or the base reads 0, gives no ratio."""
    pairs = [(metrics(base), metrics(head)) for base, head in zip(base_runs, head_runs)]
    out = {}
    for name in sorted({k for base, head in pairs for k in base.keys() & head.keys()}):
        values = [head[name] / base[name] for base, head in pairs
                  if name in base and name in head and base[name]]
        if values:
            out[name] = {"pairs": values, **quartiles(values)}
    return out


def schedule(names: list, runs: int):
    """(workload, side) in run order: round i runs each workload once per
    side, the base first in even rounds and the head first in odd ones."""
    for i in range(runs):
        sides = ("base", "head") if i % 2 == 0 else ("head", "base")
        for name in names:
            for side in sides:
                yield name, side


def previous_commit(pr: str) -> str:
    """The commit of the newest BENCH_<n>.json with n below ``pr``."""
    numbered = {p.stem[len("BENCH_"):]: p for p in ROOT.glob("BENCH_*.json")}
    earlier = [int(n) for n in numbered if n.isdigit() and int(n) < int(pr)]
    if not earlier:
        raise SystemExit(f"no BENCH_<n>.json with n below {pr}: pass --against REV")
    return json.loads(numbered[str(max(earlier))].read_text())["commit"]


def export(rev: str, into: Path) -> str:
    """Extract the tree of ``rev`` into ``into`` with this checkout's
    perfbench/ in place of its own; returns the commit id of ``rev``."""
    commit = run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"])
    if commit.returncode != 0:
        raise SystemExit(f"unknown revision {rev!r}: {commit.stderr.strip()}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit.stdout.strip()],
                             cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    shutil.rmtree(into / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return commit.stdout.strip()


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
    parser.add_argument("--against", metavar="REV",
                        help="the commit to pair with (default: the previous BENCH file's)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    rev = args.against or previous_commit(args.pr)
    runs = {side: {name: [] for name in names} for side in ("base", "head")}
    with tempfile.TemporaryDirectory(prefix="bench_base_") as base:
        commit = export(rev, Path(base))
        where = {"base": base, "head": ROOT}
        for name, side in schedule(names, RUNS):
            runs[side][name].append(workload(spec["command"], name, spec["run_seconds"],
                                             where[side]))
    record = {
        "pr": args.pr,
        "commit": run(["git", "rev-parse", "HEAD"]).stdout.strip(),
        "tree_changed": bool(run(["git", "status", "--porcelain", "--untracked-files=no"])
                             .stdout.strip()),
        "run_seconds": spec["run_seconds"],
        "runs_per_workload": RUNS,
        "workloads": {name: summarize(runs["head"][name]) for name in names},
        "against": {"rev": rev, "commit": commit,
                    "workloads": {name: summarize(runs["base"][name]) for name in names}},
        "ratios": {name: ratios(runs["base"][name], runs["head"][name]) for name in names},
        "tier1": tier1(),
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    failed = [(side, name) for side in runs for name in names
              if any(one["exit_code"] != 0 or not (one["result"] or {}).get("correct")
                     for one in runs[side][name])]
    return 1 if failed or record["tier1"]["exit_code"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
