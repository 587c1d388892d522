#!/usr/bin/env python3
"""Regenerate every benchmark dataset into one output directory.

Usage: python scripts/reproduce_all.py [outdir] [--seed N] [--fast] [--format csv|json]

--fast trims the simulated-experiment repetitions so the whole sweep finishes
in about a minute; without it the full 500-repetition experiment runs.
--format picks the file format of every target (CSV by default).
"""

import argparse
import sys
import time

from ptmoments.cli import REPRODUCE_TARGETS, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="out")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()

    for target in REPRODUCE_TARGETS:
        argv = ["reproduce", target, "--out", args.outdir, "--seed", str(args.seed),
                "--format", args.format]
        if args.fast and target in ("fig4", "fig7"):
            argv += ["--repetitions", "50"]
        started = time.perf_counter()
        code = cli_main(argv)
        if code != 0:
            return code
        print(f"  {target} done in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
