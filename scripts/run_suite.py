#!/usr/bin/env python3
"""Run the full verification battery and write one report per check.

Usage: python scripts/run_suite.py [--seed N] [--count N] [--out DIR]

Every check id in the CLI registry is exercised on freshly generated
instances; reports land in DIR (default ./reports) as canonical JSON plus a
CSV table, and a one-line summary per check is printed.  Exit code 0 means
every instance of every check held.
"""

import argparse
import sys
import time
from pathlib import Path

from plunnecke_lab.cli import CHECKS, main as cli_main

# lemma-6.1 builds a product action per instance and lemma-5.4 enumerates
# heavy subsets, so their batches are fixed and smaller whatever --count says
COUNTS = {"lemma-6.1": 60, "lemma-5.4": 120}


def run(seed: int, count: int, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for check_id in sorted(CHECKS):
        n = COUNTS.get(check_id, count)
        json_path = out_dir / f"{check_id}.json"
        csv_path = out_dir / f"{check_id}.csv"
        started = time.perf_counter()
        code = cli_main([
            "verify", check_id, "--seed", str(seed), "--count", str(n),
            "--out", str(json_path), "--csv", str(csv_path),
        ])
        took = time.perf_counter() - started
        status = {0: "ok", 1: "VIOLATED", 2: "input error"}.get(code, "?")
        print(f"{check_id:<11} {n:>4} instances  {status:<11} {took:6.2f}s  -> {json_path}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--out", default="reports")
    args = parser.parse_args()
    sys.exit(run(args.seed, args.count, Path(args.out)))
