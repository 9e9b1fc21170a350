#!/usr/bin/env python3
"""Record the expected-output reference the benchmark checks against.

Usage (from the repository root, on the commit whose outputs are correct):

    python3 benchmark/record.py [--workload NAME ...] [--seeds 0-9]

For each workload and generation seed, every pool instance runs once in
canonical order; its canonical report must hold, and an 18-bit digest of the
report text is stored in ``benchmark/reference/<workload>.json``.  Seeds
already in the file are kept unless recorded again.  ``run.py`` folds
``--seed`` onto the recorded seeds modulo their count, so they must be
0..N-1.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def record(workload: str, gen_seed: int) -> str:
    mods = workloads.import_package()
    pool = workloads.build(workload, gen_seed, mods)
    packed = []
    for label, instance in zip(pool.labels, pool.instances):
        holds, text = instance()
        if not holds:
            raise SystemExit(f"{workload} seed {gen_seed}: {label} does not hold")
        packed.append(run.digest(text))
    return "".join(packed)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="0-9", help="generation seeds, as N or N-M")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    for workload in args.workload or workloads.WORKLOADS:
        path = run.reference_path(workload)
        doc = json.loads(path.read_text()) if path.exists() else {
            "workload": workload, "digest": "base64(sha256(report)[:3])[:3]", "seeds": {}}
        for gen_seed in parse_seeds(args.seeds):
            doc["seeds"][str(gen_seed)] = record(workload, gen_seed)
            print(f"{workload} seed {gen_seed}: "
                  f"{len(doc['seeds'][str(gen_seed)]) // 3} instances", flush=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
