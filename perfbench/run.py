"""Run one benchmark workload and print its result as the last line.

Usage::

    python3 perfbench/run.py --workload urban-dense --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--out FILE`` also appends the full record
(metrics, provenance, raw figures) as one JSON line, the input of
``compare.py``.  The process re-executes itself once to pin
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bench


def main(argv) -> int:
    if os.environ.get("PYTHONHASHSEED") != bench.PINNED_HASHSEED:
        env = dict(os.environ, PYTHONHASHSEED=bench.PINNED_HASHSEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this JSONL file")
    args = parser.parse_args(argv)

    sys.path.insert(0, bench.SRC)
    workload = bench.WORKLOADS[args.workload]
    result = bench.run_workload(
        workload, args.seed, args.seconds, bool(args.trace),
        os.path.join(bench.HERE, ".work"),
    )
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "metrics": result.metrics,
        "units": result.units,
        "raw": result.extra,
        "digest": result.digests[0],
        "provenance": bench.provenance(),
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
