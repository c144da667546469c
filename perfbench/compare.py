"""Compare two result sets of the benchmark.

Usage::

    python3 perfbench/compare.py BASE.jsonl [CANDIDATE.jsonl]

Each file holds run records appended by ``run.py --out``.  For every
workload and metric the tool prints, per side, the median, the quartiles
and the spread (quartile distance over median).  Given a candidate it adds
the share of pairs each side won (runs paired by seed, ties count for
neither), the candidate/base ratio of medians with its base, and a verdict:
``ok`` when the candidate's median is not worse than the base's by more
than the metric's bound in ``BENCHMARK.json``, ``WORSE`` otherwise.
Metrics without a bound (per-layer ones) get ``-``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Dict[Tuple[str, int, str], Dict[int, float]]:
    """(workload, trace, metric) -> {seed: value}."""
    table: Dict[Tuple[str, int, str], Dict[int, float]] = defaultdict(dict)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, value in record["metrics"].items():
                table[(record["workload"], record["trace"], name)][record["seed"]] = value
    return table


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR over median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def bounds() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare(base_path: str, candidate_path: str = None) -> List[str]:
    spec = bounds()
    base = load(base_path)
    candidate = load(candidate_path) if candidate_path else {}
    lines = []
    header = f"{'workload':<20} {'metric':<44} {'base median [q1, q3] spread':<40}"
    if candidate_path:
        header += f" {'candidate median [q1, q3] spread':<40} {'won b/c':<9} {'ratio c/b (base)':<26} verdict"
    lines.append(header)
    for key in sorted(base):
        workload, _, name = key
        b_med, b_q1, b_q3, b_spread = summary(list(base[key].values()))
        row = f"{workload:<20} {name:<44} {f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] {b_spread:.3f}':<40}"
        if candidate_path and key in candidate:
            c_med, c_q1, c_q3, c_spread = summary(list(candidate[key].values()))
            seeds = sorted(set(base[key]) & set(candidate[key]))
            metric = spec.get(name, {})
            lower = metric.get("better", "lower") == "lower"
            base_wins = cand_wins = 0
            for seed in seeds:
                b, c = base[key][seed], candidate[key][seed]
                if b == c:
                    continue
                if (c < b) == lower:
                    cand_wins += 1
                else:
                    base_wins += 1
            pairs = len(seeds) or 1
            ratio = c_med / b_med if b_med else float("nan")
            if "bound" in metric:
                worse = ratio - 1.0 if lower else 1.0 - ratio
                verdict = "ok" if worse <= metric["bound"] else "WORSE"
            else:
                verdict = "-"
            row += (
                f" {f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {c_spread:.3f}':<40}"
                f" {f'{base_wins / pairs:.2f}/{cand_wins / pairs:.2f}':<9}"
                f" {f'{ratio:.4f} ({b_med:.4g})':<26} {verdict}"
            )
        lines.append(row)
    return lines


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    print("\n".join(compare(*sys.argv[1:])))
