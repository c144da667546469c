#!/usr/bin/env python3
"""Validate a Prometheus text exposition 0.0.4 document.

Usage::

    python tools/check_metrics.py metrics.prom
    python tools/check_metrics.py http://127.0.0.1:9100/metrics
    repro fabric status --store sweep.db --prometheus | python tools/check_metrics.py -

Checks the conformance rules that matter for a scraper:

* every sample line parses (name, optional label block, value);
* metric and label names match the Prometheus grammar;
* a family's ``# TYPE`` line precedes its samples and appears once;
* counters end in ``_total``;
* no duplicate (family, labels) sample;
* histogram families emit ``_bucket`` series with monotonically
  non-decreasing cumulative counts, a ``+Inf`` bucket equal to ``_count``,
  and matching ``_sum``/``_count`` lines;
* values are valid floats (``NaN``, ``+Inf``, ``-Inf`` allowed).

Exits non-zero listing every violation.  Used by the CI observability smoke
and by ``tests/telemetry/test_check_metrics.py``; importable as a module
(:func:`check_exposition`).
"""

from __future__ import annotations

import sys
import urllib.request
from typing import Dict, List, Optional, Tuple

METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"

_VALUE_TOKENS = {"NaN", "+Inf", "-Inf", "Inf"}

#: Suffixes a histogram family fans out into.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _parse_value(token: str) -> Optional[float]:
    if token in _VALUE_TOKENS:
        return float("nan") if token == "NaN" else float(token.replace("Inf", "inf"))
    try:
        return float(token)
    except ValueError:
        return None


def _parse_labels(block: str) -> Optional[List[Tuple[str, str]]]:
    """Parse ``name="value",...`` respecting escapes; None on syntax error."""
    import re

    labels: List[Tuple[str, str]] = []
    rest = block
    pair = re.compile(
        r'\s*(' + LABEL_NAME + r')="((?:[^"\\]|\\.)*)"\s*(,|$)'
    )
    while rest:
        match = pair.match(rest)
        if match is None:
            return None
        labels.append((match.group(1), match.group(2)))
        rest = rest[match.end():]
    return labels


def _family_of(name: str, types: Dict[str, str]) -> str:
    """Map a sample name to its family (histogram suffixes fold in)."""
    for suffix in _HISTOGRAM_SUFFIXES:
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            return base
    return name


def check_exposition(text: str) -> List[str]:
    """Every conformance violation in ``text`` (empty list = valid)."""
    import re

    name_ok = re.compile(METRIC_NAME + r"$")
    sample_re = re.compile(
        r"(" + METRIC_NAME + r")(?:\{(.*)\})?\s+(\S+)(?:\s+\d+)?$"
    )
    errors: List[str] = []
    types: Dict[str, str] = {}
    sampled_before_type: List[str] = []
    seen: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {}
    # histogram bookkeeping: family -> labels-sans-le -> [(le, count)]
    buckets: Dict[str, Dict[Tuple[Tuple[str, str], ...], List[Tuple[str, float]]]] = {}
    sums: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    counts: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"line {lineno}: malformed TYPE line: {line!r}")
                continue
            _, _, family, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                errors.append(f"line {lineno}: unknown type {kind!r} for {family}")
            if family in types:
                errors.append(f"line {lineno}: duplicate TYPE for {family}")
            types[family] = kind
            continue
        if line.startswith("#"):
            continue  # HELP and comments are free-form
        match = sample_re.match(line)
        if match is None:
            errors.append(f"line {lineno}: unparsable sample: {line!r}")
            continue
        name, label_block, value_token = match.groups()
        if not name_ok.match(name):
            errors.append(f"line {lineno}: bad metric name {name!r}")
            continue
        labels = _parse_labels(label_block) if label_block else []
        if labels is None:
            errors.append(f"line {lineno}: bad label block in: {line!r}")
            continue
        value = _parse_value(value_token)
        if value is None:
            errors.append(f"line {lineno}: bad value {value_token!r}")
            continue
        family = _family_of(name, types)
        kind = types.get(family)
        if kind is None:
            sampled_before_type.append(
                f"line {lineno}: sample {name!r} has no preceding TYPE"
            )
            continue
        if kind == "counter" and not name.endswith("_total"):
            errors.append(f"line {lineno}: counter {name!r} must end in _total")
        key = (name, tuple(sorted(labels)))
        if key in seen:
            errors.append(
                f"line {lineno}: duplicate sample {name}{dict(labels)!r} "
                f"(first at line {seen[key]})"
            )
        seen[key] = lineno
        if kind == "histogram":
            plain = tuple(sorted(pair for pair in labels if pair[0] != "le"))
            if name == family + "_bucket":
                le = dict(labels).get("le")
                if le is None:
                    errors.append(f"line {lineno}: _bucket without le label")
                else:
                    buckets.setdefault(family, {}).setdefault(plain, []).append(
                        (le, value)
                    )
            elif name == family + "_sum":
                sums.setdefault(family, {})[plain] = value
            elif name == family + "_count":
                counts.setdefault(family, {})[plain] = value

    errors.extend(sampled_before_type)
    for family, by_labels in buckets.items():
        for plain, series in by_labels.items():
            cumulative = [count for _, count in series]
            if any(b < a for a, b in zip(cumulative, cumulative[1:])):
                errors.append(
                    f"{family}_bucket{dict(plain)!r}: cumulative counts "
                    f"decrease: {cumulative}"
                )
            les = [le for le, _ in series]
            if "+Inf" not in les:
                errors.append(f"{family}_bucket{dict(plain)!r}: no +Inf bucket")
            elif counts.get(family, {}).get(plain) is not None:
                inf_count = dict(series)["+Inf"]
                if inf_count != counts[family][plain]:
                    errors.append(
                        f"{family}{dict(plain)!r}: +Inf bucket {inf_count} != "
                        f"_count {counts[family][plain]}"
                    )
            if counts.get(family, {}).get(plain) is None:
                errors.append(f"{family}{dict(plain)!r}: missing _count")
            if sums.get(family, {}).get(plain) is None:
                errors.append(f"{family}{dict(plain)!r}: missing _sum")
    return errors


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "-":
        text = sys.stdin.read()
    else:
        try:
            if argv[0].startswith(("http://", "https://")):
                with urllib.request.urlopen(argv[0], timeout=10.0) as response:
                    text = response.read().decode("utf-8")
            else:
                with open(argv[0], "r", encoding="utf-8") as handle:
                    text = handle.read()
        except OSError as error:
            print(f"check_metrics: {error}", file=sys.stderr)
            return 2
    errors = check_exposition(text)
    for error in errors:
        print(f"check_metrics: {error}", file=sys.stderr)
    if errors:
        print(f"check_metrics: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    families = sum(1 for line in text.splitlines() if line.startswith("# TYPE "))
    print(f"check_metrics: OK ({families} families)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
