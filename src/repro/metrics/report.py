"""Plain-text result tables, series, and fault/trust outcome metrics.

The benchmark harness prints the tables/series the paper's evaluation would
contain.  Output is deliberately dependency-free ASCII so it reads well in
CI logs and in the EXPERIMENTS.md snippets.

The fault-metric helpers at the bottom turn raw simulation state into the
RQ3 headline numbers (wrong-result acceptance, honest-vs-malicious
reputation gap); they live here, next to the other reporting code, so both
the scenario reports and ad-hoc benchmark tables compute them identically.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence


class ResultTable:
    """A simple column-aligned ASCII table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values) -> None:
        """Append one row; values are stringified (floats to 4 significant digits)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        formatted = []
        for value in values:
            if isinstance(value, float):
                formatted.append(f"{value:.4g}")
            else:
                formatted.append(str(value))
        self.rows.append(formatted)

    def add_dict_row(self, row: Dict[str, object]) -> None:
        """Append a row from a dict keyed by column name."""
        self.add_row(*[row.get(column, "") for column in self.columns])

    def render(self) -> str:
        """Render the table as aligned plain text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float], x_label: str = "x", y_label: str = "y"
) -> str:
    """Render an (x, y) series as a two-column text block (one figure series)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    table = ResultTable(name, [x_label, y_label])
    for x, y in zip(xs, ys):
        table.add_row(float(x), float(y))
    return table.render()


# -------------------------------------------------------- fault/trust metrics


def wrong_result_acceptance_rate(lifecycles: Iterable[object]) -> float:
    """Fraction of completed tasks whose accepted value was a fabrication.

    A fabricated value is recognised by the duck-typed ``is_corrupted``
    marker that :class:`~repro.faults.adversary.CorruptedResult` carries, so
    no task-level ground truth is needed.  Returns 0.0 when nothing
    completed — an integrity metric should read clean, not undefined, for an
    idle system.
    """
    completed = 0
    wrong = 0
    for lifecycle in lifecycles:
        result = getattr(lifecycle, "result", None)
        if result is None or not getattr(result, "success", False):
            continue
        completed += 1
        if getattr(result.value, "is_corrupted", False):
            wrong += 1
    if completed == 0:
        return 0.0
    return wrong / completed


def reputation_gap(nodes: Sequence[object], malicious_names: Iterable[str]) -> float:
    """Honest observers' mean recorded score of honest vs. malicious peers.

    For every *honest* node's trust manager, every evidence-backed
    (recorded) peer score is pooled into an honest-peer or malicious-peer
    bucket; the gap is ``mean(honest) - mean(malicious)``.  Positive means
    reputation separates the populations — the RQ3 claim.  ``nan`` when
    either bucket is empty (no adversaries, or no recorded evidence yet).
    """
    malicious = set(malicious_names)
    honest_scores: List[float] = []
    malicious_scores: List[float] = []
    for node in nodes:
        if node.name in malicious:
            continue
        for peer, score in node.trust.recorded_scores().items():
            if peer in malicious:
                malicious_scores.append(score)
            else:
                honest_scores.append(score)
    if not honest_scores or not malicious_scores:
        return math.nan
    return sum(honest_scores) / len(honest_scores) - sum(malicious_scores) / len(
        malicious_scores
    )
