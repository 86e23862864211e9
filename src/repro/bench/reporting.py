"""Plain-text reporting helpers for the benchmark harness.

Every benchmark prints the same rows/series as the corresponding paper
table or figure; these helpers keep that output consistent and aligned.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned fixed-width text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{cell:.2e}"
        if magnitude >= 100:
            return f"{cell:.0f}"
        return f"{cell:.2f}"
    return str(cell)
