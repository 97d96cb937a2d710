"""Plain-text tables for benchmark output (no plotting dependency)."""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Fixed-width table with a rule under the header."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.2f}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def paper_vs_measured(title: str, rows: List[Dict], keys: Sequence[str],
                      paper_key: str = "paper",
                      measured_key: str = "measured") -> str:
    """Render EXPERIMENTS.md-style comparison rows.

    Each row dict carries identifying ``keys`` plus paper/measured
    values; ratio column is measured/paper when both are numeric.
    """
    headers = list(keys) + ["paper", "measured", "measured/paper"]
    table_rows = []
    for row in rows:
        paper = row.get(paper_key)
        measured = row.get(measured_key)
        ratio = ""
        if isinstance(paper, (int, float)) and isinstance(measured, (int, float)) \
                and paper:
            ratio = f"{measured / paper:.2f}"
        table_rows.append(
            [row.get(k, "") for k in keys]
            + [paper if paper is not None else "-",
               measured if measured is not None else "-",
               ratio]
        )
    return format_table(headers, table_rows, title)

