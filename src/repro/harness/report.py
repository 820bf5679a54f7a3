"""Plain-text rendering of experiment results.

The benchmarks print these tables so a run of ``pytest benchmarks/
--benchmark-only`` regenerates, in text form, every figure and table of the
paper's evaluation section.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence


def _cell(row: object, column: str) -> object:
    """``column`` of a dataclass row: a dotted attribute path (``recovery.total_ms``,
    ``ceiling.throughput_tps``) read from the row, or else from ``row.run``;
    ``""`` when neither has it."""
    for source in (row, getattr(row, "run", None)):
        try:
            return reduce(getattr, column.split("."), source)
        except AttributeError:
            pass
    return ""


def rows_to_dicts(rows: Sequence[object],
                  columns: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    """Convert a list of dataclass rows (or dicts) to plain dictionaries.

    ``columns`` defaults to a dict row's keys, and to a dataclass row's
    fields less the records it holds (``run``, ``ceiling``, ``recovery``);
    a column a dataclass row lacks is read from its ``run``.
    """
    out: List[Dict[str, object]] = []
    for row in rows:
        if isinstance(row, dict):
            out.append({c: row.get(c, "") for c in (columns or row)})
        elif is_dataclass(row):
            names = columns or [f.name for f in fields(row)
                                if not is_dataclass(getattr(row, f.name))]
            out.append({c: _cell(row, c) for c in names})
        else:
            raise TypeError(f"cannot render row of type {type(row).__name__}")
    return out


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(rows: Sequence[object], title: str = "",
                 columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    columns = columns or list(rows_to_dicts(rows[:1])[0])
    dicts = rows_to_dicts(rows, columns)
    table: List[List[str]] = [[str(c) for c in columns]]
    for row in dicts:
        table.append([_format_cell(row[c]) for c in columns])
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]

    def fmt(line: List[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(fmt(table[0]))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(fmt(line) for line in table[1:])
    return "\n".join(parts) + "\n"


def print_table(rows: Sequence[object], title: str = "",
                columns: Optional[Sequence[str]] = None) -> None:
    """Print a rendered table (convenience for benchmarks and examples)."""
    print(render_table(rows, title=title, columns=columns))
