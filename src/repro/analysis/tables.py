"""Monospace text tables (the sweep and mapper-comparison reports)."""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["render_table"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Monospace table with column alignment (numbers right, text left)."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    numeric = [
        all(_is_numberish(row[i]) for row in rows) if rows else False
        for i in range(len(headers))
    ]

    def line(values: Sequence[str]) -> str:
        parts = []
        for i, v in enumerate(values):
            parts.append(v.rjust(widths[i]) if numeric[i] else v.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append(line(row))
    return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _is_numberish(value: object) -> bool:
    if isinstance(value, (int, float)):
        return True
    text = str(value).rstrip("*%")
    try:
        float(text)
    except ValueError:
        return False
    return True
