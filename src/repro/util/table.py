"""Plain-text table rendering shared by reports and diagnostics."""

from __future__ import annotations

from typing import Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Monospace table with right-aligned columns; floats get 5 significant digits."""

    def fmt(v) -> str:
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) < 1e-3 or abs(v) >= 1e5:
                return f"{v:.3e}"
            return f"{v:.5g}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
