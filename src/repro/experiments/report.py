"""Report rendering and shape-assertion helpers.

The benchmarks print our measurements side by side with the paper's and
verify *shape* criteria (who wins, growth trends, where curves bend) —
never absolute 1996 wall-clock times.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.table import render_table  # noqa: F401 - re-exported


# ------------------------------------------------------------------ shapes
def growth_exponent(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x (the power-law exponent)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def is_monotone_increasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """True if each value is at least ``(1 - slack)`` of its predecessor."""
    v = np.asarray(values, dtype=float)
    return bool(np.all(v[1:] >= v[:-1] * (1.0 - slack)))


def u_shape_minimum(x: Sequence[float], y: Sequence[float]) -> float:
    """The ``x`` at which ``y`` attains its minimum (for U-shaped curves)."""
    y = np.asarray(y, dtype=float)
    return float(np.asarray(x, dtype=float)[int(np.argmin(y))])


def relative_series(values: Sequence[float]) -> np.ndarray:
    """Normalize a series by its first element (shape comparison aid)."""
    v = np.asarray(values, dtype=float)
    return v / v[0]
