"""Work estimation (paper §4.3, Equation 1).

The static processor assignment needs to predict, *before* running, how
long a node's update will take.  The paper measures per-scalar-constraint
execution time over a grid of node sizes ``n`` and batch dimensions ``m``
(Table 2) and fits a constrained least-squares polynomial

    t(n, m) = c₀ + c₁·n + c₂·n² + c₃·m + c₄·n·m

(quadratic in the node size, linear in the batch dimension — higher-order
``m`` terms were unstable and negligible over the useful range).  The
regression is constrained exactly as in the paper:

1. the leading coefficient ``c₂`` must be positive (growth function), and
2. the sum of the coefficients and, separately, the constant term must be
   non-negative (no negative predicted time near the origin),

trading a slightly worse fit for guaranteed sanity away from the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.optimize

from repro.errors import WorkModelError

#: Term order of the design matrix: (1, n, n², m, n·m).
TERMS = ("const", "n", "n^2", "m", "n*m")


@dataclass(frozen=True)
class WorkModel:
    """Fitted per-scalar-constraint execution-time model (Equation 1)."""

    coefficients: np.ndarray  # (5,) in TERMS order

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.shape != (5,):
            raise WorkModelError("work model needs exactly 5 coefficients")
        object.__setattr__(self, "coefficients", c)

    # ------------------------------------------------------------ predict
    def per_constraint(self, n: float | np.ndarray, m: float | np.ndarray) -> np.ndarray | float:
        """Predicted time for one scalar constraint at node size ``n``, batch ``m``."""
        n = np.asarray(n, dtype=np.float64)
        m = np.asarray(m, dtype=np.float64)
        c = self.coefficients
        out = c[0] + c[1] * n + c[2] * n * n + c[3] * m + c[4] * n * m
        return float(out) if out.ndim == 0 else out

    def node_work(self, n: int, rows: int, m: int) -> float:
        """Predicted total time to apply ``rows`` scalar constraints at a node.

        ``n`` is the node state dimension and ``m`` the batch dimension the
        solver will use (capped by the available rows).
        """
        if rows <= 0:
            return 0.0
        m_eff = min(m, rows)
        return float(rows) * float(self.per_constraint(float(n), float(m_eff)))

    def best_batch(self, n: float, candidates: Sequence[int]) -> int:
        """Batch dimension among ``candidates`` minimizing predicted time."""
        if not candidates:
            raise WorkModelError("no batch candidates given")
        preds = [self.per_constraint(n, m) for m in candidates]
        return int(candidates[int(np.argmin(preds))])

    # ----------------------------------------------------------- residuals
    def node_work_batch(
        self,
        n: Sequence[float] | np.ndarray,
        rows: Sequence[float] | np.ndarray,
        m: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`node_work` over per-node sample arrays."""
        n = np.asarray(n, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.float64)
        m = np.minimum(np.asarray(m, dtype=np.float64), np.maximum(rows, 1.0))
        out = rows * np.asarray(self.per_constraint(n, m), dtype=np.float64)
        return np.where(rows > 0, out, 0.0)

    def residuals(
        self,
        n: Sequence[float] | np.ndarray,
        rows: Sequence[float] | np.ndarray,
        m: Sequence[float] | np.ndarray,
        measured: Sequence[float] | np.ndarray,
        scale: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-node ``(predicted, measured - scale·predicted)`` arrays.

        ``scale`` maps the model's time unit onto the measuring host's
        (the fitted machine and the traced machine generally differ);
        :func:`drift_report` estimates it robustly before judging fit.
        """
        predicted = self.node_work_batch(n, rows, m)
        measured = np.asarray(measured, dtype=np.float64)
        if predicted.shape != measured.shape:
            raise WorkModelError("measured durations must match the sample arrays")
        return predicted, measured - scale * predicted

    # -------------------------------------------------------------- checks
    def satisfies_paper_checks(self) -> bool:
        c = self.coefficients
        return bool(c[2] > 0 and c.sum() >= -1e-15 and c[0] >= -1e-15)


def design_matrix(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Design matrix in TERMS order for sample vectors ``n`` and ``m``."""
    n = np.asarray(n, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return np.column_stack([np.ones_like(n), n, n * n, m, n * m])


def fit_work_model(
    n: Sequence[float],
    m: Sequence[float],
    t: Sequence[float],
    min_batch: int = 4,
) -> WorkModel:
    """Fit Equation 1 to measured samples with the paper's constraints.

    ``min_batch`` excludes very small batch dimensions from the fit, as the
    paper does: tiny batches are dominated by cache-miss streaming effects
    the polynomial cannot (and should not) capture.

    The fit proceeds in two stages: an unconstrained-signs bounded fit
    (``c₀ ≥ 0``, ``c₂ > 0``), then — only if the coefficient-sum check
    fails — a fully non-negative refit.
    """
    n = np.asarray(n, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if not (n.shape == m.shape == t.shape) or n.ndim != 1:
        raise WorkModelError("n, m, t must be 1-D arrays of equal length")
    keep = m >= min_batch
    if keep.sum() < 5:
        raise WorkModelError("not enough samples after excluding small batches")
    a = design_matrix(n[keep], m[keep])
    y = t[keep]
    # Scale columns for conditioning: solve in scaled space, map back.
    scale = np.maximum(np.abs(a).max(axis=0), 1e-300)
    lower = np.array([0.0, -np.inf, 1e-300, -np.inf, -np.inf])
    res = scipy.optimize.lsq_linear(
        a / scale, y, bounds=(lower * scale, np.full(5, np.inf)), max_iter=200
    )
    coeffs = res.x / scale
    model = WorkModel(coeffs)
    if not model.satisfies_paper_checks():
        res = scipy.optimize.lsq_linear(
            a / scale, y, bounds=(np.zeros(5), np.full(5, np.inf)), max_iter=200
        )
        model = WorkModel(res.x / scale)
        if not model.satisfies_paper_checks():
            raise WorkModelError("constrained regression failed the paper's checks")
    return model


def drift_report(
    model: WorkModel,
    n: Sequence[float] | np.ndarray,
    rows: Sequence[float] | np.ndarray,
    m: Sequence[float] | np.ndarray,
    measured: Sequence[float] | np.ndarray,
    r2_threshold: float = 0.7,
    rel_threshold: float = 0.5,
) -> dict:
    """Judge how well Equation 1 still predicts measured per-node durations.

    A single host-speed scale (robust median of measured/predicted ratios)
    is fitted first, so the verdict reflects the *shape* of the model —
    what processor assignment actually depends on — not the absolute rate
    of the machine the model was calibrated on.  Returns a JSON-ready dict
    with the fitted scale, per-node residuals, R² of the scaled
    prediction, the median/max absolute relative residual, and a verdict:
    ``"calibrated"`` when both thresholds hold, ``"stale"`` when either
    fails, ``"insufficient-data"`` below 3 usable samples.
    """
    n = np.asarray(n, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    predicted = model.node_work_batch(n, rows, m)
    usable = (predicted > 0) & (measured > 0)
    base = {
        "n_samples": int(usable.sum()),
        "r2_threshold": float(r2_threshold),
        "rel_threshold": float(rel_threshold),
    }
    if usable.sum() < 3:
        return {**base, "verdict": "insufficient-data", "scale": None,
                "r2": None, "median_abs_rel": None, "max_abs_rel": None,
                "residuals": []}
    pred_u, meas_u = predicted[usable], measured[usable]
    scale = float(np.median(meas_u / pred_u))
    scaled = scale * pred_u
    resid = meas_u - scaled
    ss_res = float(resid @ resid)
    centered = meas_u - meas_u.mean()
    ss_tot = float(centered @ centered)
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    rel = np.abs(resid) / meas_u
    verdict = (
        "calibrated"
        if r2 >= r2_threshold and float(np.median(rel)) <= rel_threshold
        else "stale"
    )
    idx = np.flatnonzero(usable)
    residuals = [
        {
            "n": float(n[i]),
            "rows": float(rows[i]),
            "m": float(min(m[i], max(rows[i], 1.0))),
            "measured": float(measured[i]),
            "predicted": float(scale * predicted[i]),
            "residual": float(measured[i] - scale * predicted[i]),
            "rel": float(abs(measured[i] - scale * predicted[i]) / measured[i]),
        }
        for i in idx
    ]
    return {
        **base,
        "verdict": verdict,
        "scale": scale,
        "r2": float(r2),
        "median_abs_rel": float(np.median(rel)),
        "max_abs_rel": float(rel.max()),
        "residuals": residuals,
    }


def analytic_work_model(flop_rate: float = 2.0e8) -> WorkModel:
    """A first-principles fallback model derived from the FLOP counts of §2.

    Per scalar constraint at node size ``n`` with batch ``m``, the update's
    dominant terms are ``2n²`` (covariance update) + ``2nm`` (gain solves) +
    ``4n`` (dense-sparse) FLOPs; dividing by ``flop_rate`` gives seconds.
    Useful when no Table 2 measurements are available yet.
    """
    inv = 1.0 / flop_rate
    return WorkModel(np.array([50.0 * inv, 6.0 * inv, 2.0 * inv, 10.0 * inv, 2.0 * inv]))
