"""Output checks, run outside every timed region.

Each check returns a list of human-readable problems (empty = pass), so
a run can count failed ops and still report.  None compares against a
stored digest: pinned and unpinned BLAS already differ in the last bits,
and a correct kernel change may shift them too.
"""

from __future__ import annotations

import numpy as np

#: The repository's cross-tier tolerance (tests/test_fast_kernels.py).
CROSS_TIER_RTOL = 1e-10
CROSS_TIER_ATOL = 1e-10

#: Relative asymmetry allowed in a posterior covariance.
SYMMETRY_RTOL = 1e-10

_ROW_BLOCK = 256


def posterior_problems(estimate) -> list[str]:
    """Finite mean and covariance, symmetric covariance, positive diagonal."""
    mean, cov = estimate.mean, estimate.covariance
    problems = []
    if not np.isfinite(mean).all():
        problems.append("non-finite posterior mean")
    if not np.isfinite(cov).all():
        problems.append("non-finite posterior covariance")
        return problems
    diag = np.diagonal(cov)
    if not (diag > 0).all():
        problems.append("non-positive posterior variance")
    # Row blocks keep the temporary small: a full ``cov - cov.T`` would
    # raise the process's peak RSS by a whole covariance.
    asym = max(
        (
            float(np.abs(cov[i : i + _ROW_BLOCK] - cov[:, i : i + _ROW_BLOCK].T).max())
            for i in range(0, cov.shape[0], _ROW_BLOCK)
        ),
        default=0.0,
    )
    if asym > SYMMETRY_RTOL * float(np.abs(diag).max(initial=0.0)):
        problems.append(f"asymmetric posterior covariance (max |C - C^T| = {asym:.3e})")
    return problems


def cycle_problems(result) -> list[str]:
    """A solver cycle's posterior passes :func:`posterior_problems` and no batch was quarantined."""
    problems = posterior_problems(result.estimate)
    if result.quarantined:
        problems.append(f"{len(result.quarantined)} batches quarantined")
    return problems


def rmsd_problems(final_rmsd: float, start_rmsd: float, max_ratio: float) -> list[str]:
    """The solve must end at most ``max_ratio`` × the starting RMSD from the truth."""
    if not np.isfinite(final_rmsd) or final_rmsd > max_ratio * start_rmsd:
        return [
            f"RMSD to truth {final_rmsd:.4f} A exceeds {max_ratio} x start {start_rmsd:.4f} A"
        ]
    return []


def best_rmsd_problems(final_start: list[tuple[float, float]], max_ratio: float) -> list[str]:
    """At least one solve of a run ends at most ``max_ratio`` × its starting RMSD."""
    ratios = [final / start for final, start in final_start if np.isfinite(final)]
    best = min(ratios, default=float("nan"))
    if not best <= max_ratio:
        return [f"best final/start RMSD of the run {best:.3f} exceeds {max_ratio}"]
    return []


def match_problems(got, want, what: str) -> list[str]:
    """``got`` equals ``want`` to the cross-tier tolerance."""
    same = np.allclose(
        got.mean, want.mean, rtol=CROSS_TIER_RTOL, atol=CROSS_TIER_ATOL
    ) and np.allclose(
        got.covariance, want.covariance, rtol=CROSS_TIER_RTOL, atol=CROSS_TIER_ATOL
    )
    return [] if same else [f"{what} differs beyond rtol {CROSS_TIER_RTOL}"]


def bitwise_problems(got, want, what: str) -> list[str]:
    """``got`` equals ``want`` bit for bit."""
    same = np.array_equal(got.mean, want.mean) and np.array_equal(
        got.covariance, want.covariance
    )
    return [] if same else [f"{what} is not bitwise equal"]
