"""The structure estimate ``(x, C)``.

The unknown atom coordinates form the state vector
``x = (x₁,y₁,z₁, …, x_p,y_p,z_p)``; the covariance matrix ``C`` carries
the uncertainty of every coordinate on its diagonal and the linear
correlations created by applied constraints off the diagonal.  The pair
is the estimator's entire working memory: previous updates are summarized
as correlations, which is what lets constraints be applied sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DimensionError
from repro.util.validation import as_matrix, as_vector, symmetrize

#: Shortest mean run, in state columns, at which copying blocks between
#: runs of consecutive atom ids beats the fancy-index scatter in
#: :meth:`StructureEstimate.embedded_in`: below it the per-block call
#: overhead costs more than the scatter saves (measured crossover 11–17
#: columns at 300 and 900 atoms, one BLAS thread).
_MIN_MEAN_RUN = 16


@dataclass
class StructureEstimate:
    """Mean and covariance of the flattened coordinate state.

    Attributes
    ----------
    mean:
        Flat state vector, length ``n = 3·p``.
    covariance:
        ``(n, n)`` symmetric positive semi-definite matrix.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        self.mean = as_vector(self.mean, "mean")
        self.covariance = as_matrix(self.covariance, "covariance")
        n = self.mean.shape[0]
        if self.covariance.shape != (n, n):
            raise DimensionError(
                f"covariance shape {self.covariance.shape} does not match state length {n}"
            )
        if n % 3 != 0:
            raise DimensionError("state length must be a multiple of 3 (x,y,z per atom)")

    # ------------------------------------------------------------- basics
    @property
    def dim(self) -> int:
        """State dimension ``n``."""
        return self.mean.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.dim // 3

    @property
    def coords(self) -> np.ndarray:
        """``(p, 3)`` view of the mean (shares memory with :attr:`mean`)."""
        return self.mean.reshape(-1, 3)

    def copy(self) -> "StructureEstimate":
        return StructureEstimate(self.mean.copy(), self.covariance.copy())

    def std(self) -> np.ndarray:
        """Per-coordinate standard deviations (sqrt of the diagonal)."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def atom_uncertainty(self) -> np.ndarray:
        """Per-atom positional uncertainty: sqrt of the trace of each 3×3 block.

        This is the paper's "measure of the variability in the estimated
        structure" aggregated to atom granularity — useful for assessing
        which parts of a molecule the data define well.
        """
        var = np.clip(np.diag(self.covariance), 0.0, None)
        return np.sqrt(var.reshape(-1, 3).sum(axis=1))

    def resymmetrize(self) -> None:
        """Remove floating-point asymmetry accumulated by updates (in place)."""
        self.covariance = symmetrize(self.covariance)

    # --------------------------------------------------- builders / slicing
    @staticmethod
    def from_coords(
        coords: np.ndarray, sigma: float | np.ndarray = 1.0
    ) -> "StructureEstimate":
        """Initial estimate: given coordinates, independent isotropic noise.

        ``sigma`` is the prior standard deviation per coordinate (scalar or
        per-atom array of length ``p``).
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise DimensionError("coords must be (p, 3)")
        p = coords.shape[0]
        if np.isscalar(sigma):
            var = np.full(3 * p, float(sigma) ** 2)
        else:
            s = as_vector(np.asarray(sigma), "sigma", size=p)
            var = np.repeat(s**2, 3)
        if np.any(var <= 0):
            raise DimensionError("prior sigma must be positive")
        return StructureEstimate(coords.ravel().copy(), np.diag(var))

    def extract_atoms(self, atom_ids: np.ndarray) -> "StructureEstimate":
        """Marginal estimate over ``atom_ids`` (order preserved).

        Correlations *among* the selected atoms are kept; correlations with
        unselected atoms are marginalized away — exactly the "peel off an
        uncorrelated part" operation of the hierarchical decomposition.
        """
        atom_ids = np.asarray(atom_ids, dtype=np.int64)
        cols = (3 * atom_ids[:, None] + np.arange(3)[None, :]).ravel()
        return StructureEstimate(
            self.mean[cols].copy(), np.ascontiguousarray(self.covariance[np.ix_(cols, cols)])
        )

    @staticmethod
    def block_diagonal(parts: list["StructureEstimate"]) -> "StructureEstimate":
        """Concatenate uncorrelated estimates into one block-diagonal estimate.

        This is how a hierarchy node's state is formed from its updated
        children: the children are mutually uncorrelated until the node's
        own (boundary-spanning) constraints are applied.
        """
        if not parts:
            raise DimensionError("block_diagonal needs at least one part")
        n = sum(p.dim for p in parts)
        mean = np.concatenate([p.mean for p in parts])
        cov = np.zeros((n, n), dtype=np.float64)
        at = 0
        for p in parts:
            cov[at : at + p.dim, at : at + p.dim] = p.covariance
            at += p.dim
        return StructureEstimate(mean, cov)

    def scatter_into(self, target: "StructureEstimate", atom_ids: np.ndarray) -> None:
        """Write this estimate's blocks into ``target`` at ``atom_ids`` (in place).

        The mean and the covariance block among the given atoms are
        overwritten; cross-covariances between the given atoms and the rest
        of ``target`` are left untouched.
        """
        atom_ids = np.asarray(atom_ids, dtype=np.int64)
        cols = (3 * atom_ids[:, None] + np.arange(3)[None, :]).ravel()
        if cols.size != self.dim:
            raise DimensionError("atom_ids do not match this estimate's size")
        target.mean[cols] = self.mean
        target.covariance[np.ix_(cols, cols)] = self.covariance

    def embedded_in(
        self, base: "StructureEstimate", atom_ids: np.ndarray
    ) -> "StructureEstimate":
        """A new estimate: ``base`` with this estimate written at ``atom_ids``.

        The same bits as ``base.copy()`` followed by :meth:`scatter_into`,
        and neither input is modified or aliased.  When ``atom_ids`` is a
        permutation of every atom of ``base`` (a hierarchy root that owns
        the whole molecule) whose runs of consecutive atom ids average at
        least ``_MIN_MEAN_RUN`` state columns (1 run on the helix, 25 on
        the ribosome), ``base`` is not read at all: the output is this
        estimate permuted into global order, copied as rectangular blocks
        between the runs, so each element is written once.  Otherwise it
        is the copy and the scatter.
        """
        atom_ids = np.asarray(atom_ids, dtype=np.int64)
        if 3 * atom_ids.size != self.dim:
            raise DimensionError("atom_ids do not match this estimate's size")
        breaks = np.flatnonzero(np.diff(atom_ids) != 1) + 1
        owns_all = np.array_equal(np.sort(atom_ids), np.arange(base.n_atoms))
        if not owns_all or self.dim < _MIN_MEAN_RUN * (breaks.size + 1):
            out = base.copy()
            self.scatter_into(out, atom_ids)
            return out
        # Run k copies local slots [3·starts[k], 3·ends[k]) to global
        # columns from 3·atom_ids[starts[k]] on.
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [atom_ids.size]))
        runs = [
            (slice(3 * a, 3 * (a + e - s)), slice(3 * s, 3 * e))
            for a, s, e in zip(atom_ids[starts].tolist(), starts.tolist(), ends.tolist())
        ]
        mean = np.empty_like(self.mean)
        cov = np.empty_like(self.covariance)
        for rows_out, rows_in in runs:
            mean[rows_out] = self.mean[rows_in]
            band_out, band_in = cov[rows_out], self.covariance[rows_in]
            for cols_out, cols_in in runs:
                band_out[:, cols_out] = band_in[:, cols_in]
        return StructureEstimate(mean, cov)

    def rmsd(self, other_coords: np.ndarray) -> float:
        """Root-mean-square coordinate deviation from ``other_coords`` (p,3)."""
        other = np.asarray(other_coords, dtype=np.float64).reshape(-1)
        if other.shape != self.mean.shape:
            raise DimensionError("coordinate arrays differ in size")
        diff = self.mean - other
        return float(np.sqrt(diff @ diff / self.n_atoms))
