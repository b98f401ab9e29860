"""Constraint abstract base class and the generic linear constraint.

Coordinates are passed to constraints as a ``(p, 3)`` float array; the
estimator's state vector is its row-major flattening, so atom ``a``
occupies state columns ``3a, 3a+1, 3a+2``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ConstraintError


class Constraint(abc.ABC):
    """One idealized measurement of the molecular structure.

    Subclasses define the measurement function ``h`` and its Jacobian with
    respect to the coordinates of the atoms in :attr:`atoms` only; the batch
    assembler scatters those into the full sparse Jacobian.

    Vectorized group protocol
    -------------------------
    A subclass may additionally implement two classmethods that the
    planned assembler (:mod:`repro.constraints.plan`, behind
    ``UpdateOptions(kernel_impl="vector")``) uses to linearize *all*
    same-type constraints of a batch in one shot instead of N Python
    calls:

    ``pack_group(constraints)``
        Pack a homogeneous sequence into index/target arrays (built once
        per :class:`~repro.constraints.plan.BatchPlan` and reused across
        cycles and relinearizations).
    ``linearize_many(coords, pack)``
        Return ``(h, z, jac)`` stacked over the group's measurement rows:
        ``h``/``z`` of shape ``(rows,)`` and ``jac`` of shape
        ``(rows, 3·len(atoms))`` in the same local column layout as
        :meth:`jacobian`.  Must reproduce the scalar
        ``evaluate``/``residual``/``jacobian`` triple (``z = h + residual``)
        including every degeneracy guard, so the vector tier agrees with
        the scalar tiers to tight tolerance.

    The planned assembler dispatches on the *exact* class (a subclass
    that overrides the scalar methods without re-implementing the group
    protocol falls back to the scalar path automatically).
    """

    #: Global atom indices this constraint depends on (ordered, no dups).
    atoms: tuple[int, ...]
    #: Observed value(s) ``z``; shape ``(dimension,)``.
    target: np.ndarray
    #: Gaussian noise variance per measurement row; shape ``(dimension,)``.
    variance: np.ndarray

    @property
    def dimension(self) -> int:
        """Number of scalar measurement rows this constraint contributes."""
        return int(self.target.shape[0])

    @abc.abstractmethod
    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        """``h(x)``: shape ``(dimension,)``, given full ``(p, 3)`` coordinates."""

    @abc.abstractmethod
    def jacobian(self, coords: np.ndarray) -> np.ndarray:
        """Dense local Jacobian, shape ``(dimension, 3·len(atoms))``.

        Column ``3k+c`` differentiates with respect to coordinate ``c`` of
        ``self.atoms[k]``.
        """

    # ------------------------------------------------------------ helpers
    def residual(self, coords: np.ndarray) -> np.ndarray:
        """``z − h(x)``."""
        return self.target - self.evaluate(coords)

    def state_columns(self) -> np.ndarray:
        """Flat state-vector columns touched: ``3a+c`` for each atom ``a``."""
        a = np.asarray(self.atoms, dtype=np.int64)
        return (3 * a[:, None] + np.arange(3)[None, :]).ravel()

    def _validate_common(self) -> None:
        if len(set(self.atoms)) != len(self.atoms):
            raise ConstraintError(f"duplicate atom index in {self.atoms}")
        if any(a < 0 for a in self.atoms):
            raise ConstraintError(f"negative atom index in {self.atoms}")
        if self.target.ndim != 1:
            raise ConstraintError("target must be 1-D")
        if self.variance.shape != self.target.shape:
            raise ConstraintError("variance must match target shape")
        if np.any(self.variance <= 0):
            raise ConstraintError("variances must be strictly positive")


@dataclass(eq=False)
class LinearConstraint(Constraint):
    """A general linear measurement ``z = A·x_local + v``.

    ``coefficients`` has shape ``(dimension, 3·len(atoms))`` against the
    local coordinate layout described in :meth:`Constraint.jacobian`.
    Linear measurements make sequential Bayesian updates exact and
    order-independent, which the test suite uses to verify that the
    hierarchical solver reproduces the flat solver bit-for-bit (up to
    round-off).
    """

    atoms: tuple[int, ...]
    coefficients: np.ndarray
    target: np.ndarray
    variance: np.ndarray

    def __post_init__(self) -> None:
        self.atoms = tuple(int(a) for a in self.atoms)
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        self.target = np.atleast_1d(np.asarray(self.target, dtype=np.float64))
        self.variance = np.atleast_1d(np.asarray(self.variance, dtype=np.float64))
        self._validate_common()
        expected = (self.dimension, 3 * len(self.atoms))
        if self.coefficients.shape != expected:
            raise ConstraintError(
                f"coefficients shape {self.coefficients.shape} != {expected}"
            )

    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        local = coords[list(self.atoms), :].ravel()
        return self.coefficients @ local

    def jacobian(self, coords: np.ndarray) -> np.ndarray:
        return self.coefficients
