"""Tests for repro.core.state (StructureEstimate)."""

import numpy as np
import pytest

from repro.core.decompose import recursive_coordinate_bisection
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.state import StructureEstimate
from repro.errors import DimensionError
from repro.molecules import build_helix, build_ribo30s


def make_estimate(rng, p=4):
    coords = rng.normal(0, 2, (p, 3))
    a = rng.normal(size=(3 * p, 3 * p))
    cov = a @ a.T + np.eye(3 * p)
    return StructureEstimate(coords.ravel(), cov)


class TestConstruction:
    def test_basic(self, rng):
        est = make_estimate(rng)
        assert est.dim == 12
        assert est.n_atoms == 4

    def test_cov_shape_mismatch(self):
        with pytest.raises(DimensionError, match="covariance"):
            StructureEstimate(np.zeros(6), np.zeros((5, 5)))

    def test_non_multiple_of_three(self):
        with pytest.raises(DimensionError, match="multiple of 3"):
            StructureEstimate(np.zeros(4), np.zeros((4, 4)))

    def test_from_coords_scalar_sigma(self):
        est = StructureEstimate.from_coords(np.zeros((3, 3)), sigma=2.0)
        assert np.allclose(est.covariance, 4.0 * np.eye(9))

    def test_from_coords_per_atom_sigma(self):
        est = StructureEstimate.from_coords(np.zeros((2, 3)), sigma=np.array([1.0, 3.0]))
        assert np.allclose(np.diag(est.covariance), [1, 1, 1, 9, 9, 9])

    def test_from_coords_bad_shape(self):
        with pytest.raises(DimensionError):
            StructureEstimate.from_coords(np.zeros((3, 2)))

    def test_from_coords_nonpositive_sigma(self):
        with pytest.raises(DimensionError):
            StructureEstimate.from_coords(np.zeros((2, 3)), sigma=0.0)


class TestViews:
    def test_coords_view_shares_memory(self, rng):
        est = make_estimate(rng)
        est.coords[0, 0] = 42.0
        assert est.mean[0] == 42.0

    def test_std(self, rng):
        est = StructureEstimate.from_coords(np.zeros((2, 3)), sigma=3.0)
        assert np.allclose(est.std(), 3.0)

    def test_atom_uncertainty(self):
        est = StructureEstimate.from_coords(np.zeros((2, 3)), sigma=np.array([1.0, 2.0]))
        u = est.atom_uncertainty()
        assert u.shape == (2,)
        assert u[0] == pytest.approx(np.sqrt(3.0))
        assert u[1] == pytest.approx(np.sqrt(12.0))

    def test_copy_is_independent(self, rng):
        est = make_estimate(rng)
        dup = est.copy()
        dup.mean[0] = 99.0
        dup.covariance[0, 0] = 99.0
        assert est.mean[0] != 99.0
        assert est.covariance[0, 0] != 99.0

    def test_resymmetrize(self, rng):
        est = make_estimate(rng)
        est.covariance[0, 1] += 1e-8
        est.resymmetrize()
        assert np.allclose(est.covariance, est.covariance.T)


class TestSlicing:
    def test_extract_atoms_mean(self, rng):
        est = make_estimate(rng, p=5)
        sub = est.extract_atoms(np.array([1, 3]))
        assert sub.n_atoms == 2
        assert np.allclose(sub.coords, est.coords[[1, 3]])

    def test_extract_atoms_cov_block(self, rng):
        est = make_estimate(rng, p=4)
        sub = est.extract_atoms(np.array([2]))
        assert np.allclose(sub.covariance, est.covariance[6:9, 6:9])

    def test_extract_preserves_order(self, rng):
        est = make_estimate(rng, p=4)
        sub = est.extract_atoms(np.array([3, 0]))
        assert np.allclose(sub.coords[0], est.coords[3])
        assert np.allclose(sub.coords[1], est.coords[0])

    def test_block_diagonal(self, rng):
        a = make_estimate(rng, p=2)
        b = make_estimate(rng, p=1)
        joined = StructureEstimate.block_diagonal([a, b])
        assert joined.n_atoms == 3
        assert np.allclose(joined.covariance[:6, :6], a.covariance)
        assert np.allclose(joined.covariance[6:, 6:], b.covariance)
        assert np.allclose(joined.covariance[:6, 6:], 0.0)

    def test_block_diagonal_empty(self):
        with pytest.raises(DimensionError):
            StructureEstimate.block_diagonal([])

    def test_scatter_roundtrip(self, rng):
        est = make_estimate(rng, p=5)
        atoms = np.array([1, 4])
        sub = est.extract_atoms(atoms)
        target = est.copy()
        target.mean[:] = 0
        target.covariance[:] = 0
        sub.scatter_into(target, atoms)
        assert np.allclose(target.coords[[1, 4]], est.coords[[1, 4]])
        cols = np.array([3, 4, 5, 12, 13, 14])
        assert np.allclose(
            target.covariance[np.ix_(cols, cols)], est.covariance[np.ix_(cols, cols)]
        )

    def test_scatter_size_mismatch(self, rng):
        est = make_estimate(rng, p=3)
        sub = est.extract_atoms(np.array([0]))
        with pytest.raises(DimensionError):
            sub.scatter_into(est, np.array([0, 1]))


def _partial_hierarchy() -> Hierarchy:
    """Two leaves over 5 of 9 atoms, out of order: the fallback path."""
    leaves = [HierarchyNode(np.array([6, 7])), HierarchyNode(np.array([1, 3, 4]))]
    return Hierarchy(HierarchyNode(np.array([6, 7, 1, 3, 4]), leaves), 9)


#: Roots whose atom order is the identity (one run), long permuted runs
#: (25 on the ribosome), short permuted runs (a spatial bisection) and a
#: subset of the atoms.  The last two take the copy-and-scatter path.
ROOTS = {
    "helix": lambda: build_helix(2).hierarchy,
    "ribosome": lambda: build_ribo30s(0).hierarchy,
    "bisection": lambda: recursive_coordinate_bisection(
        build_helix(2).true_coords, max_leaf_atoms=4
    ),
    "partial": _partial_hierarchy,
}


def _read_only(est: StructureEstimate) -> StructureEstimate:
    est.mean.setflags(write=False)
    est.covariance.setflags(write=False)
    return est


class TestEmbeddedIn:
    @pytest.mark.parametrize("root", sorted(ROOTS))
    def test_equals_copy_then_scatter(self, rng, root):
        hierarchy = ROOTS[root]()
        atoms = hierarchy.root.atoms
        n, m = 3 * hierarchy.n_atoms, 3 * atoms.size
        base = _read_only(
            StructureEstimate(rng.normal(size=n), rng.normal(size=(n, n)))
        )
        posterior = _read_only(
            StructureEstimate(rng.normal(size=m), rng.normal(size=(m, m)))
        )
        want = base.copy()
        posterior.scatter_into(want, atoms)
        got = posterior.embedded_in(base, atoms)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.covariance, want.covariance)
        inputs = (base.mean, base.covariance, posterior.mean, posterior.covariance)
        for arr in (got.mean, got.covariance):
            assert arr.flags.writeable
            assert not any(np.shares_memory(arr, x) for x in inputs)

    def test_size_mismatch(self, rng):
        est = make_estimate(rng, p=3)
        sub = est.extract_atoms(np.array([0]))
        with pytest.raises(DimensionError):
            sub.embedded_in(est, np.array([0, 1]))


class TestRmsd:
    def test_zero_for_identical(self, rng):
        est = make_estimate(rng)
        assert est.rmsd(est.coords) == 0.0

    def test_known_value(self):
        est = StructureEstimate.from_coords(np.zeros((2, 3)), sigma=1.0)
        other = np.full((2, 3), 1.0)
        assert est.rmsd(other) == pytest.approx(np.sqrt(3.0))

    def test_size_mismatch(self, rng):
        est = make_estimate(rng)
        with pytest.raises(DimensionError):
            est.rmsd(np.zeros((2, 3)))
