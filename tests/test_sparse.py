"""Tests for repro.linalg.sparse (CSR matrix)."""

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.linalg.counters import OpCategory, recording
from repro.linalg.sparse import CSRMatrix


def random_sparse(rng, shape, density=0.2):
    dense = rng.normal(size=shape) * (rng.random(shape) < density)
    return dense


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        dense = random_sparse(rng, (6, 9))
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.to_dense(), dense)

    def test_from_coo_roundtrip(self):
        rows = np.array([0, 2, 1])
        cols = np.array([1, 0, 2])
        vals = np.array([5.0, -1.0, 2.0])
        csr = CSRMatrix.from_coo(rows, cols, vals, (3, 3))
        dense = np.zeros((3, 3))
        dense[rows, cols] = vals
        assert np.allclose(csr.to_dense(), dense)

    def test_duplicate_triplets_sum(self):
        csr = CSRMatrix.from_coo(
            np.array([0, 0]), np.array([1, 1]), np.array([2.0, 3.0]), (1, 2)
        )
        assert csr.nnz == 1
        assert csr.to_dense()[0, 1] == 5.0

    def test_empty_matrix(self):
        csr = CSRMatrix.from_coo(np.array([]), np.array([]), np.array([]), (3, 4))
        assert csr.nnz == 0
        assert np.allclose(csr.to_dense(), np.zeros((3, 4)))

    def test_row_out_of_range(self):
        with pytest.raises(DimensionError, match="row index"):
            CSRMatrix.from_coo(np.array([3]), np.array([0]), np.array([1.0]), (3, 3))

    def test_col_out_of_range(self):
        with pytest.raises(DimensionError, match="column index"):
            CSRMatrix.from_coo(np.array([0]), np.array([5]), np.array([1.0]), (3, 3))

    def test_mismatched_triplets(self):
        with pytest.raises(DimensionError, match="identical shapes"):
            CSRMatrix.from_coo(np.array([0]), np.array([0, 1]), np.array([1.0]), (2, 2))

    def test_from_dense_tolerance(self):
        dense = np.array([[1e-12, 1.0]])
        csr = CSRMatrix.from_dense(dense, tol=1e-9)
        assert csr.nnz == 1

    def test_invalid_indptr_rejected(self):
        with pytest.raises(DimensionError):
            CSRMatrix(
                np.array([1.0]),
                np.array([0]),
                np.array([0, 2]),  # ends beyond nnz
                (1, 1),
            )


class TestProducts:
    def test_matmul_dense_matches_numpy(self, rng):
        dense = random_sparse(rng, (5, 8))
        b = rng.normal(size=(8, 3))
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.matmul_dense(b), dense @ b)

    def test_rmatmul_dense_matches_numpy(self, rng):
        dense = random_sparse(rng, (5, 8))
        a = rng.normal(size=(6, 8))
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.rmatmul_dense(a), a @ dense.T)

    def test_matvec_matches_numpy(self, rng):
        dense = random_sparse(rng, (7, 4))
        x = rng.normal(size=4)
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.matvec(x), dense @ x)

    def test_matmul_dense_vector_dispatches_to_matvec(self, rng):
        dense = random_sparse(rng, (3, 4))
        x = rng.normal(size=4)
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.matmul_dense(x), dense @ x)

    def test_dimension_mismatch(self, rng):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(DimensionError):
            csr.matmul_dense(np.zeros((4, 2)))
        with pytest.raises(DimensionError):
            csr.rmatmul_dense(np.zeros((2, 4)))
        with pytest.raises(DimensionError):
            csr.matvec(np.zeros(4))

    def test_events_recorded(self, rng):
        dense = random_sparse(rng, (4, 6))
        csr = CSRMatrix.from_dense(dense)
        with recording() as rec:
            csr.matmul_dense(rng.normal(size=(6, 2)))
            csr.rmatmul_dense(rng.normal(size=(3, 6)))
            csr.matvec(rng.normal(size=6))
        cats = [e.category for e in rec.events]
        assert cats == [OpCategory.DENSE_SPARSE, OpCategory.DENSE_SPARSE, OpCategory.MATVEC]
        assert rec.events[0].flops == 2.0 * csr.nnz * 2

    def test_zero_row_handled(self):
        dense = np.array([[0.0, 0.0], [1.0, 0.0]])
        csr = CSRMatrix.from_dense(dense)
        out = csr.matmul_dense(np.eye(2))
        assert np.allclose(out, dense)


class TestUtilities:
    def test_column_support(self):
        dense = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 3.0]])
        csr = CSRMatrix.from_dense(dense)
        assert np.array_equal(csr.column_support(), [1, 2])

    def test_restrict_columns(self, rng):
        dense = np.zeros((3, 10))
        dense[:, [2, 5, 7]] = rng.normal(size=(3, 3))
        csr = CSRMatrix.from_dense(dense)
        sub = csr.restrict_columns(np.array([2, 5, 7]))
        assert sub.shape == (3, 3)
        assert np.allclose(sub.to_dense(), dense[:, [2, 5, 7]])

    def test_restrict_columns_rejects_outside(self):
        csr = CSRMatrix.from_dense(np.array([[1.0, 2.0]]))
        with pytest.raises(DimensionError, match="outside"):
            csr.restrict_columns(np.array([0]))
