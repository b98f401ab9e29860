"""Tests for repro.linalg.kernels, cholesky and triangular."""

import numpy as np
import pytest
import scipy.linalg

from repro.errors import DimensionError, NotPositiveDefiniteError
from repro.linalg.cholesky import cholesky_factor, cholesky_solve
from repro.linalg.counters import OpCategory, recording
from repro.linalg.kernels import (
    add_diagonal,
    axpy,
    gemm,
    gemv,
    outer_update,
    vec_add,
    vec_sub,
)
from repro.linalg.triangular import solve_lower, solve_upper


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestGemm:
    def test_matches_numpy(self, rng):
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
        assert np.allclose(gemm(a, b), a @ b)

    def test_flop_count(self, rng):
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
        with recording() as rec:
            gemm(a, b)
        assert rec.events[0].flops == 2 * 4 * 6 * 3

    def test_default_category(self, rng):
        with recording() as rec:
            gemm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        assert rec.events[0].category is OpCategory.MATMAT

    def test_category_override(self, rng):
        with recording() as rec:
            gemm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), OpCategory.SYSTEM)
        assert rec.events[0].category is OpCategory.SYSTEM

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gemm(np.zeros((2, 3)), np.zeros((4, 2)))


class TestGemv:
    def test_matches_numpy(self, rng):
        a, x = rng.normal(size=(5, 7)), rng.normal(size=7)
        assert np.allclose(gemv(a, x), a @ x)

    def test_category_and_flops(self, rng):
        with recording() as rec:
            gemv(rng.normal(size=(5, 7)), rng.normal(size=7))
        e = rec.events[0]
        assert e.category is OpCategory.MATVEC
        assert e.flops == 2 * 5 * 7

    def test_rejects_matrix_rhs(self):
        with pytest.raises(DimensionError):
            gemv(np.zeros((2, 2)), np.zeros((2, 2)))


class TestOuterUpdate:
    def test_matches_formula(self, rng):
        n, m = 6, 3
        c = spd(rng, n)
        k = rng.normal(size=(n, m))
        cht = rng.normal(size=(n, m))
        assert np.allclose(outer_update(c, k, cht), c - k @ cht.T)

    def test_category(self, rng):
        with recording() as rec:
            outer_update(spd(rng, 3), rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        assert rec.events[0].category is OpCategory.MATMAT

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            outer_update(spd(rng, 3), rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))


class TestVectorOps:
    def test_add_diagonal_vector(self, rng):
        a = rng.normal(size=(4, 4))
        d = rng.normal(size=4)
        assert np.allclose(add_diagonal(a, d), a + np.diag(d))

    def test_add_diagonal_scalar(self, rng):
        a = rng.normal(size=(3, 3))
        assert np.allclose(add_diagonal(a, 2.0), a + 2.0 * np.eye(3))

    def test_add_diagonal_does_not_mutate(self, rng):
        a = rng.normal(size=(3, 3))
        before = a.copy()
        add_diagonal(a, 1.0)
        assert np.array_equal(a, before)

    def test_add_diagonal_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            add_diagonal(np.zeros((2, 3)), 1.0)

    def test_axpy(self, rng):
        x, y = rng.normal(size=5), rng.normal(size=5)
        assert np.allclose(axpy(2.0, x, y), 2.0 * x + y)

    def test_vec_add_sub(self, rng):
        x, y = rng.normal(size=5), rng.normal(size=5)
        assert np.allclose(vec_add(x, y), x + y)
        assert np.allclose(vec_sub(x, y), x - y)

    def test_vec_ops_category(self, rng):
        x, y = rng.normal(size=5), rng.normal(size=5)
        with recording() as rec:
            vec_add(x, y)
            vec_sub(x, y)
            add_diagonal(np.eye(2), 1.0)
        assert all(e.category is OpCategory.VECTOR for e in rec.events)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            vec_sub(rng.normal(size=4), rng.normal(size=5))


class TestCholesky:
    def test_lapack_factor(self, rng):
        s = spd(rng, 8)
        lower = cholesky_factor(s)
        assert np.allclose(lower @ lower.T, s)
        assert np.allclose(lower, np.tril(lower))

    def test_not_pd_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_category_and_flops(self, rng):
        s = spd(rng, 6)
        with recording() as rec:
            cholesky_factor(s)
            cholesky_factor(spd(rng, 40))
        e = rec.events[0]
        assert e.category is OpCategory.CHOLESKY
        assert e.flops == pytest.approx(6**3 / 3)
        # The machine simulator reads the 16-wide panel count as the width.
        assert [e.parallel_rows for e in rec.events] == [1, 2]

    def test_solve(self, rng):
        s = spd(rng, 6)
        b = rng.normal(size=(6, 4))
        lower = cholesky_factor(s)
        assert np.allclose(cholesky_solve(lower, b), np.linalg.solve(s, b))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            cholesky_factor(np.zeros((2, 3)))


class TestDirectLapackMatchesScipy:
    """The kernels call potrf/trtrs directly; the bits are scipy's."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_cholesky_factor(self, rng, order):
        s = np.array(spd(rng, 16), order=order)
        lower = cholesky_factor(s)
        expected = scipy.linalg.cholesky(s, lower=True, check_finite=False)
        assert np.array_equal(lower, expected)
        assert lower.flags.f_contiguous == expected.flags.f_contiguous

    @pytest.mark.parametrize("tri_order", ["C", "F"])
    @pytest.mark.parametrize("rhs", ["vector", "C", "F"])
    def test_triangular_solves(self, rng, tri_order, rhs):
        lower = np.array(np.linalg.cholesky(spd(rng, 16)), order=tri_order)
        b = rng.normal(size=16) if rhs == "vector" else np.array(
            rng.normal(size=(16, 40)), order=rhs
        )
        for ours, tri, is_lower in (
            (solve_lower, lower, True),
            (solve_upper, lower.T, False),
        ):
            expected = scipy.linalg.solve_triangular(
                tri, b, lower=is_lower, check_finite=False
            )
            assert np.array_equal(ours(tri, b), expected)

    def test_not_positive_definite_keeps_its_diagnostics(self):
        s = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_factor(s, regularization=1e-3)
        message = str(excinfo.value)
        assert message.startswith(
            "2-th leading minor of the array is not positive definite"
        )
        assert "condition estimate 3.000e+00" in message
        assert "attempted regularization 1.000e-03" in message
        assert excinfo.value.condition_estimate == pytest.approx(3.0)
        assert excinfo.value.regularization == 1e-3

    def test_singular_triangle_raises_like_scipy(self):
        with pytest.raises(np.linalg.LinAlgError, match="resolution failed at diagonal 1"):
            solve_lower(np.diag([1.0, 0.0, 1.0]), np.ones(3))


class TestTriangular:
    def test_solve_lower(self, rng):
        lower = np.tril(rng.normal(size=(5, 5))) + 5 * np.eye(5)
        b = rng.normal(size=(5, 2))
        assert np.allclose(lower @ solve_lower(lower, b), b)

    def test_solve_upper(self, rng):
        upper = np.triu(rng.normal(size=(5, 5))) + 5 * np.eye(5)
        b = rng.normal(size=5)
        assert np.allclose(upper @ solve_upper(upper, b), b)

    def test_sys_category(self, rng):
        lower = np.eye(3)
        with recording() as rec:
            solve_lower(lower, np.ones(3))
            solve_upper(lower, np.ones(3))
        assert all(e.category is OpCategory.SYSTEM for e in rec.events)

    def test_rhs_mismatch(self):
        with pytest.raises(DimensionError):
            solve_lower(np.eye(3), np.ones(4))

    def test_parallel_rows_is_rhs_count(self, rng):
        with recording() as rec:
            solve_lower(np.eye(3), np.ones((3, 7)))
        assert rec.events[0].parallel_rows == 7

