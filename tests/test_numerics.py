import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grammate.matrix_core import BinaryMatrix
from grammate.numerics import distinct_singular_values, reconstruct_from_grams, svd


def binary_arrays(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def compose(b) -> np.ndarray:
    """U diag(sigma) V^T of an SvdBundle."""
    S = np.zeros((len(b.U), len(b.V)))
    np.fill_diagonal(S, b.sigma)
    return b.U @ S @ b.V.T


class TestSvd:
    def test_identity(self):
        b = svd(np.eye(3))
        assert np.allclose(b.sigma, [1, 1, 1])
        assert np.allclose(compose(b), np.eye(3))

    def test_known_values(self):
        # singular values of [[1,1],[0,1]] are sqrt((3 +- sqrt5)/2)
        b = svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
        expect = np.sqrt((3 + np.sqrt(5) * np.array([1, -1])) / 2)
        assert np.allclose(b.sigma, expect)

    def test_deterministic(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b1, b2 = svd(a), svd(a)
        assert (b1.U == b2.U).all() and (b1.V == b2.V).all()
        assert (b1.sigma == b2.sigma).all()

    def test_wide_matrix(self):
        a = np.array([[1.0, 0.0, 1.0]])
        b = svd(a)
        assert b.U.shape == (1, 1) and b.V.shape == (3, 3)
        assert np.allclose(compose(b), a)

    @settings(max_examples=80, deadline=None)
    @given(binary_arrays())
    def test_factorization_properties(self, rows):
        a = np.array(rows, dtype=float)
        b = svd(a)
        m, n = a.shape
        assert np.allclose(b.U @ b.U.T, np.eye(m), atol=1e-9)
        assert np.allclose(b.V @ b.V.T, np.eye(n), atol=1e-9)
        assert np.allclose(compose(b), a, atol=1e-9)
        assert (np.diff(b.sigma) <= 1e-12).all()
        assert (b.sigma >= 0).all()
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(b.sigma[: len(ref)], ref, atol=1e-9)

    @pytest.mark.parametrize("a", [
        np.zeros((3, 2)),
        np.zeros((1, 1)),
        np.ones((1, 4)),
        np.ones((4, 1)),
        np.ones((2, 2)),
    ], ids=["zeros3x2", "zeros1x1", "ones1x4", "ones4x1", "ones2x2"])
    def test_degenerate_shapes(self, a):
        b = svd(a)
        m, n = a.shape
        assert b.U.shape == (m, m) and b.V.shape == (n, n)
        assert np.allclose(b.U @ b.U.T, np.eye(m), atol=1e-12)
        assert np.allclose(b.V @ b.V.T, np.eye(n), atol=1e-12)
        assert len(b.sigma) == min(m, n)
        assert (np.diff(b.sigma) <= 0).all()
        assert np.allclose(compose(b), a, atol=1e-12)


class TestDistinctSingularValues:
    def test_identity_not_distinct(self):
        assert not distinct_singular_values(BinaryMatrix.identity(2))

    def test_distinct(self):
        assert distinct_singular_values(BinaryMatrix(np.array([[1, 1], [0, 1]])))


class TestReconstruct:
    def test_recovers_matrix(self):
        a = np.array([[1, 1], [0, 1]], dtype=np.int64)
        out = reconstruct_from_grams(a @ a.T, a.T @ a)
        assert BinaryMatrix(a.astype(np.int8)) in out
        for m in out:
            b = m.int64()
            assert (b @ b.T == a @ a.T).all() and (b.T @ b == a.T @ a).all()

    def test_mates_recovered_together(self, rank1_example):
        A, B, _ = rank1_example
        a = A.int64()
        out = reconstruct_from_grams(a @ a.T, a.T @ a)
        assert A in out and B in out

    def test_spectra_mismatch(self):
        assert reconstruct_from_grams(2 * np.eye(2, dtype=int), 3 * np.eye(2, dtype=int)) == []

    def test_repeated_eigenvalue(self):
        # I2's Grams have the eigenvalue 1 twice; I2 and P2 both have them
        g = np.eye(2, dtype=int)
        assert reconstruct_from_grams(g, g) == [
            BinaryMatrix(np.array([[0, 1], [1, 0]])), BinaryMatrix.identity(2)]

    @pytest.mark.parametrize("g_row, g_col", [
        ([[3]], np.eye(2, dtype=int)),
        ([[-1]], [[-1]]),
        ([[2]], [[2, 0], [0, 0]]),
        ([[1, 0], [0, 2]], [[2, 0], [0, 2]]),
        ([[2, 1], [1, 1]], [[2, -1], [-1, 1]]),
        ([[2]], [[1, 0], [0, 1]]),
    ], ids=["row-sum-above-n", "negative-diagonal", "column-sum-above-m", "traces-differ",
            "negative-entry", "pair-beyond-rows"])
    def test_grams_no_matrix_has(self, g_row, g_col):
        assert reconstruct_from_grams(g_row, g_col) == []

    def test_every_3x3_gram_group(self):
        # degenerate spectra included: the answer is the whole Gram group
        mats = [np.array(bits, dtype=np.int64).reshape(3, 3)
                for bits in itertools.product((0, 1), repeat=9)]

        def key(a):
            return (a @ a.T).tobytes() + (a.T @ a).tobytes()

        groups = {}
        for a in mats:
            groups.setdefault(key(a), []).append(tuple(a.ravel().tolist()))
        for a in mats:
            got = [tuple(M.int64().ravel().tolist()) for M in reconstruct_from_grams(a @ a.T, a.T @ a)]
            assert got == groups[key(a)]

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_from_grams(np.array([[1, 1], [0, 1]]), np.eye(2, dtype=int))

    @pytest.mark.parametrize("g_row, g_col", [
        ([[1.5]], [[1]]),
        ([[1]], [[1.5]]),
        ([[2, 1], [1, 1.25]], [[2, 1], [1, 1]]),
        ([[2, 1], [1, 1]], [[2, 0.5], [0.5, 1]]),
        ([[float("nan")]], [[1]]),
        ([[float("inf")]], [[1]]),
        ([[1e30]], [[1]]),
    ], ids=["1x1-row", "1x1-col", "2x2-diagonal", "2x2-off-diagonal", "nan", "inf", "beyond-int64"])
    def test_non_integral_entries_rejected(self, g_row, g_col):
        # a cast to int64 would truncate 1.5 to 1 and return [[1]], a wrong yes
        with pytest.raises(ValueError, match="integers"):
            reconstruct_from_grams(g_row, g_col)

    @pytest.mark.parametrize("g_row, g_col", [
        ([1], [[1]]),
        ([[1]], [1]),
        (5, [[1]]),
        ([[1]], 5),
        ([[[1]]], [[1]]),
        ([[1, 0]], [[1]]),
    ], ids=["1-D-row", "1-D-col", "scalar-row", "scalar-col", "3-D-row", "non-square-row"])
    def test_non_square_grams_rejected(self, g_row, g_col):
        # read unchecked, shape[1] fails on [1] and 5, and [[[1]]] passes as [[1]]
        with pytest.raises(ValueError, match="2-D and square"):
            reconstruct_from_grams(g_row, g_col)

    def test_integral_floats_accepted(self):
        g = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert reconstruct_from_grams(g, g) == reconstruct_from_grams(g.astype(int), g.astype(int))
