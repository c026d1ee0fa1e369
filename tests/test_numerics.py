"""Gram input to the exact Gram search: float and malformed matrices are checked
at its entry, and every matrix with the given Grams is returned."""
import itertools

import numpy as np
import pytest

from grammate.oracle import DEFAULT_MATE_NODE_CAP, matrices_with_grams
from grammate.matrix_core import BinaryMatrix


def reconstruct(g_row, g_col):
    return matrices_with_grams(g_row, g_col, DEFAULT_MATE_NODE_CAP)


class TestReconstruct:
    """The one public Gram search, at the cap `grammate reconstruct` uses."""

    def test_recovers_matrix(self):
        a = np.array([[1, 1], [0, 1]], dtype=np.int64)
        out = reconstruct(a @ a.T, a.T @ a)
        assert BinaryMatrix(a.astype(np.int8)) in out
        for m in out:
            b = m.int64()
            assert (b @ b.T == a @ a.T).all() and (b.T @ b == a.T @ a).all()

    def test_mates_recovered_together(self, rank1_example):
        A, B, _ = rank1_example
        a = A.int64()
        out = reconstruct(a @ a.T, a.T @ a)
        assert A in out and B in out

    def test_spectra_mismatch(self):
        assert reconstruct(2 * np.eye(2, dtype=int), 3 * np.eye(2, dtype=int)) == []

    def test_repeated_eigenvalue(self):
        # I2's Grams have the eigenvalue 1 twice; I2 and P2 both have them
        g = np.eye(2, dtype=int)
        assert reconstruct(g, g) == [
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
        assert reconstruct(g_row, g_col) == []

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
            got = [tuple(M.int64().ravel().tolist()) for M in reconstruct(a @ a.T, a.T @ a)]
            assert got == groups[key(a)]

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(np.array([[1, 1], [0, 1]]), np.eye(2, dtype=int))

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
            reconstruct(g_row, g_col)

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
            reconstruct(g_row, g_col)

    def test_integral_floats_accepted(self):
        g = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert reconstruct(g, g) == reconstruct(g.astype(int), g.astype(int))
