"""
The Gram-mate relation and its convertibility theory.

A Gram pair is a pair of distinct (0,1) matrices A, B with AA^T = BB^T and
A^T A = B^T B, verified by exact BLAS products under the one bound stated
in matrix_core._gram; A and B must be BinaryMatrix values, or the checks
raise ValueError.  Convertibility (B arises from A by flipping signs of
positive singular values) is decided by seven equivalent conditions, all
decided exactly in int64 products; the three singular-vector ones are read
through exact bases of the difference's row and column spaces, so no
condition reads a tolerance.  A convertible pair's Gram singular data is
reported from LAPACK's SVD of (A-B)/2 through numpy; with BLAS on one
thread identical inputs give bitwise-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    BinaryMatrix,
    SignedMatrix,
    _gram,
    _int8_within,
    _pivots,
    col_sums,
    rank_exact,
    row_sums,
)

CHECK_NAMES = (
    "sum_times_diffT_zero",
    "diffT_times_sum_zero",
    "sign_flip_recovers_mate",
    "right_vectors_null",
    "left_vectors_null",
    "A_diffT_symmetric",
    "AT_diff_symmetric",
)


@dataclass(frozen=True)
class GramPair:
    A: BinaryMatrix
    B: BinaryMatrix
    diff_rank: int

    def __post_init__(self):
        _check_binary(self.A, self.B)
        a, b = self.A.data, self.B.data
        if a.shape != b.shape:
            raise ValueError("dimension mismatch")
        if a.tobytes() == b.tobytes():
            raise ValueError("A and B must be distinct")
        if not _same_grams(a, b):
            raise ValueError("Gram identities fail")
        assert row_sums(self.A) == row_sums(self.B)
        assert col_sums(self.A) == col_sums(self.B)

    def diff(self) -> SignedMatrix:
        return SignedMatrix(self.A.data - self.B.data)


@dataclass(frozen=True)
class GramSingularReport:
    values: tuple[float, ...]
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    source: str


@dataclass(frozen=True)
class ConvertibilityReport:
    convertible: bool
    checks: dict[str, bool]
    gram_singular: GramSingularReport | None


def _check_binary(*mats) -> None:
    """ValueError unless every matrix is a BinaryMatrix: the Gram checks
    hold only for (0,1) data, and a SignedMatrix is not."""
    for M in mats:
        if not isinstance(M, BinaryMatrix):
            raise ValueError(f"expected a BinaryMatrix, not {type(M).__name__}")


def _same_grams(a: np.ndarray, b: np.ndarray) -> bool:
    """AA^T = BB^T and A^T A = B^T B for (0,1) int8 arrays of one shape,
    exactly: the products are matrix_core._gram's exact BLAS products, and
    as (0,1) operands give no -0.0 they are compared byte for byte."""
    return _gram(a).tobytes() == _gram(b).tobytes() and _gram(a.T).tobytes() == _gram(b.T).tobytes()


def is_gram_pair(A: BinaryMatrix, B: BinaryMatrix):
    """GramPair when the Gram identities hold exactly and A != B, else None;
    ValueError unless A and B are BinaryMatrix values of one shape."""
    _check_binary(A, B)
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    a, b = A.data, B.data
    if a.tobytes() == b.tobytes() or not _same_grams(a, b):
        return None
    return GramPair(A, B, rank_exact(SignedMatrix(a - b)))


def is_realizable_witness(E: SignedMatrix, A: BinaryMatrix) -> bool:
    """True iff (A, A+E) is a Gram pair; ValueError when A is not a
    BinaryMatrix or A+E is not (0,1).

    Decided from the int8 entries: A+E must be (0,1), E nonzero, and the
    two Gram identities of A and A+E must hold exactly.  It checks the
    identities directly and builds no matrix for A+E, no GramPair and no
    rank.
    """
    _check_binary(A)
    if E.shape != A.shape:
        raise ValueError("dimension mismatch")
    b = A.data + E.data  # int8: the entries stay in -1..2
    if not _int8_within(b, BinaryMatrix._ALPHABET_BYTES):
        raise ValueError(f"entry out of range {BinaryMatrix._ALPHABET}")
    return bool(E.data.any()) and _same_grams(A.data, b)


def convertibility(pair: GramPair, tol: None = None) -> ConvertibilityReport:
    """Decide the seven equivalent convertibility conditions, each exactly.

    With D = A - B and S = A + B, the four algebraic conditions are integer
    products.  The three singular-vector conditions are decided through
    exact bases from one elimination of D: R, the rows of D at its pivot
    rows, and C, the columns of D at its pivot columns.  The right singular
    vectors V of D/2 for its positive singular values span D's row space, so
    SV = 0 exactly when SR^T = 0; the left ones U span D's column space, so
    S^T U = 0 exactly when S^T C = 0.  AV = U Sigma together with
    A^T U = V Sigma holds exactly when both of those do.  A disagreement
    among the seven can only mean a bug and raises RuntimeError.

    The SVD of D/2 runs only for a convertible pair, to report its Gram
    singular data, sliced at the rank of D.  `tol` must be None: no
    condition reads a tolerance.
    """
    if tol is not None:
        raise ValueError(f"convertibility takes no tolerance, got {tol}")
    a, b = pair.A.int64(), pair.B.int64()
    d, s = a - b, a + b
    rows, cols = _pivots(d)
    right_null = not (s @ d[rows].T).any()
    left_null = not (s.T @ d[:, cols]).any()
    checks = {
        "sum_times_diffT_zero": not (s @ d.T).any(),
        "diffT_times_sum_zero": not (d.T @ s).any(),
        "sign_flip_recovers_mate": right_null and left_null,
        "right_vectors_null": right_null,
        "left_vectors_null": left_null,
        "A_diffT_symmetric": bool((a @ d.T == d @ a.T).all()),
        "AT_diff_symmetric": bool((a.T @ d == d.T @ a).all()),
    }
    if len(set(checks.values())) != 1:
        raise RuntimeError(f"convertibility checks disagree: {checks}")
    if not checks["sum_times_diffT_zero"]:
        return ConvertibilityReport(convertible=False, checks=checks, gram_singular=None)
    U, sigma, Vt = np.linalg.svd(d / 2.0)
    k = len(rows)
    return ConvertibilityReport(
        convertible=True,
        checks=checks,
        gram_singular=GramSingularReport(
            values=tuple(float(x) for x in sigma[:k]),
            right_vectors=Vt[:k].T.copy(),
            left_vectors=U[:, :k].copy(),
            source="numeric",
        ),
    )
