"""
The Gram-mate relation and its convertibility theory.

A Gram pair is a pair of distinct (0,1) matrices A, B with AA^T = BB^T and
A^T A = B^T B, verified in exact integer arithmetic.  Convertibility (B
arises from A by flipping signs of positive singular values) is decided by
seven equivalent conditions; the four algebraic ones run in integers and are
authoritative, the three singular-vector ones run in floating point as
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .matrix_core import (
    BinaryMatrix,
    SignedMatrix,
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


def _same_grams(a: np.ndarray, b: np.ndarray) -> bool:
    """AA^T = BB^T and A^T A = B^T B for int8 arrays of one shape, exactly:
    the products are taken in int64 and compared byte for byte."""
    a, b = a.astype(np.int64), b.astype(np.int64)
    return (a @ a.T).tobytes() == (b @ b.T).tobytes() and (a.T @ a).tobytes() == (b.T @ b).tobytes()


def is_gram_pair(A: BinaryMatrix, B: BinaryMatrix):
    """GramPair when the Gram identities hold exactly and A != B, else None."""
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    a, b = A.data, B.data
    if a.tobytes() == b.tobytes() or not _same_grams(a, b):
        return None
    return GramPair(A, B, rank_exact(SignedMatrix(a - b)))


def is_realizable_witness(E: SignedMatrix, A: BinaryMatrix) -> bool:
    """True iff (A, A+E) is a Gram pair; ValueError when A+E is not (0,1).

    Decided from the int8 entries: A+E must be (0,1), E nonzero, and the
    two Gram identities of A and A+E must hold exactly.  It checks the
    identities directly and builds no matrix for A+E, no GramPair and no
    rank.
    """
    if E.shape != A.shape:
        raise ValueError("dimension mismatch")
    b = A.data + E.data  # int8: the entries stay in -1..2
    if not _int8_within(b, BinaryMatrix._ALPHABET_BYTES):
        raise ValueError(f"entry out of range {BinaryMatrix._ALPHABET}")
    return bool(E.data.any()) and _same_grams(A.data, b)


def embed_check(E_tilde: SignedMatrix, X1, X2) -> bool:
    """Border conditions for extending mates of E-tilde to the padded E:
    E-tilde X2^T = 0 and E-tilde^T X1 = 0."""
    e = E_tilde.int64()
    x1 = X1.int64()
    x2 = X2.int64()
    if x1.shape[0] != e.shape[0] or x2.shape[1] != e.shape[1]:
        raise ValueError("dimension mismatch")
    return not (e @ x2.T).any() and not (e.T @ x1).any()


def _span_residual(B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Residual of each column of X after projection onto the row space of
    B, whose rows are independent."""
    b = B.astype(np.float64)
    return X - b.T @ np.linalg.solve(b @ b.T, b @ X)


def gram_singular_numeric(pair: GramPair) -> GramSingularReport:
    """Gram singular data from the SVD of (A-B)/2."""
    half = (pair.A.int64() - pair.B.int64()) / 2.0
    bundle = numerics.svd(half)
    k = pair.diff_rank
    return GramSingularReport(
        values=tuple(float(s) for s in bundle.sigma[:k]),
        right_vectors=bundle.V[:, :k].copy(),
        left_vectors=bundle.U[:, :k].copy(),
        source="numeric",
    )


def convertibility(pair: GramPair, tol: float | None = None) -> ConvertibilityReport:
    """Evaluate the seven equivalent convertibility conditions.

    Integer conditions are authoritative; a disagreement with the numeric
    singular-vector conditions raises, since it can only mean a numerics bug.
    """
    a = pair.A.int64()
    d = a - pair.B.int64()
    s = a + pair.B.int64()
    t = numerics.scaled_tol(pair.A, tol)

    checks = {
        "sum_times_diffT_zero": not (s @ d.T).any(),
        "diffT_times_sum_zero": not (d.T @ s).any(),
        "A_diffT_symmetric": bool((a @ d.T == d @ a.T).all()),
        "AT_diff_symmetric": bool((a.T @ d == d.T @ a).all()),
    }
    integer_verdict = checks["sum_times_diffT_zero"]
    if len(set(checks.values())) != 1:
        raise RuntimeError(f"integer convertibility checks disagree: {checks}")

    report = gram_singular_numeric(pair)
    sv = np.array(report.values)
    U, V = report.left_vectors, report.right_vectors

    def small(residual: np.ndarray) -> bool:
        return bool(np.abs(residual).max() <= t)

    sign_flip = small(a @ V - U * sv) and small(a.T @ U - V * sv)
    rows, cols = _pivots(d)
    right_null = small(s @ V) and small(_span_residual(d[rows], V))
    left_null = small(s.T @ U) and small(_span_residual(d.T[cols], U))
    checks["sign_flip_recovers_mate"] = sign_flip
    checks["right_vectors_null"] = right_null
    checks["left_vectors_null"] = left_null

    if {sign_flip, right_null, left_null} != {integer_verdict}:
        raise RuntimeError(
            f"numeric convertibility checks disagree with integer verdict: {checks}"
        )
    ordered = {name: checks[name] for name in CHECK_NAMES}
    return ConvertibilityReport(
        convertible=integer_verdict,
        checks=ordered,
        gram_singular=report if integer_verdict else None,
    )
