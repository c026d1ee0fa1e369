"""
Closure operations on Gram pairs: complement, direct sum, join, Kronecker
products, and the two-block swap.  Every output pair is verified exactly
through is_gram_pair before it leaves this module, so a combinator never
hands back an unchecked result.
"""

from __future__ import annotations

import numpy as np

from .gram import GramPair, is_gram_pair
from .matrix_core import BinaryMatrix


def _verified(a: np.ndarray, b: np.ndarray) -> GramPair:
    pair = is_gram_pair(BinaryMatrix(a.astype(np.int8)), BinaryMatrix(b.astype(np.int8)))
    if pair is None:
        raise RuntimeError("combinator output failed Gram verification")
    return pair


def complement_pair(p: GramPair) -> GramPair:
    """(J-A, J-B); an involution on Gram pairs."""
    return _verified(1 - p.A.int64(), 1 - p.B.int64())


def direct_sum_pair(p1: GramPair, p2: GramPair) -> GramPair:
    """Block-diagonal assembly ([[A1,0],[0,A2]], [[B1,0],[0,B2]])."""
    a = _block2(p1.A.int64(), p2.A.int64(), 0)
    b = _block2(p1.B.int64(), p2.B.int64(), 0)
    return _verified(a, b)


def join_pair(p1: GramPair, p2: GramPair) -> GramPair:
    """Like direct_sum_pair with all-ones off-diagonal blocks."""
    a = _block2(p1.A.int64(), p2.A.int64(), 1)
    b = _block2(p1.B.int64(), p2.B.int64(), 1)
    return _verified(a, b)


def _block2(a1: np.ndarray, a2: np.ndarray, off: int) -> np.ndarray:
    m1, n1 = a1.shape
    m2, n2 = a2.shape
    top = np.hstack([a1, np.full((m1, n2), off, dtype=np.int64)])
    bot = np.hstack([np.full((m2, n1), off, dtype=np.int64), a2])
    return np.vstack([top, bot])


def kron_pair(p1: GramPair, p2: GramPair) -> GramPair:
    """(A1 (x) A2, B1 (x) B2).

    This orientation is always a Gram pair: the Gram of A1 (x) A2 factors as
    A1 A1^T (x) A2 A2^T, which matches the mate's factor by factor.
    """
    a = np.kron(p1.A.int64(), p2.A.int64())
    b = np.kron(p1.B.int64(), p2.B.int64())
    if (a == b).all():
        raise ValueError("Kronecker products coincide; no pair")
    return _verified(a, b)


def kron_swap(p: GramPair) -> GramPair:
    """(A (x) B, B (x) A)."""
    a = np.kron(p.A.int64(), p.B.int64())
    b = np.kron(p.B.int64(), p.A.int64())
    if (a == b).all():
        raise ValueError("A (x) B equals B (x) A; no pair")
    return _verified(a, b)


def block_swap_pair(A1: BinaryMatrix, A2: BinaryMatrix) -> GramPair:
    """([[A1,A2],[A2,A1]], [[A2,A1],[A1,A2]]).

    Always a convertible Gram pair; its Gram singular values are the positive
    singular values of A1 - A2.
    """
    a1, a2 = A1.int64(), A2.int64()
    if a1.shape != a2.shape:
        raise ValueError("A1 and A2 must have the same dimensions")
    if (a1 == a2).all():
        raise ValueError("A1 and A2 must differ")
    a = np.block([[a1, a2], [a2, a1]])
    b = np.block([[a2, a1], [a1, a2]])
    return _verified(a, b)
