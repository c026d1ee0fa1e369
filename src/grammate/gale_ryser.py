"""
Degree-sequence machinery for (0,1) matrices: conjugate vectors, majorization,
the Gale-Ryser existence test, a deterministic Ryser-style construction for
U(R,S), the consecutive-ones spread, and signed_profile_block, which decides
and builds the blocks of rank-2 M5 witnesses as U(R,S) members.

U(R,S) is the class of (0,1) matrices with row sum vector R and column sum
vector S; the diagonals of BB^T and B^TB are B's row and column sums.  The
exact search for every matrix with two given Gram matrices is
oracle.matrices_with_grams.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import BinaryMatrix


class InfeasibleError(ValueError):
    """No matrix exists with the requested row and column sums."""


def _vec(a) -> list[int]:
    out = [int(x) for x in a]
    if any(x < 0 for x in out):
        raise ValueError("degree vectors must be non-negative")
    return out


def conjugate(a, length: int) -> tuple[int, ...]:
    """Entry i of the conjugate counts entries of a that are >= i (i=1..length)."""
    v = _vec(a)
    return tuple(sum(1 for x in v if x >= i) for i in range(1, length + 1))


def majorizes(a, b) -> bool:
    """Sorted-prefix-sum dominance with equal totals (shorter side zero-padded)."""
    x = sorted(_vec(a), reverse=True)
    y = sorted(_vec(b), reverse=True)
    n = max(len(x), len(y))
    x += [0] * (n - len(x))
    y += [0] * (n - len(y))
    if sum(x) != sum(y):
        return False
    px = py = 0
    for i in range(n):
        px += x[i]
        py += y[i]
        if px < py:
            return False
    return True


def exists_urs(R, S) -> bool:
    """Gale-Ryser: U(R,S) is nonempty iff S is majorized by R* and r_i <= n."""
    r, s = _vec(R), _vec(S)
    n = len(s)
    if any(x > n for x in r):
        return False
    return majorizes(conjugate(r, n), s)


def construct_urs(R, S) -> BinaryMatrix:
    """Deterministic member of U(R,S) by Ryser's fill.

    Columns are processed in decreasing column-sum order (ties by original
    index); each column is filled in the rows with the largest residual row
    sums, ties broken by lowest row index.  The fill also decides whether
    U(R,S) is empty.  If a member has a one of column j in row i and a zero
    in a row i' whose residual sum is at least row i's, then row i' has a
    one in some column where row i has a zero, and swapping the two 2x2
    corners moves the one to row i'.  So a non-empty U(R,S) has a member
    whose column j is filled as the fill fills it, and InfeasibleError is
    raised exactly when U(R,S) is empty.
    """
    r, s = _vec(R), _vec(S)
    m, n = len(r), len(s)
    out = np.zeros((m, n), dtype=np.int8)
    residual = r[:]
    for j in sorted(range(n), key=lambda j: (-s[j], j)):
        rows = sorted(range(m), key=lambda i: (-residual[i], i))[: s[j]]
        if len(rows) < s[j] or any(residual[i] == 0 for i in rows):
            raise InfeasibleError(f"U(R,S) empty for R={tuple(r)}, S={tuple(s)}")
        for i in rows:
            out[i, j] = 1
            residual[i] -= 1
    if any(residual):
        raise InfeasibleError(f"U(R,S) empty for R={tuple(r)}, S={tuple(s)}")
    return BinaryMatrix(out)


def spread_construction(R, n: int) -> BinaryMatrix:
    """Consecutive-ones spread and fold.

    Lay the row sums out as runs of ones continuing left to right across an
    m x n(q+1) strip, cut the strip into q+1 blocks of width n, and add the
    blocks.  Row sums are R; column sums are q+1 in the first (total mod n)
    columns and q elsewhere, where total = q*n + (total mod n).
    """
    r = _vec(R)
    if any(x > n for x in r):
        raise ValueError("every row sum must be at most n")
    m = len(r)
    out = np.zeros((m, n), dtype=np.int8)
    pos = 0
    for i in range(m):
        for _ in range(r[i]):
            out[i, pos % n] += 1
            pos += 1
    if (out > 1).any():
        raise RuntimeError("spread construction put two ones in one cell")
    return BinaryMatrix(out)


def signed_profile_block(m1: int, m2: int, n1: int, n2: int, r1, r2, c1, c2):
    """A (0,1) block with a given signed profile, or None when none has it.

    The block has m1 + m2 rows in two bands and n1 + n2 columns in two
    groups.  Every row of band 1 has (sum over group 1) - (sum over group 2)
    = r1, and every row of band 2 has r2; every column of group 1 has (sum
    over band 1) - (sum over band 2) = c1, and every column of group 2 has
    c2.  Only the targets of non-empty bands and groups are read.

    Complementing band 2 and group 2 (entry (i, j) flips when exactly one of
    row i in band 2, column j in group 2 holds) turns the signed sums into
    plain ones, R = (r1 + n2)1 || (n1 - r2)1 and S = (c1 + m2)1 || (m1 - c2)1.
    So the blocks with the profile are the members of U(R,S), flipped back,
    and construct_urs decides whether one exists and builds it.
    The block is an int8 array, since a band or a group may be empty.
    """
    # a comprehension reads its target only when the band or group is non-empty
    R = [r1 + n2 for _ in range(m1)] + [n1 - r2 for _ in range(m2)]
    S = [c1 + m2 for _ in range(n1)] + [m1 - c2 for _ in range(n2)]
    m, n = m1 + m2, n1 + n2
    if any(x < 0 for x in R + S):
        return None
    if m == 0 or n == 0:  # no entries: every sum is zero
        return None if any(R + S) else np.zeros((m, n), dtype=np.int8)
    try:
        block = construct_urs(R, S).data
    except InfeasibleError:
        return None
    flip = np.zeros((m, n), dtype=np.int8)
    flip[:m1, n1:] = flip[m1:, :n1] = 1
    return block ^ flip
