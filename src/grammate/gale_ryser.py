"""
Degree-sequence machinery for (0,1) matrices: conjugate vectors, majorization,
the Gale-Ryser existence test, a deterministic Ryser-style construction for
U(R,S), the exact search for every matrix with two given Gram matrices (the
one checked entry point of `reconstruct` and `mates-of`), and
signed_profile_block, which decides and builds the blocks of rank-2 M5
witnesses as U(R,S) members.

U(R,S) is the class of (0,1) matrices with row sum vector R and column sum
vector S; the diagonals of BB^T and B^TB are B's row and column sums.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .matrix_core import BinaryMatrix, _gram_dtype


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


DEFAULT_MATE_NODE_CAP = 10**7
_BLOCK = 1 << 16  # entries of a chunk's (F, K, n) temporaries


class OracleCapError(RuntimeError):
    """Search space exceeds the configured cap."""


def _rows_with_sum(n: int, s: int) -> np.ndarray:
    """The (0,1) rows of length n with s ones, as the columns of an (n, K)
    array of matrix_core._gram_dtype(n)."""
    ones = list(itertools.combinations(range(n), s))
    rows = np.zeros((n, len(ones)), dtype=_gram_dtype(n))
    rows[np.array(ones, dtype=np.intp).ravel(), np.repeat(np.arange(len(ones)), s)] = 1
    return rows


def _unflagged(flags: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(F, K) mask of x_k^T flags_f x_k == 0 for (0,1) flags (F, n, n) and
    (0,1) columns x_k of x (n, K).  Exact in any float type: a float sum of
    non-negative integers is zero exactly when every term is."""
    n, k = x.shape
    w = (flags.reshape(-1, n) @ x).reshape(len(flags), n, k)
    return np.einsum("fjk,jk->fk", w, x) == 0


def _int_gram(G) -> np.ndarray:
    """G as an int64 array; ValueError unless every entry is a finite
    integer, checked before any cast could truncate it."""
    g = np.asarray(G)
    if g.dtype.kind in "bi":
        return g.astype(np.int64)
    f = g.astype(np.float64)
    with np.errstate(invalid="ignore"):
        out = f.astype(np.int64)
    # NaN, infinities, fractions and values beyond int64 do not survive the cast
    if not (out == f).all():
        raise ValueError("Gram entries must be integers")
    return out


def matrices_with_grams(G_row, G_col, node_cap: int) -> list[BinaryMatrix]:
    """Every (0,1) matrix B with BB^T = G_row and B^TB = G_col, ascending by
    flattened entries, by a row-by-row frontier search.

    ValueError unless both Grams are integral (no cast truncates 1.5 to 1),
    2-D, square and symmetric.

    Row i is drawn from the K rows with sum G_row[i, i], and a chunk of F
    partial matrices P is expanded by all of them in one numpy step.  A
    candidate c is kept when its products with the rows above match G_row
    and the column residual R = G_col - P^TP stays within reach of the rows
    left: R >= 0 and R_jj + R_kk - R_jk <= rows left, where the left side
    counts the rows to come that hold j or k (at j = k, the column-sum
    bounds).  R is recomputed per chunk, never stored with the frontier,
    and c is tested against it by two quadratic forms: c covers j or k on
    every pair whose count equals the rows left, and holds no pair with
    R_jk = 0.  Leaves are kept when both Gram identities hold exactly.
    Chunks go depth first from an explicit stack of (level, frontier, chunk
    offset), so the depth, one level per row, is not bounded by Python's
    recursion limit.  F * max(K, n) * n is at most _BLOCK (or F = 1), which
    bounds the temporaries however wide a level grows.

    One node is one candidate row tried for one partial matrix, so a chunk
    at level i costs F * C(n, G_row[i, i]) nodes, as one-by-one
    backtracking would.  Each chunk is charged before it is built, and
    OracleCapError is raised exactly when the total exceeds node_cap.
    Grams that no matrix has at the root cost no node: a row sum below 0
    or above n, unequal traces, or a G_col outside the residual bounds.
    """
    gr, gc = _int_gram(G_row), _int_gram(G_col)
    if any(g.ndim != 2 or g.shape[0] != g.shape[1] for g in (gr, gc)):
        raise ValueError("Gram matrices must be 2-D and square")
    if (gr != gr.T).any() or (gc != gc.T).any():
        raise ValueError("Gram matrices must be symmetric")
    m, n = len(gr), len(gc)
    rs, cs = np.diagonal(gr), np.diagonal(gc)
    if ((rs < 0) | (rs > n)).any() or rs.sum() != cs.sum() \
            or (gc < 0).any() or (cs[:, None] + cs - gc > m).any():
        return []
    rs = rs.tolist()
    by_sum: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    found: list[BinaryMatrix] = []
    budget = node_cap

    # (level, frontier, chunk offset): the frontier holds partial matrices
    # with rows level.. zero, and its chunks from the offset on are to come
    stack = [(0, np.zeros((1, m, n), dtype=np.int8), 0)]
    while stack:
        i, front, lo = stack.pop()
        if i == m:
            b = front.astype(np.int64)
            bt = b.transpose(0, 2, 1)
            ok = (b @ bt == gr).all(axis=(1, 2)) & (bt @ b == gc).all(axis=(1, 2))
            found.extend(BinaryMatrix(x) for x in front[ok])
            continue
        s, k = rs[i], math.comb(n, rs[i])
        step = max(1, _BLOCK // (max(k, n) * n))
        f = front[lo:lo + step]
        if lo + step < len(front):
            stack.append((i, front, lo + step))
        budget -= len(f) * k
        if budget < 0:
            raise OracleCapError("Gram search exceeded the node cap")
        if s not in by_sum:
            rows = _rows_with_sum(n, s)
            by_sum[s] = rows, 1 - rows
        cands, gaps = by_sum[s]
        placed = f[:, :i].reshape(-1, n)
        wide = placed.astype(np.int64).reshape(len(f), i, n)
        r = gc - wide.transpose(0, 2, 1) @ wide
        d = np.diagonal(r, axis1=1, axis2=2)
        ok = _unflagged(d[:, :, None] + d[:, None, :] - r == m - i, gaps)
        ok &= _unflagged(r == 0, cands)
        # products of (0,1) rows of length n: exact by matrix_core._gram's bound
        prod = (placed @ cands).reshape(len(f), i, k)
        ok &= (prod == gr[i, :i, None]).all(axis=1)
        fi, ki = np.nonzero(ok)
        if len(fi):
            child = f[fi]
            child[:, i] = cands.T[ki]
            stack.append((i + 1, child, 0))

    found.sort(key=lambda M: tuple(M.data.flatten().tolist()))
    return found


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
