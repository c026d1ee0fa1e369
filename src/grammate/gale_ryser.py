"""
Degree-sequence machinery for (0,1) matrices: conjugate vectors, majorization,
the Gale-Ryser existence test, a deterministic Ryser-style construction for
U(R,S), the exact search for every matrix with two given Gram matrices, and
the block constructions used to synthesize rank-2 witnesses.

U(R,S) is the class of (0,1) matrices with row sum vector R and column sum
vector S; the diagonals of BB^T and B^TB are B's row and column sums.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .matrix_core import BinaryMatrix


class InfeasibleError(ValueError):
    """No matrix exists with the requested sums or signed block profile."""


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
    sums, ties broken by lowest row index.
    """
    r, s = _vec(R), _vec(S)
    if not exists_urs(r, s):
        raise InfeasibleError(f"U(R,S) empty for R={tuple(r)}, S={tuple(s)}")
    m, n = len(r), len(s)
    out = np.zeros((m, n), dtype=np.int8)
    residual = r[:]
    for j in sorted(range(n), key=lambda j: (-s[j], j)):
        rows = sorted(range(m), key=lambda i: (-residual[i], i))[: s[j]]
        if any(residual[i] == 0 for i in rows):
            raise InfeasibleError("Ryser fill ran out of rows")  # unreachable
        for i in rows:
            out[i, j] = 1
            residual[i] -= 1
    if any(residual):
        raise RuntimeError("Ryser fill left row sums unmet")
    return BinaryMatrix(out)


DEFAULT_MATE_NODE_CAP = 10**7
_BLOCK = 1 << 16  # entries of a chunk's (F, K, n) temporaries


class OracleCapError(RuntimeError):
    """Search space exceeds the configured cap."""


def _rows_with_sum(n: int, s: int) -> np.ndarray:
    """The (0,1) rows of length n with s ones, as the columns of a float32
    (n, K) array."""
    ones = list(itertools.combinations(range(n), s))
    rows = np.zeros((n, len(ones)), dtype=np.float32)
    rows[np.array(ones, dtype=np.intp).ravel(), np.repeat(np.arange(len(ones)), s)] = 1
    return rows


def _unflagged(flags: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(F, K) mask of x_k^T flags_f x_k == 0 for (0,1) flags (F, n, n) and
    (0,1) columns x_k of x (n, K).  Exact in float32: a float sum of
    non-negative integers is zero exactly when every term is."""
    n, k = x.shape
    w = (flags.reshape(-1, n) @ x).reshape(len(flags), n, k)
    return np.einsum("fjk,jk->fk", w, x) == 0


def matrices_with_grams(G_row, G_col, node_cap: int) -> list[BinaryMatrix]:
    """Every (0,1) matrix B with BB^T = G_row and B^TB = G_col, ascending by
    flattened entries, by a row-by-row frontier search.

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
    Chunks go depth first, and F * max(K, n) * n is at most _BLOCK (or
    F = 1), which bounds the temporaries however wide a level grows.

    One node is one candidate row tried for one partial matrix, so a chunk
    at level i costs F * C(n, G_row[i, i]) nodes, as one-by-one
    backtracking would.  Each chunk is charged before it is built, and
    OracleCapError is raised exactly when the total exceeds node_cap.
    Grams that no matrix has at the root cost no node: a row sum below 0
    or above n, unequal traces, or a G_col outside the residual bounds.
    """
    gr, gc = np.asarray(G_row, dtype=np.int64), np.asarray(G_col, dtype=np.int64)
    m, n = len(gr), len(gc)
    rs, cs = np.diagonal(gr), np.diagonal(gc)
    if ((rs < 0) | (rs > n)).any() or rs.sum() != cs.sum() \
            or (gc < 0).any() or (cs[:, None] + cs - gc > m).any():
        return []
    rs = rs.tolist()
    by_sum: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    found: list[BinaryMatrix] = []
    budget = node_cap

    def expand(i: int, front: np.ndarray):
        # front: (F, m, n) partial matrices with rows i.. zero
        nonlocal budget
        if i == m:
            b = front.astype(np.int64)
            bt = b.transpose(0, 2, 1)
            ok = (b @ bt == gr).all(axis=(1, 2)) & (bt @ b == gc).all(axis=(1, 2))
            found.extend(BinaryMatrix(x) for x in front[ok])
            return
        s, k = rs[i], math.comb(n, rs[i])
        step = max(1, _BLOCK // (max(k, n) * n))
        for lo in range(0, len(front), step):
            f = front[lo:lo + step]
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
            # products of 0/1 rows are integers of at most n, exact in float32
            prod = (placed @ cands).reshape(len(f), i, k)
            ok &= (prod == gr[i, :i, None]).all(axis=1)
            fi, ki = np.nonzero(ok)
            child = f[fi]
            child[:, i] = cands.T[ki]
            expand(i + 1, child)

    expand(0, np.zeros((1, m, n), dtype=np.int8))
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


def _J(m: int, n: int) -> np.ndarray:
    return np.ones((m, n), dtype=np.int8)


def _Z(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int8)


def check_signed_profile(X, m1, m2, n1, n2, row1, row2, col1, col2) -> bool:
    """Do the four signed block-sum identities hold?

    Rows in the first block have (left sum) - (right sum) = row1, rows in the
    second block row2; columns analogously col1 and col2 against the signed
    row split.
    """
    a = X.int64() if hasattr(X, "int64") else np.asarray(X, dtype=np.int64)
    if a.shape != (m1 + m2, n1 + n2):
        raise ValueError("shape mismatch")
    rsig = a[:, :n1].sum(axis=1) - a[:, n1:].sum(axis=1)
    csig = a[:m1].sum(axis=0) - a[m1:].sum(axis=0)
    return (
        (rsig[:m1] == row1).all()
        and (rsig[m1:] == row2).all()
        and (csig[:n1] == col1).all()
        and (csig[n1:] == col2).all()
    )


def _even_core(m1: int, m2: int, n1: int, n2: int) -> np.ndarray:
    """The lemma's layout for m1 >= m2, n1 >= n2."""
    alpha = (m1 - m2) // 2
    beta = (n1 - n2) // 2
    if alpha == 0 and beta == 0:
        return _Z(m1 + m2, n1 + n2)
    if beta == 0:
        return np.vstack([_J(alpha, n1 + n2), _Z(m1 + m2 - alpha, n1 + n2)])
    if alpha == 0:
        return _even_core(n1, n2, m1, m2).T
    return np.block(
        [
            [_J(alpha, beta), _Z(alpha, n2), _Z(alpha, beta), _Z(alpha, n2)],
            [_Z(m2, beta), _Z(m2, n2), _J(m2, beta), _Z(m2, n2)],
            [_Z(alpha, beta), _J(alpha, n2), _J(alpha, beta), _J(alpha, n2)],
            [_Z(m2, beta), _Z(m2, n2), _J(m2, beta), _Z(m2, n2)],
        ]
    )


def _even_layout(m1: int, m2: int, n1: int, n2: int) -> np.ndarray:
    """even_block's layout, for any sizes with both pair sums even, zero
    sizes included.  Orientations with m1 < m2 or n1 < n2 are obtained
    from the canonical layout by block swaps."""
    a = _even_core(max(m1, m2), min(m1, m2), max(n1, n2), min(n1, n2))
    if m1 < m2:
        a = np.vstack([a[m2:], a[:m2]])
    if n1 < n2:
        a = np.hstack([a[:, n2:], a[:, :n2]])
    return a


def even_block(m1: int, m2: int, n1: int, n2: int) -> BinaryMatrix:
    """X with X(1;-1) = ((n1-n2)/2)*1 and X^T(1;-1) = ((m1-m2)/2)*1.

    Requires all four sizes positive and both pair sums even.
    """
    if min(m1, m2, n1, n2) <= 0:
        raise ValueError("all block sizes must be positive")
    if (m1 + m2) % 2 or (n1 + n2) % 2:
        raise ValueError("pair sums must be even")
    a = _even_layout(m1, m2, n1, n2)
    h_r = (n1 - n2) // 2
    h_c = (m1 - m2) // 2
    if not check_signed_profile(np.asarray(a, dtype=np.int64), m1, m2, n1, n2, h_r, h_r, h_c, h_c):
        raise RuntimeError("even block has the wrong signed profile")
    return BinaryMatrix(a)


def proportional_block(a1, a2, b1, b2, m1, m2, n1, n2) -> BinaryMatrix:
    """Y with Y(1;-1) = (b1*1; -b2*1) and Y^T(1;-1) = (a1*1; -a2*1).

    Hypotheses: all of a1,a2,b1,b2 positive, m1+m2 > a1+a2, n1+n2 > b1+b2,
    m1-m2 = a1-a2, n1-n2 = b1-b2, and (n1+n2)/(m1+m2) = (b1+b2)/(a1+a2).
    The construction follows the split on m1*b1 versus n1*a1.
    """
    vals = (a1, a2, b1, b2, m1, m2, n1, n2)
    if min(vals) <= 0:
        raise ValueError("all parameters must be positive")
    if m1 + m2 <= a1 + a2 or n1 + n2 <= b1 + b2:
        raise ValueError("size hypotheses violated")
    if m1 - m2 != a1 - a2 or n1 - n2 != b1 - b2:
        raise ValueError("difference hypotheses violated")
    if (n1 + n2) * (a1 + a2) != (m1 + m2) * (b1 + b2):
        raise ValueError("proportionality hypothesis violated")
    if m1 * b1 + m2 * b2 != n1 * a1 + n2 * a2:  # implied by the three hypotheses
        raise RuntimeError("hypotheses hold but the block totals differ")

    if m1 * b1 < n1 * a1:
        return proportional_block(b1, b2, a1, a2, n1, n2, m1, m2).transpose()

    ell = m1 * b1 - n1 * a1
    if ell == 0:
        y11 = construct_urs([b1] * m1, [a1] * n1).data
        y22 = construct_urs([b2] * m2, [a2] * n2).data
        a = np.block([[y11, _Z(m1, n2)], [_Z(m2, n1), y22]])
    else:
        q1, r1 = divmod(ell, n1)
        s_tilde = [q1 + 1] * r1 + [q1] * (n1 - r1)
        q2, r2 = divmod(ell, m2)
        r21 = [q2 + 1] * r2 + [q2] * (m2 - r2)
        y11 = construct_urs([b1] * m1, [a1 + t for t in s_tilde]).data
        y21 = construct_urs(r21, s_tilde).data
        y22 = construct_urs([b2 + t for t in r21], [a2] * n2).data
        a = np.block([[y11, _Z(m1, n2)], [y21, y22]])
    if not check_signed_profile(np.asarray(a, dtype=np.int64), m1, m2, n1, n2, b1, -b2, a1, -a2):
        raise RuntimeError("proportional block has the wrong signed profile")
    return BinaryMatrix(a)
