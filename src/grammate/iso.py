"""
Isomorphism of Gram pairs (B = PAQ), the remaining-matrix context of a
rank-1 pair, the fixability predicate, and the involution-restricted search
that applies when all singular values are distinct.

All searches are complete backtracking with multiset pruning and an explicit
node cap; exceeding the cap yields the string "undecided (cap)", never a
wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import GramPair
from .matrix_core import BinaryMatrix, Permutation, apply_perms
from .numerics import DEFAULT_REL_TOL, distinct_singular_values
from .rank_forms import classify_rank1

DEFAULT_NODE_CAP = 10**7

UNDECIDED = "undecided (cap)"
NON_ISOMORPHIC = "non-isomorphic"


class CapExceeded(Exception):
    pass


@dataclass(frozen=True)
class RemainingContext:
    """Canonical decomposition of a rank-1 pair.

    In canonical coordinates A is [[J,0,X1],[0,J,X2],[X3,X4,Y]] (or the same
    with the J blocks swapped); alpha/beta are the touched rows/columns in
    the original coordinates, and row_perm/col_perm map original indices to
    the canonical layout.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    k1: int
    k2: int
    # blocks are int8 arrays rather than BinaryMatrix so they may be empty
    X1: np.ndarray
    X2: np.ndarray
    X3: np.ndarray
    X4: np.ndarray
    Y: np.ndarray
    row_perm: Permutation
    col_perm: Permutation


@dataclass(frozen=True)
class IsoWitness:
    """B = P.matrix() @ A @ Q.matrix(), exactly."""

    P: Permutation
    Q: Permutation


def remaining_context(pair: GramPair) -> RemainingContext:
    if pair.diff_rank != 1:
        raise ValueError(f"diff_rank is {pair.diff_rank}, not 1")
    d = pair.diff()
    form = classify_rank1(d)
    assert form is not None
    k1, k2 = form.k1, form.k2
    a = apply_perms(pair.A, form.row_perm, form.col_perm).int64()
    dd = d.int64()
    alpha = tuple(i for i in range(dd.shape[0]) if dd[i].any())
    beta = tuple(j for j in range(dd.shape[1]) if dd[:, j].any())

    def blk(rows, cols):
        return a[rows, :][:, cols].astype(np.int8)

    r1, r2, r3 = slice(0, k1), slice(k1, 2 * k1), slice(2 * k1, None)
    c1, c2, c3 = slice(0, k2), slice(k2, 2 * k2), slice(2 * k2, None)
    return RemainingContext(
        alpha=alpha,
        beta=beta,
        k1=k1,
        k2=k2,
        X1=blk(r1, c3),
        X2=blk(r2, c3),
        X3=blk(r3, c1),
        X4=blk(r3, c2),
        Y=blk(r3, c3),
        row_perm=form.row_perm,
        col_perm=form.col_perm,
    )


def _row_multiset(a: np.ndarray):
    return sorted(map(tuple, a.tolist()))


def _col_multiset(a: np.ndarray):
    return sorted(map(tuple, a.T.tolist()))


class _Budget:
    def __init__(self, cap: int):
        self.left = cap

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise CapExceeded


def _perm_search(groups_ok, n: int, accept, budget: _Budget):
    """All-purpose backtracking over bijections on {0..n-1}.

    groups_ok(i, j, partial) says whether i may map to j given the partial
    assignment; accept(perm) does the final feasibility test.  Returns the
    first accepted permutation (as a list) or None.
    """
    assign = [-1] * n
    used = [False] * n

    def rec(i):
        if i == n:
            return accept(assign)
        for j in range(n):
            if used[j] or not groups_ok(i, j, assign):
                continue
            budget.spend()
            assign[i] = j
            used[j] = True
            if rec(i + 1):
                return True
            assign[i] = -1
            used[j] = False
        return False

    if rec(0):
        return list(assign)
    return None


def is_fixable(ctx: RemainingContext, node_cap: int = DEFAULT_NODE_CAP):
    """Does some (P, Q) with Y = PYQ satisfy one of the two border cases?

    Case one: the X1/X2 rows swap under Q and the X3/X4 columns are each
    preserved under P.  Case two (the transposed variant): X1/X2 rows are
    each preserved under Q and the X3/X4 columns swap under P.
    """
    x1, x2 = ctx.X1.astype(np.int64), ctx.X2.astype(np.int64)
    x3, x4 = ctx.X3.astype(np.int64), ctx.X4.astype(np.int64)
    y = ctx.Y.astype(np.int64)
    m, n = y.shape
    budget = _Budget(node_cap)

    ycols = [tuple(y[:, j]) for j in range(n)]
    yrows = [tuple(y[i, :]) for i in range(m)]

    def sigma_ok(j, jj, _):
        # necessary for the existence of a row permutation fixing Y
        return sorted(ycols[j]) == sorted(ycols[jj])

    def pi_candidates(sigma):
        yq = y[:, sigma]  # column j of yq is column sigma[j] of y; Y[pi(i), sigma(j)] = Y[i,j]
        rows_of_target = [tuple(r) for r in yq.tolist()]
        cand = [[r for r in range(m) if rows_of_target[r] == yrows[i]] for i in range(m)]
        return cand

    def try_case(swap_rows_under_q: bool):
        # swap_rows_under_q=True: rows(X1 sigma) == rows(X2) and vice versa (case one)
        # False: each of X1, X2 has its row multiset preserved by sigma (case two)
        def sigma_accept(sigma):
            x1s = x1[:, sigma]
            x2s = x2[:, sigma]
            if swap_rows_under_q:
                if _row_multiset(x1s) != _row_multiset(x2) or _row_multiset(x2s) != _row_multiset(x1):
                    return False
            else:
                if _row_multiset(x1s) != _row_multiset(x1) or _row_multiset(x2s) != _row_multiset(x2):
                    return False
            cand = pi_candidates(sigma)
            if any(not c for c in cand):
                return False

            def pi_ok(i, r, _partial):
                return r in cand[i]

            def pi_accept(pi):
                x3p = x3[pi, :]  # column c of P X3 has entries X3[i, c] at row pi(i)
                x4p = x4[pi, :]
                if swap_rows_under_q:
                    return (
                        _col_multiset(x3p) == _col_multiset(x3)
                        and _col_multiset(x4p) == _col_multiset(x4)
                    )
                return (
                    _col_multiset(x3p) == _col_multiset(x4)
                    and _col_multiset(x4p) == _col_multiset(x3)
                )

            return _perm_search(pi_ok, m, pi_accept, budget) is not None

        return _perm_search(sigma_ok, n, sigma_accept, budget) is not None

    try:
        return try_case(True) or try_case(False)
    except CapExceeded:
        return UNDECIDED


def _row_fingerprints(a: np.ndarray):
    g = a @ a.T
    return [
        (int(a[i].sum()), int(g[i, i]), tuple(sorted(g[i].tolist())))
        for i in range(a.shape[0])
    ]


def _column_match(a_rows_mapped: np.ndarray, b: np.ndarray):
    """A column bijection gamma with b[:, gamma(j)] == mapped column j, or None."""
    n = a_rows_mapped.shape[1]
    cols_a = [tuple(a_rows_mapped[:, j]) for j in range(n)]
    cols_b = [tuple(b[:, j]) for j in range(n)]
    if sorted(cols_a) != sorted(cols_b):
        return None
    pool: dict[tuple, list[int]] = {}
    for j in range(n - 1, -1, -1):
        pool.setdefault(cols_b[j], []).append(j)
    gamma = [pool[c].pop() for c in cols_a]
    return gamma


def are_isomorphic(A: BinaryMatrix, B: BinaryMatrix, node_cap: int = DEFAULT_NODE_CAP):
    """A complete search for B = PAQ.

    Rows are matched under (row sum, Gram diagonal, Gram row multiset)
    classes with pairwise Gram consistency pruning; a complete row map is
    closed by exact column-content matching.
    """
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    a, b = A.int64(), B.int64()
    m = a.shape[0]
    fa, fb = _row_fingerprints(a), _row_fingerprints(b)
    if sorted(fa) != sorted(fb):
        return NON_ISOMORPHIC
    ga, gb = a @ a.T, b @ b.T
    budget = _Budget(node_cap)
    out: dict[str, IsoWitness] = {}

    def rho_ok(i, r, partial):
        if fa[i] != fb[r]:
            return False
        for i2 in range(i):
            if gb[partial[i2], r] != ga[i2, i]:
                return False
        return True

    def accept(rho):
        # matrix whose row rho(i) is row i of a; its columns must match b's
        t = np.empty_like(a)
        t[rho, :] = a
        gamma = _column_match(t, b)
        if gamma is None:
            return False
        P = Permutation(tuple(rho))
        Q = Permutation(tuple(gamma)).inverse()
        assert (P.matrix().int64() @ a @ Q.matrix().int64() == b).all()
        out["w"] = IsoWitness(P=P, Q=Q)
        return True

    try:
        found = _perm_search(rho_ok, m, accept, budget)
    except CapExceeded:
        return UNDECIDED
    if found is None:
        return NON_ISOMORPHIC
    return out["w"]


def iso_distinct_sv(
    pair: GramPair,
    rel_tol: float = DEFAULT_REL_TOL,
    node_cap: int = DEFAULT_NODE_CAP,
):
    """Isomorphism search for square mates with all distinct singular values.

    Any isomorphism between such mates uses permutations whose cycles have
    length at most two, so the search runs over involutions only.
    """
    a, b = pair.A.int64(), pair.B.int64()
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if not distinct_singular_values(a, rel_tol):
        raise ValueError("singular values are not all distinct")
    m = a.shape[0]
    fa, fb = _row_fingerprints(a), _row_fingerprints(b)
    if sorted(fa) != sorted(fb):
        return NON_ISOMORPHIC
    budget = _Budget(node_cap)
    out: dict[str, IsoWitness] = {}

    ga, gb = a @ a.T, b @ b.T

    def rho_ok(i, r, partial):
        if fa[i] != fb[r]:
            return False
        # cycles of length at most two: an already-placed r must point back
        if r < i and partial[r] != i:
            return False
        for i2 in range(i):
            if gb[partial[i2], r] != ga[i2, i]:
                return False
        return True

    def accept(rho):
        if any(rho[rho[i]] != i for i in range(m)):
            return False
        t = np.empty_like(a)
        t[rho, :] = a
        gamma = _involution_column_match(t, b)
        if gamma is None:
            return False
        P = Permutation(tuple(rho))
        Q = Permutation(tuple(gamma)).inverse()
        assert P.is_involution() and Q.is_involution()
        assert (P.matrix().int64() @ a @ Q.matrix().int64() == b).all()
        out["w"] = IsoWitness(P=P, Q=Q)
        return True

    try:
        found = _perm_search(rho_ok, m, accept, budget)
    except CapExceeded:
        return UNDECIDED
    if found is None:
        return NON_ISOMORPHIC
    return out["w"]


def _involution_column_match(t: np.ndarray, b: np.ndarray):
    """An involutory gamma with b[:, gamma(j)] == t[:, j], by matching."""
    n = t.shape[1]
    cols_t = [tuple(t[:, j]) for j in range(n)]
    cols_b = [tuple(b[:, j]) for j in range(n)]
    gamma = [-1] * n

    def rec(j):
        if j == n:
            return True
        if gamma[j] != -1:
            return rec(j + 1)
        for jj in range(n):
            if gamma[jj] != -1:
                continue
            # gamma(j)=jj and gamma(jj)=j must both transport correctly
            if cols_b[jj] != cols_t[j] or cols_b[j] != cols_t[jj]:
                continue
            gamma[j], gamma[jj] = jj, j
            if rec(j + 1):
                return True
            gamma[j] = gamma[jj] = -1
        return False

    if rec(0):
        return gamma
    return None


def sum_separation(A: BinaryMatrix, ctx: RemainingContext) -> bool:
    """Are the border row/column sums disjoint from the remaining block's?

    True when, for each of the two touched row groups, its set of row sums
    shares nothing with the untouched rows' sums, and likewise for columns.
    Under this hypothesis isomorphic and fixable coincide.
    """
    a = A.int64()
    rs = a.sum(axis=1)
    cs = a.sum(axis=0)
    inv_r = ctx.row_perm.inverse().image
    inv_c = ctx.col_perm.inverse().image
    r1 = {int(rs[inv_r[i]]) for i in range(ctx.k1)}
    r2 = {int(rs[inv_r[i]]) for i in range(ctx.k1, 2 * ctx.k1)}
    r3 = {int(rs[inv_r[i]]) for i in range(2 * ctx.k1, len(inv_r))}
    c1 = {int(cs[inv_c[j]]) for j in range(ctx.k2)}
    c2 = {int(cs[inv_c[j]]) for j in range(ctx.k2, 2 * ctx.k2)}
    c3 = {int(cs[inv_c[j]]) for j in range(2 * ctx.k2, len(inv_c))}
    return not (r1 & r3) and not (r2 & r3) and not (c1 & c3) and not (c2 & c3)
